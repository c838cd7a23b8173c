#!/usr/bin/env python
"""Quick benchmark smoke run: the fidelity-tier benchmarks that gate
the waveform hot path, written to a BENCH_*.json snapshot.

Usage:
    python tools/bench_smoke.py                 # BENCH_<git-rev>.json
    python tools/bench_smoke.py --out my.json
    python tools/bench_smoke.py --keep 5        # prune older snapshots

Runs the subset that covers all three fidelity tiers plus the event
engine (bench_simulator_performance.py) and the end-to-end DSP loop
(bench_waveform_loop.py) — a couple of minutes, not the full suite.
Compare two snapshots with:

    python tools/bench_compare.py BENCH_old.json BENCH_new.json
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from typing import List

SMOKE_BENCHMARKS = [
    "benchmarks/bench_simulator_performance.py",
    "benchmarks/bench_waveform_loop.py",
]

# Resilience-off overhead gate: stepping through NetworkSupervisor with
# no policies may not slow the MAC loop beyond these ratios (measured
# ~2.7x with per-slot invariant checks, ~1.6x without; thresholds leave
# headroom for noisy shared runners).
OVERHEAD_SLOTS = 4000
OVERHEAD_REPEATS = 3
MAX_RATIO_CHECKED = 4.0
MAX_RATIO_UNCHECKED = 2.5

# Multi-reader overhead gate: a single-reader MultiReaderNetwork must
# stay within this ratio of a plain SlottedNetwork over the same seed
# and topology — the zero-cost-off contract for the multireader layer
# (run() delegates straight to the lone cell; measured ~1.0x, the gate
# leaves headroom for noisy shared runners).
MAX_RATIO_MULTIREADER = 1.05

# Relay overhead gate: a RelaySlottedNetwork with relaying disabled
# must stay within this ratio of a plain SlottedNetwork over the same
# seed and topology — the zero-cost-off contract for the relay layer
# (the route-less network runs the base step, each relay seam a single
# falsy test; the gate leaves headroom for noisy shared runners).
MAX_RATIO_RELAY = 1.05

# Telemetry overhead gate: the instrument sites are guarded by a single
# `telemetry.active()` lookup, so running with collection enabled may
# not slow the MAC loop beyond this ratio (measured ~1.2x; the gate
# leaves headroom for noisy shared runners). With telemetry off the
# sites must be effectively free — that leg shares the same gate.
MAX_RATIO_TELEMETRY = 3.0

# Waveform-tier throughput snapshot: steady-state slots/s for the slot
# tier and for the waveform tier with the template fast path on and
# off, plus the template-cache hit rate.  The committed baseline lives
# at benchmarks/BENCH_waveform.json; diff a fresh snapshot against it
# with `python tools/bench_compare.py <baseline> <fresh>`.
WAVEFORM_WARMUP_SLOTS = 40
WAVEFORM_TIMED_SLOTS = 120
# /2 adds "kernel_backend": which repro.phy.kernels backend (cext /
# numpy) served the measurement — numbers from different
# backends are not comparable, so the snapshot records it.
WAVEFORM_SNAPSHOT_SCHEMA = "bench-waveform/2"

# Kernels-off overhead gate: with the ``REPRO_PHY_KERNELS`` gate
# closed every kernel rides the numpy fallback — the pre-kernel-tier
# code path — so the waveform fast tier must stay within this ratio of
# the baseline measured just before the kernel tier landed
# (1.03 ms/slot).  Guards against the dispatch layer taxing the
# fallback everyone gets when no C compiler is available.
KERNELS_OFF_BASELINE_MS_PER_SLOT = 1.03
MAX_RATIO_KERNELS_OFF = 1.05
KERNELS_OFF_REPEATS = 3

# Fleet-tier throughput snapshot: aggregate (network x tag x slot) work
# units per second for the batch engine at each fleet width, plus the
# sequential single-network rate the speedups are measured against.
# The committed baseline lives at benchmarks/BENCH_fleet.json.
FLEET_WARMUP_SLOTS = 32
FLEET_TIMED_SLOTS = 256
FLEET_SIZES = (16, 128, 1024)
FLEET_SEQUENTIAL_SLOTS = 2000
FLEET_SNAPSHOT_SCHEMA = "bench-fleet/1"


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def default_out() -> str:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=repo_root(),
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "worktree"
    return f"BENCH_{rev}.json"


def resilience_overhead_check() -> bool:
    """Time supervised (no-policy) stepping against the plain MAC loop.

    Returns True when both overhead ratios stay under their gates.
    """
    sys.path.insert(0, os.path.join(repo_root(), "src"))
    from repro.core.network import NetworkConfig, SlottedNetwork
    from repro.resilience import NetworkSupervisor

    periods = {f"tag{i}": p for i, p in enumerate((4, 8, 8, 16, 16, 32), start=1)}

    def timed(supervised: bool, check_invariants: bool = True) -> float:
        best = float("inf")
        for _ in range(OVERHEAD_REPEATS):
            net = SlottedNetwork(
                periods, config=NetworkConfig(seed=0, ideal_channel=True)
            )
            runner = (
                NetworkSupervisor(net, policies=(), check_invariants=check_invariants)
                if supervised
                else net
            )
            start = time.perf_counter()
            runner.run(OVERHEAD_SLOTS)
            best = min(best, time.perf_counter() - start)
        return best

    plain = timed(supervised=False)
    checked = timed(supervised=True, check_invariants=True) / plain
    unchecked = timed(supervised=True, check_invariants=False) / plain
    ok = checked <= MAX_RATIO_CHECKED and unchecked <= MAX_RATIO_UNCHECKED
    print(
        f"resilience-off overhead over {OVERHEAD_SLOTS} slots: "
        f"{checked:.2f}x with invariant checks (gate {MAX_RATIO_CHECKED}x), "
        f"{unchecked:.2f}x without (gate {MAX_RATIO_UNCHECKED}x) "
        f"-> {'ok' if ok else 'FAIL'}"
    )
    return ok


def telemetry_overhead_check() -> bool:
    """Time the MAC loop with telemetry collection on against off.

    Returns True when the enabled/disabled ratio stays under the gate.
    The disabled leg is the shipping default, so this also smoke-tests
    the zero-cost-when-off contract: the guarded sites reduce to one
    module-level lookup per slot batch.
    """
    sys.path.insert(0, os.path.join(repo_root(), "src"))
    from repro import telemetry
    from repro.core.network import NetworkConfig, SlottedNetwork

    periods = {f"tag{i}": p for i, p in enumerate((4, 8, 8, 16, 16, 32), start=1)}

    def timed(collect: bool) -> float:
        best = float("inf")
        for _ in range(OVERHEAD_REPEATS):
            net = SlottedNetwork(
                periods, config=NetworkConfig(seed=0, ideal_channel=True)
            )
            if collect:
                start = time.perf_counter()
                with telemetry.collecting():
                    net.run(OVERHEAD_SLOTS)
                best = min(best, time.perf_counter() - start)
            else:
                start = time.perf_counter()
                net.run(OVERHEAD_SLOTS)
                best = min(best, time.perf_counter() - start)
        return best

    off = timed(collect=False)
    ratio = timed(collect=True) / off
    ok = ratio <= MAX_RATIO_TELEMETRY
    print(
        f"telemetry-on overhead over {OVERHEAD_SLOTS} slots: "
        f"{ratio:.2f}x vs telemetry off (gate {MAX_RATIO_TELEMETRY}x) "
        f"-> {'ok' if ok else 'FAIL'}"
    )
    return ok


def multireader_overhead_check() -> bool:
    """Time a single-reader MultiReaderNetwork against the plain loop.

    Returns True when the ratio stays under the gate.  With one reader
    the multireader wrapper must be provably inert: same slot records,
    and (checked here) indistinguishable wall time — ``run()`` hands
    the whole batch to the lone cell.
    """
    sys.path.insert(0, os.path.join(repo_root(), "src"))
    from repro.core.network import NetworkConfig, SlottedNetwork
    from repro.multireader import MultiReaderNetwork, deployment_for

    periods = {f"tag{i}": p for i, p in enumerate((4, 8, 8, 16, 16, 32), start=1)}

    def timed(multi: bool) -> float:
        best = float("inf")
        for _ in range(OVERHEAD_REPEATS):
            config = NetworkConfig(seed=0, ideal_channel=True)
            net = (
                MultiReaderNetwork(
                    periods, deployment=deployment_for(1), config=config
                )
                if multi
                else SlottedNetwork(periods, config=config)
            )
            start = time.perf_counter()
            net.run(OVERHEAD_SLOTS)
            best = min(best, time.perf_counter() - start)
        return best

    ratio = timed(multi=True) / timed(multi=False)
    ok = ratio <= MAX_RATIO_MULTIREADER
    print(
        f"single-reader multireader overhead over {OVERHEAD_SLOTS} slots: "
        f"{ratio:.2f}x vs plain SlottedNetwork "
        f"(gate {MAX_RATIO_MULTIREADER}x) -> {'ok' if ok else 'FAIL'}"
    )
    return ok


def relay_overhead_check() -> bool:
    """Time a relaying-disabled RelaySlottedNetwork against the plain loop.

    Returns True when the ratio stays under the gate.  With relaying
    off the wrapper must be provably inert: same slot records (held
    byte-identical by tests/relay/), and (checked here)
    indistinguishable wall time — the route-less network runs the base
    ``step()``, its seams each one falsy test, and no relay RNG stream
    is ever created.
    """
    sys.path.insert(0, os.path.join(repo_root(), "src"))
    from repro.core.network import NetworkConfig, SlottedNetwork
    from repro.relay import RelaySlottedNetwork

    periods = {f"tag{i}": p for i, p in enumerate((4, 8, 8, 16, 16, 32), start=1)}

    def build(relay: bool):
        config = NetworkConfig(seed=0, ideal_channel=True)
        if relay:
            return RelaySlottedNetwork(
                periods, config=config, relaying_enabled=False
            )
        return SlottedNetwork(periods, config=config)

    def one_run(relay: bool) -> float:
        net = build(relay)
        start = time.perf_counter()
        net.run(OVERHEAD_SLOTS)
        return time.perf_counter() - start

    # Warm both paths once, then interleave the timed repeats so
    # interpreter warm-up cannot bias whichever leg runs first.
    one_run(True)
    one_run(False)
    best = {True: float("inf"), False: float("inf")}
    for _ in range(OVERHEAD_REPEATS):
        for relay in (True, False):
            best[relay] = min(best[relay], one_run(relay))

    ratio = best[True] / best[False]
    ok = ratio <= MAX_RATIO_RELAY
    print(
        f"relay-off overhead over {OVERHEAD_SLOTS} slots: "
        f"{ratio:.2f}x vs plain SlottedNetwork "
        f"(gate {MAX_RATIO_RELAY}x) -> {'ok' if ok else 'FAIL'}"
    )
    return ok


def kernels_overhead_check() -> bool:
    """Time the waveform fast tier with compiled kernels forced off.

    Returns True when the kernels-off ms/slot stays within
    ``MAX_RATIO_KERNELS_OFF`` of the pre-kernel-tier baseline.  The
    numpy fallback *is* that baseline's code path, so this gate keeps
    the dispatch layer honest for environments with no C compiler: the
    escape hatch must not quietly cost the fallback
    anything.  Best-of-``KERNELS_OFF_REPEATS`` to shrug off scheduler
    noise.
    """
    sys.path.insert(0, os.path.join(repo_root(), "src"))
    from repro.core.network import NetworkConfig
    from repro.core.waveform_network import WaveformNetwork
    from repro.phy import cache as phy_cache
    from repro.phy import kernels

    periods = {"tag5": 4, "tag8": 4, "tag9": 8}

    best = float("inf")
    with kernels.use_kernels(False):
        for _ in range(KERNELS_OFF_REPEATS):
            phy_cache.clear_caches()
            with phy_cache.fast_path(True):
                net = WaveformNetwork(periods, config=NetworkConfig(seed=3))
                net.run(WAVEFORM_WARMUP_SLOTS)
                start = time.perf_counter()
                net.run(WAVEFORM_TIMED_SLOTS)
                elapsed = time.perf_counter() - start
            best = min(best, 1e3 * elapsed / WAVEFORM_TIMED_SLOTS)

    limit = KERNELS_OFF_BASELINE_MS_PER_SLOT * MAX_RATIO_KERNELS_OFF
    ok = best <= limit
    print(
        f"kernels-off waveform fast tier over {WAVEFORM_TIMED_SLOTS} slots: "
        f"{best:.2f} ms/slot vs {KERNELS_OFF_BASELINE_MS_PER_SLOT:.2f} "
        f"pre-kernel baseline (gate {limit:.2f} ms/slot) "
        f"-> {'ok' if ok else 'FAIL'}"
    )
    return ok


def waveform_snapshot(out_path: str) -> None:
    """Measure steady-state slots/s per fidelity tier into ``out_path``.

    Each waveform leg warms up for ``WAVEFORM_WARMUP_SLOTS`` slots (so
    template builds and grow-once buffers are amortised out, matching
    how long experiment runs behave) and then times
    ``WAVEFORM_TIMED_SLOTS`` slots.  The fast leg also records the
    template-cache hit rate over the timed window — a steady-state run
    should sit at (or very near) 1.0.
    """
    sys.path.insert(0, os.path.join(repo_root(), "src"))
    import json

    from repro import perf
    from repro.core.network import NetworkConfig, SlottedNetwork
    from repro.core.waveform_network import WaveformNetwork
    from repro.phy import cache as phy_cache
    from repro.phy import kernels

    periods = {"tag5": 4, "tag8": 4, "tag9": 8}

    def slot_tier() -> float:
        net = SlottedNetwork(
            {f"tag{i}": p for i, p in enumerate((4, 8, 8, 16, 16, 32), start=1)},
            config=NetworkConfig(seed=0, ideal_channel=True),
        )
        start = time.perf_counter()
        net.run(OVERHEAD_SLOTS)
        return OVERHEAD_SLOTS / (time.perf_counter() - start)

    def waveform_tier(fast: bool) -> dict:
        phy_cache.clear_caches()
        with phy_cache.fast_path(fast):
            net = WaveformNetwork(periods, config=NetworkConfig(seed=3))
            net.run(WAVEFORM_WARMUP_SLOTS)
            perf.reset()
            start = time.perf_counter()
            net.run(WAVEFORM_TIMED_SLOTS)
            elapsed = time.perf_counter() - start
            ratios = phy_cache.hit_ratios(perf.report()["counters"])
        tier = {
            "slots_per_s": WAVEFORM_TIMED_SLOTS / elapsed,
            "ms_per_slot": 1e3 * elapsed / WAVEFORM_TIMED_SLOTS,
        }
        if fast:
            tier["template_hit_rate"] = ratios["template"]["hit_ratio"]
        return tier

    snapshot = {
        "schema": WAVEFORM_SNAPSHOT_SCHEMA,
        "warmup_slots": WAVEFORM_WARMUP_SLOTS,
        "timed_slots": WAVEFORM_TIMED_SLOTS,
        "kernel_backend": kernels.backend(),
        "tiers": {
            "slot": {"slots_per_s": slot_tier()},
            "waveform_fast": waveform_tier(fast=True),
            "waveform_reference": waveform_tier(fast=False),
        },
    }
    with open(out_path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    tiers = snapshot["tiers"]
    print(
        "waveform snapshot: "
        f"kernels {snapshot['kernel_backend']}, "
        f"slot {tiers['slot']['slots_per_s']:.0f} slots/s, "
        f"fast {tiers['waveform_fast']['slots_per_s']:.1f} slots/s "
        f"({tiers['waveform_fast']['ms_per_slot']:.2f} ms/slot, "
        f"template hit rate {tiers['waveform_fast']['template_hit_rate']:.2f}), "
        f"reference {tiers['waveform_reference']['slots_per_s']:.1f} slots/s "
        f"({tiers['waveform_reference']['ms_per_slot']:.2f} ms/slot)"
    )
    print(f"wrote {out_path}")


def fleet_snapshot(out_path: str) -> None:
    """Measure the batch engine's aggregate tag-slots/s into ``out_path``.

    One leg per fleet width in ``FLEET_SIZES``: build a plain fleet of
    that many networks (seeds 0..N-1, the six-tag smoke topology, real
    channel), warm it up, then time ``FLEET_TIMED_SLOTS`` vectorised
    steps.  The sequential leg times one ``SlottedNetwork`` with the
    same topology and channel so the snapshot carries the speedup each
    width buys.
    """
    sys.path.insert(0, os.path.join(repo_root(), "src"))
    import json

    from repro.core.network import NetworkConfig, SlottedNetwork
    from repro.fleet import FleetEngine, specs_for_seeds

    periods = {f"tag{i}": p for i, p in enumerate((4, 8, 8, 16, 16, 32), start=1)}
    n_tags = len(periods)

    net = SlottedNetwork(periods, config=NetworkConfig(seed=0))
    start = time.perf_counter()
    net.run(FLEET_SEQUENTIAL_SLOTS)
    sequential = FLEET_SEQUENTIAL_SLOTS * n_tags / (time.perf_counter() - start)

    fleet: dict = {}
    for size in FLEET_SIZES:
        engine = FleetEngine(periods, specs_for_seeds(range(size)))
        for _ in range(FLEET_WARMUP_SLOTS):
            engine.step_all()
        start = time.perf_counter()
        for _ in range(FLEET_TIMED_SLOTS):
            engine.step_all()
        elapsed = time.perf_counter() - start
        rate = size * FLEET_TIMED_SLOTS * n_tags / elapsed
        fleet[str(size)] = {
            "tag_slots_per_s": rate,
            "speedup_vs_sequential": rate / sequential,
        }

    snapshot = {
        "schema": FLEET_SNAPSHOT_SCHEMA,
        "warmup_slots": FLEET_WARMUP_SLOTS,
        "timed_slots": FLEET_TIMED_SLOTS,
        "n_tags": n_tags,
        "sequential_tag_slots_per_s": sequential,
        "fleet": fleet,
    }
    with open(out_path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    curve = ", ".join(
        f"N={size} {fleet[str(size)]['tag_slots_per_s']:.0f} tag-slots/s "
        f"(x{fleet[str(size)]['speedup_vs_sequential']:.1f})"
        for size in FLEET_SIZES
    )
    print(f"fleet snapshot: sequential {sequential:.0f} tag-slots/s; {curve}")
    print(f"wrote {out_path}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark smoke subset into a JSON snapshot."
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="snapshot path (default: BENCH_<git-rev>.json in the repo root)",
    )
    parser.add_argument(
        "--skip-overhead-check",
        action="store_true",
        help="skip the resilience and telemetry overhead gates",
    )
    parser.add_argument(
        "--waveform-out",
        default=None,
        metavar="PATH",
        help="waveform-tier throughput snapshot path "
        "(default: BENCH_waveform.json in the repo root)",
    )
    parser.add_argument(
        "--waveform-only",
        action="store_true",
        help="emit only the waveform throughput snapshot (skips the "
        "pytest-benchmark run and the overhead gates); used by the "
        "advisory CI bench job",
    )
    parser.add_argument(
        "--multireader-only",
        action="store_true",
        help="run only the single-reader multireader overhead gate "
        "(skips everything else); used by the advisory CI figT job",
    )
    parser.add_argument(
        "--relay-only",
        action="store_true",
        help="run only the relay-off overhead gate (skips everything "
        "else); used by the advisory CI figM job",
    )
    parser.add_argument(
        "--kernels-only",
        action="store_true",
        help="run only the kernels-off overhead gate (waveform fast "
        "tier with REPRO_PHY_KERNELS forced off vs the pre-kernel "
        "baseline); used by the advisory CI kernels job",
    )
    parser.add_argument(
        "--fleet-out",
        default=None,
        metavar="PATH",
        help="fleet-tier throughput snapshot path "
        "(default: BENCH_fleet.json in the repo root)",
    )
    parser.add_argument(
        "--fleet-only",
        action="store_true",
        help="emit only the fleet throughput snapshot (skips everything "
        "else); used by the advisory CI bench-fleet job",
    )
    args = parser.parse_args(argv)

    root = repo_root()
    if args.multireader_only:
        return 0 if multireader_overhead_check() else 2
    if args.relay_only:
        return 0 if relay_overhead_check() else 2
    if args.kernels_only:
        return 0 if kernels_overhead_check() else 2
    if args.fleet_only:
        fleet_snapshot(args.fleet_out or os.path.join(root, "BENCH_fleet.json"))
        return 0
    waveform_out = args.waveform_out or os.path.join(root, "BENCH_waveform.json")
    waveform_snapshot(waveform_out)
    if args.waveform_only:
        return 0
    fleet_snapshot(args.fleet_out or os.path.join(root, "BENCH_fleet.json"))
    overhead_ok = True
    if not args.skip_overhead_check:
        overhead_ok = resilience_overhead_check()
        overhead_ok = telemetry_overhead_check() and overhead_ok
        overhead_ok = multireader_overhead_check() and overhead_ok
        overhead_ok = relay_overhead_check() and overhead_ok
    out = args.out or os.path.join(root, default_out())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *SMOKE_BENCHMARKS,
        "-q",
        f"--benchmark-json={out}",
    ]
    print("+", " ".join(cmd))
    proc = subprocess.run(cmd, cwd=root, env=env)
    if proc.returncode == 0:
        print(f"wrote {out}")
    if proc.returncode == 0 and not overhead_ok:
        return 2
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
