#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with a per-layer trace.

One workload, as the benchmark contract in ``BENCHMARK.json`` runs it
(the last stdout line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload waveform_steady --seed 3 \\
        --seconds 10 --trace 0

Every workload, untraced then traced, into a ledger (``bench-e2e/1``)::

    python3 benchmarks/e2e/run.py --out a.json

The harness check: scaled-down lengths, one traced cycle per workload::

    python3 benchmarks/e2e/run.py --smoke --out smoke.json

Compare two ledgers against the bounds in ``BENCHMARK.json``, and pool
two ledgers of the same code into a baseline::

    python3 benchmarks/e2e/run.py compare a.json b.json
    python3 benchmarks/e2e/run.py merge a.json b.json --out BENCH_e2e.json

Each workload runs in a fresh subprocess (this script with
``--worker``), so set-up time and peak memory are its own.  Exit
status: 0 on success, 1 on a failed check or regression, 2 on bad
input or a missing build.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

import workloads
from spans import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BASELINE = os.path.join(HERE, "BENCH_e2e.json")
SCHEMA = "bench-e2e/1"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 3

#: A single-workload run finishes within this many seconds.
RUN_DEADLINE_S = 170.0

#: Manifest fields two ledgers must share to be compared.
COMPARABLE = ("kernel_backend", "nproc", "numpy", "scipy")


class BenchError(RuntimeError):
    """A worker failed or an input file is unusable."""


def load_json(path: str) -> Dict[str, Any]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}")


def quartiles(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of ``samples``."""
    values = sorted(samples)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


# -- worker side --------------------------------------------------------------


def expected_digests(workload: str) -> Optional[Dict[str, Any]]:
    """Seed-0, full-length digests recorded in the baseline, if any."""
    if not os.path.exists(BASELINE):
        return None
    baseline = load_json(BASELINE)
    manifest = baseline.get("manifest", {})
    if manifest.get("seed") != 0 or manifest.get("lengths") != "full":
        return None
    return baseline.get("workloads", {}).get(workload, {}).get("digests")


def worker(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")
    expected = None
    if args.seed == 0 and not args.smoke:
        expected = expected_digests(args.workload)
    with contextlib.redirect_stdout(sys.stderr):
        result = workloads.measure(
            args.workload,
            args.seed,
            args.seconds,
            smoke=args.smoke,
            trace=bool(args.trace),
            setup_only=args.setup_only,
            expected=expected,
            spawned_at=args.spawned_at,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = {
        "repro": repro.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result))
    return 0


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    smoke: bool,
    trace: bool,
    deadline: float,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run :func:`worker` in a fresh interpreter and return its result."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--worker",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", "1" if trace else "0",
        "--spawned-at", repr(spawned_at),
    ]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- parent side ----------------------------------------------------------------


def git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(
    seed: int, seconds: float, smoke: bool, worker_result: Dict[str, Any]
) -> Dict[str, Any]:
    """What ran: code, libraries, machine, inputs."""
    versions = worker_result["versions"]
    return {
        "git_sha": git_sha(),
        "repro": versions["repro"],
        "kernel_backend": worker_result["kernel_backend"],
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed": "0",
        "seed": seed,
        "seconds": seconds,
        "lengths": "smoke" if smoke else "full",
    }


def unit_stats(result: Dict[str, Any]) -> Dict[str, Any]:
    """Attempted/failed counts and the first unit digests of a run."""
    units = result["units"]
    failed = sum(u["failed"] for u in units)
    return {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "error_rate": failed / len(units),
        "digests": {
            "setup": result["setup_digest"],
            "units": [u["digest"] for u in units[: workloads.MIN_UNITS]],
        },
    }


def untraced_entry(
    name: str, seed: int, seconds: float, smoke: bool, deadline: float
) -> Dict[str, Any]:
    """Set up ``SETUP_RUNS`` times, the last time followed by the
    measured units; return end-to-end metrics and details."""
    setups = [
        spawn(name, seed, seconds, smoke, False, deadline, setup_only=True)
        for _ in range(SETUP_RUNS - 1)
    ]
    result = spawn(name, seed, seconds, smoke, False, deadline)
    entry = unit_stats(result)
    if any(s["setup_digest"] != result["setup_digest"] for s in setups):
        # The state every unit starts from did not reproduce.
        entry.update(correct=False, failed=entry["attempted"], error_rate=1.0)
    timed = [u for u in result["units"] if u["wall_s"] > 0]
    if not timed:
        raise BenchError(f"{name}: no unit completed")
    raw = [u["slots"] / u["wall_s"] for u in timed]
    rates = [u["slots"] / u["ref_s"] for u in timed]
    entry["end_to_end"] = {
        "setup_s": quartiles([s["setup_ref_s"] for s in setups + [result]]),
        "peak_rss_mb": quartiles([result["peak_rss_mb"]]),
        "slots_per_s": quartiles(rates),
    }
    detail: Dict[str, Any] = {
        "raw_setup_s": quartiles([s["setup_s"] for s in setups + [result]]),
        "raw_slots_per_s": quartiles(raw),
        # Wall seconds per reference second: how slow the CPU ran.
        "cpu_slowdown": sum(u["wall_s"] for u in timed)
        / sum(u["ref_s"] for u in timed),
        "unit_wall_s": quartiles([u["wall_s"] for u in timed]),
        "slots_per_unit": timed[0]["slots"],
        "decode_ratio": result["decode_ratio"],
    }
    n_tags = workloads.WORKLOADS[name].n_tags
    if n_tags:
        detail["tag_slots_per_s"] = quartiles([r * n_tags for r in rates])
    if "slot_s" in result:
        detail["slot_p50_ms"] = 1e3 * result["slot_s"]["p50"]
        detail["slot_p99_ms"] = 1e3 * result["slot_s"]["p99"]
        detail["slot_samples"] = result["slot_s"]["n"]
    entry["detail"] = detail
    entry["_worker"] = result
    return entry


def traced_entry(
    name: str, seed: int, seconds: float, smoke: bool, deadline: float
) -> Dict[str, Any]:
    """One traced run: per-layer metrics and the span ledger."""
    result = spawn(name, seed, seconds, smoke, True, deadline)
    trace = result["trace"]
    entry = unit_stats(result)
    values: Dict[str, float] = dict(trace["derived"])
    for span, layer in trace["layers"].items():
        values[f"{span}.share"] = layer["share"]
        values[f"{span}.calls"] = layer["calls"]
    values["core.decode_ratio"] = result["decode_ratio"]
    slot_s = result.get("slot_s", {})
    values["slot_p50_ms"] = 1e3 * slot_s.get("p50", 0.0)
    values["slot_p99_ms"] = 1e3 * slot_s.get("p99", 0.0)
    entry["per_layer_values"] = values
    entry["layers"] = trace["layers"]
    entry["traced_digests"] = trace["traced_digests"]
    if "figures_jobs2_s" in trace:
        entry["detail"] = {"figures_jobs2_s": trace["figures_jobs2_s"]}
    entry["_worker"] = result
    return entry


def pick(
    values: Dict[str, Any], specs: Sequence[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """The metrics ``BENCHMARK.json`` declares, with their units.

    A value is a number or a :func:`quartiles` summary of samples.
    """
    out = {}
    for spec in specs:
        if spec["name"] not in values:
            raise BenchError(f"no value for declared metric {spec['name']}")
        value = values[spec["name"]]
        out[spec["name"]] = {
            "value": value["value"] if isinstance(value, dict) else value,
            "unit": spec["unit"],
        }
    return out


def print_metrics(
    name: str, metrics: Dict[str, Dict[str, Any]], stats: Dict[str, Any]
) -> None:
    for metric, m in metrics.items():
        extra = ""
        s = stats.get(metric)
        if isinstance(s, dict) and "n" in s:
            extra = f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}{extra}")


def run_one(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    """The contract entry point: one workload, one JSON line."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    run = (args.workload, args.seed, args.seconds, args.smoke, deadline)
    if args.trace:
        entry = traced_entry(*run)
        metrics = pick(entry["per_layer_values"], benchmark["per_layer"])
        stats: Dict[str, Any] = {}
    else:
        entry = untraced_entry(*run)
        metrics = pick(entry["end_to_end"], benchmark["end_to_end"])
        stats = entry["end_to_end"]
    worker_result = entry["_worker"]
    print(
        "manifest "
        + json.dumps(manifest(args.seed, args.seconds, args.smoke, worker_result))
    )
    print_metrics(args.workload, metrics, stats)
    if args.out:
        write_ledger(args.out, args, {args.workload: entry}, worker_result, benchmark)
    print(
        json.dumps(
            {
                "correct": entry["correct"],
                "attempted": entry["attempted"],
                "failed": entry["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def ledger_entry(entry: Dict[str, Any], benchmark: Dict[str, Any]) -> Dict[str, Any]:
    out = {
        k: v
        for k, v in entry.items()
        if not k.startswith("_") and k != "per_layer_values"
    }
    if "per_layer_values" in entry:
        out["per_layer"] = pick(entry["per_layer_values"], benchmark["per_layer"])
    return out


def write_ledger(
    path: str,
    args: argparse.Namespace,
    entries: Dict[str, Dict[str, Any]],
    worker_result: Dict[str, Any],
    benchmark: Dict[str, Any],
) -> None:
    ledger = {
        "schema": SCHEMA,
        "manifest": manifest(args.seed, args.seconds, args.smoke, worker_result),
        "workloads": {name: ledger_entry(e, benchmark) for name, e in entries.items()},
    }
    with open(path, "w") as fh:
        json.dump(ledger, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_all(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    """Every workload: untraced then traced (smoke: traced only)."""
    deadline = time.monotonic() + 3600.0
    entries: Dict[str, Dict[str, Any]] = {}
    for name in workloads.WORKLOADS:
        traced = traced_entry(name, args.seed, args.seconds, args.smoke, deadline)
        if args.smoke:
            entry = traced
        else:
            entry = untraced_entry(name, args.seed, args.seconds, args.smoke, deadline)
            # Same inputs in another process: the traced run's untraced
            # lane must reproduce the untraced run's digests.
            a, b = entry["digests"], traced["digests"]
            n = min(len(a["units"]), len(b["units"]))
            reproduced = a["setup"] == b["setup"] and a["units"][:n] == b["units"][:n]
            entry["correct"] = entry["correct"] and traced["correct"] and reproduced
            entry["detail"].update(traced.get("detail", {}))
            for key in ("per_layer_values", "layers", "traced_digests"):
                entry[key] = traced[key]
            entry["trace_attempted"] = traced["attempted"]
            entry["trace_failed"] = traced["failed"]
        entries[name] = entry
        if "end_to_end" in entry:
            e2e = entry["end_to_end"]
            print_metrics(name, pick(e2e, benchmark["end_to_end"]), e2e)
        values = entry["per_layer_values"]
        top = sorted(
            (s for s in SPAN_NAMES if values[f"{s}.share"] > 0.01),
            key=lambda s: -values[f"{s}.share"],
        )
        print(
            f"{name} correct={entry['correct']} "
            f"unattributed={values['unattributed.share']:.3f} "
            f"trace.overhead={values['trace.overhead']:.2f} layers: "
            + ", ".join(f"{s} {values[s + '.share']:.2f}" for s in top)
        )
    first = next(iter(entries.values()))["_worker"]
    if args.out:
        write_ledger(args.out, args, entries, first, benchmark)
        print(f"wrote {args.out}")
    return 0 if all(e["correct"] for e in entries.values()) else 1


# -- compare / merge --------------------------------------------------------------


def compare(a_path: str, b_path: str, benchmark: Dict[str, Any]) -> int:
    """Diff every (end-to-end metric, workload) pair of B against A."""
    a, b = load_json(a_path), load_json(b_path)
    for doc, path in ((a, a_path), (b, b_path)):
        if doc.get("schema") != SCHEMA:
            raise BenchError(f"{path} is not a {SCHEMA} ledger")
    differ = [k for k in COMPARABLE if a["manifest"].get(k) != b["manifest"].get(k)]
    if differ:
        print(
            "refusing to compare: manifests differ on "
            + ", ".join(
                f"{k} ({a['manifest'].get(k)} vs {b['manifest'].get(k)})"
                for k in differ
            )
        )
        return 2
    bad = 0
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for spec in benchmark["end_to_end"]:
            ma = wa.get("end_to_end", {}).get(spec["name"])
            mb = wb.get("end_to_end", {}).get(spec["name"])
            if ma is None or mb is None:
                continue
            verdict, change = judge(ma, mb, spec)
            bad += verdict == "REGRESSION"
            print(
                f"{name:22s} {spec['name']:12s} {ma['value']:12.6g} -> "
                f"{mb['value']:12.6g} {spec['unit']:6s} {change:+7.1%} "
                f"(bound {spec['bound']:.0%}) {verdict}"
            )
        if wa.get("failed") or wb.get("failed"):
            bad += 1
            print(f"{name:22s} failed units: {wa.get('failed')} vs {wb.get('failed')}")
        same_inputs = all(
            a["manifest"].get(k) == b["manifest"].get(k) for k in ("seed", "lengths")
        )
        if same_inputs and wa.get("digests") != wb.get("digests"):
            bad += 1
            print(f"{name:22s} DIGESTS DIFFER")
        spans = set(wa.get("layers", {})) & set(wb.get("layers", {}))
        if spans:
            moved = {
                s: wb["layers"][s]["self_s"] - wa["layers"][s]["self_s"] for s in spans
            }
            span = max(sorted(spans), key=lambda s: abs(moved[s]))
            print(
                f"{name:22s} largest self-time move: {span} "
                f"{1e3 * moved[span]:+.3f} ms per unit"
            )
    return 1 if bad else 0


def judge(ma: Dict[str, Any], mb: Dict[str, Any], spec: Dict[str, Any]):
    """Verdict on one pair: ``same``, ``better``, ``REGRESSION`` or
    ``unresolved`` (spread wider than the bound, and the two sample
    sets overlap)."""
    change = (mb["value"] - ma["value"]) / ma["value"]
    worse = change if spec["better"] == "lower" else -change
    spread = max(
        (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0 for m in (ma, mb)
    )
    if spread > spec["bound"]:
        lower = spec["better"] == "lower"
        if (max(mb["samples"]) < min(ma["samples"])) if lower else (
            min(mb["samples"]) > max(ma["samples"])
        ):
            return "better", change
        return "unresolved", change
    if worse > spec["bound"]:
        return "REGRESSION", change
    return ("better" if worse < -spec["bound"] else "same"), change


def merge(paths: Sequence[str], out: str) -> int:
    """Pool ledgers of the same code and inputs into one baseline."""
    docs = [load_json(p) for p in paths]
    first = docs[0]
    for doc, path in zip(docs[1:], paths[1:]):
        for key in COMPARABLE + ("seed", "lengths", "git_sha"):
            if doc["manifest"].get(key) != first["manifest"].get(key):
                raise BenchError(f"{path}: manifest {key} differs; not the same run")
        if set(doc["workloads"]) != set(first["workloads"]):
            raise BenchError(f"{path}: covers other workloads")
        for name, w in doc["workloads"].items():
            if w.get("digests") != first["workloads"][name].get("digests"):
                raise BenchError(f"{path}: {name} digests differ")
    merged = json.loads(json.dumps(first))
    merged["manifest"]["sets"] = len(docs)
    for name, w in merged["workloads"].items():
        ws = [d["workloads"][name] for d in docs]
        for metric in w.get("end_to_end", {}):
            samples = [s for x in ws for s in x["end_to_end"][metric]["samples"]]
            w["end_to_end"][metric] = quartiles(samples)
        for metric, m in w.get("per_layer", {}).items():
            m["value"] = statistics.fmean(x["per_layer"][metric]["value"] for x in ws)
        for span, layer in w.get("layers", {}).items():
            for key in layer:
                layer[key] = statistics.fmean(x["layers"][span][key] for x in ws)
        for key in ("attempted", "failed"):
            w[key] = sum(x[key] for x in ws)
        w["error_rate"] = w["failed"] / w["attempted"]
        w["correct"] = all(x["correct"] for x in ws)
    with open(out, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} from {len(docs)} ledgers")
    return 0


# -- CLI ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measuring time per run (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the bench-e2e/1 ledger here")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down lengths, one unit or traced cycle",
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv[:1] in (["compare"], ["merge"]):
            sub = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
            sub.add_argument("ledgers", nargs=2)
            sub.add_argument("--out")
            opts = sub.parse_args(argv[1:])
            if argv[0] == "compare":
                return compare(*opts.ledgers, load_json(BENCHMARK_JSON))
            if not opts.out:
                sub.error("merge needs --out")
            return merge(opts.ledgers, opts.out)
        args = build_parser().parse_args(argv)
        if args.worker:
            return worker(args)
        if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
            raise BenchError(f"no repro sources under {SRC}")
        benchmark = load_json(BENCHMARK_JSON)
        if args.seconds is None:
            args.seconds = 0.0 if args.smoke else float(benchmark["run_seconds"])
        if args.workload:
            return run_one(args, benchmark)
        return run_all(args, benchmark)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
