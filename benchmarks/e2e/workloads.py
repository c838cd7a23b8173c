"""Workloads of the end-to-end benchmark and the loop that measures them.

Every workload is a closed loop with one caller: the next unit of work
starts when the previous one returns.  A unit is what a user waits
for -- one results document, one window of waveform slots, one fleet
sweep -- and its inputs are a pure function of the seed and the length
preset (``full`` for measurement, ``smoke`` for the harness tests).

:func:`measure` runs one workload in the calling process: set-up, then
units until ``seconds`` have passed.  With ``trace=True`` it alternates
an untraced unit with a traced one (see :mod:`spans`) and checks that
both give the same digest.  ``run.py`` runs it in a fresh subprocess
per workload and turns its result into metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
import traceback
import weakref
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from spans import SPANS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: Units a full-length run completes, however short ``seconds`` is.
MIN_UNITS = 3

#: Iterations of the CPU-speed probe, and the probe's time on an idle
#: core of the 2-vCPU container the baseline was measured on.
PROBE_LOOPS = 100_000
PROBE_REF_S = 1.475e-3
_PROBE_DATA = (1,) * PROBE_LOOPS

#: Least wall time between two probes inside one unit.
TICK_S = 0.1


def probe_s() -> float:
    """Time a fixed pure-Python loop: how fast this CPU runs right now.

    The loop allocates nothing, so it cannot set off a garbage
    collection whose cost would depend on the workload's heap.
    """
    start = time.perf_counter()
    bit = 0
    for one in _PROBE_DATA:
        bit ^= one
    return time.perf_counter() - start


class RefTimer:
    """Wall time, and the same time at the reference CPU speed.

    Neighbouring load on a shared host slows the same code by up to
    ~1.7x for seconds at a time.  The timer probes the CPU when it
    starts, on each :meth:`tick` at least ``TICK_S`` after the last
    probe, and when it stops; each stretch between two probes counts
    ``PROBE_REF_S / mean(probe times)`` reference seconds per wall
    second, so work over reference time tracks the code, not the
    neighbours.  Probe time counts in neither total.  ``since`` (a
    ``time.monotonic()`` value) backdates the start, at the first
    probe's speed.  With ``probing`` off both totals are wall time.
    """

    def __init__(self, probing: bool = True, since: Optional[float] = None) -> None:
        self.probing = probing
        self.wall_s = 0.0
        self.ref_s = 0.0
        begun = time.monotonic()
        self._probe = probe_s() if probing else PROBE_REF_S
        if since is not None:
            self._add(begun - since, self._probe)
        self._since = time.monotonic()

    def _add(self, stretch: float, probe: float) -> None:
        self.wall_s += stretch
        self.ref_s += stretch * 2 * PROBE_REF_S / (self._probe + probe)

    def tick(self, final: bool = False) -> None:
        now = time.monotonic()
        if not final and (not self.probing or now - self._since < TICK_S):
            return
        probe = probe_s() if self.probing else PROBE_REF_S
        self._add(now - self._since, probe)
        self._probe = probe
        self._since = time.monotonic()

    def stop(self) -> "RefTimer":
        self.tick(final=True)
        return self


def digest(payload: Any) -> str:
    """SHA-256 of a canonical JSON rendering."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Unit:
    """One unit of work as measured."""

    wall_s: float
    #: ``wall_s`` at the reference CPU speed (see :class:`RefTimer`).
    ref_s: float
    #: Simulated network slots (the work count throughput divides by).
    slots: int
    digest: str
    #: The output's own invariants held.
    ok: bool = True
    decoded: int = 0
    nonempty: int = 0
    #: Per-slot wall times, where the benchmark steps slots itself.
    slot_s: List[float] = field(default_factory=list)
    raised: bool = False


class Workload:
    """Inputs from ``(seed, lengths)``; ``setup`` once, then ``unit``s.

    A *replayable* workload's units repeat the same work and must give
    the same digest; a continuing one's units are successive windows
    on state that set-up built.  ``lanes`` identical copies of that
    state let a traced unit repeat exactly what an untraced one ran.
    """

    name = ""
    why = ""
    replayable = True
    #: Tags per network, where every network has the same roster.
    n_tags: Optional[int] = None
    LENGTHS: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, lengths: Dict[str, Any], probing: bool) -> None:
        self.seed = seed
        self.lengths = lengths
        self.probing = probing
        #: Timer of the set-up or unit in progress.  Ticked at natural
        #: boundaries (slots, network and engine construction), so CPU
        #: probes land inside long stretches too.
        self.timer: Optional[RefTimer] = None
        self._undo: List[Callable[[], None]] = []

    def setup(self, lanes: int) -> Optional[str]:
        """Build and warm up; returns a digest of any warm-up output."""
        raise NotImplementedError

    def unit(self, lane: int) -> Unit:
        raise NotImplementedError

    def trace_extra(self) -> Optional[Dict[str, Any]]:
        """Untraced variant of a unit, run once per traced cycle."""
        return None

    def tick(self) -> None:
        if self.timer is not None:
            self.timer.tick()

    @contextmanager
    def timed(self) -> Iterator[RefTimer]:
        self.timer = RefTimer(self.probing)
        try:
            yield self.timer
        finally:
            self.timer.stop()
            self.timer = None

    def after_init(self, cls: Any, callback: Callable[[Any], None]) -> None:
        """Call ``callback(obj)`` after every ``cls(...)`` until close."""
        init = cls.__init__

        def init_then_callback(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            callback(obj)

        cls.__init__ = init_then_callback
        self._undo.append(lambda: setattr(cls, "__init__", init))

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- paper figures -----------------------------------------------------------


class PaperFigures(Workload):
    """``collect_results(seed, quick=False, checkpoint=...)``: the path
    ``repro results --full --out`` takes, serially."""

    name = "paper_figures"
    why = (
        "every paper figure serially, as repro results --full; "
        "MAC-bound (slot loop, tag and reader MAC, supervisor), no DSP"
    )
    LENGTHS = {"full": {"quick": False}, "smoke": {"quick": True}}

    #: Keys every results document carries.
    DOCUMENT_KEYS = (
        "table2_power_uw",
        "fig11",
        "fig12_snr_db",
        "fig13_loss_per_1k",
        "fig14",
        "fig15_median_slots",
        "fig16",
        "fig17_correlations",
        "fig19",
        "figS",
    )

    def setup(self, lanes: int) -> Optional[str]:
        import importlib

        from repro.core.network import SlottedNetwork
        from repro.experiments import runner

        self.runner = runner
        # The runner's jobs import their figure modules lazily; import
        # them here so the first document does not pay for it.
        for span, module, _ in SPANS:
            if span.startswith("experiments."):
                importlib.import_module(module)
        # Every network hands its slot log to _finished when it is
        # collected, so a unit can count the slots it ran: one
        # weakref.finalize per network, nothing per slot.
        self._finished: List[list] = []
        self.after_init(SlottedNetwork, self._network_built)
        # Runner checkpoints go to scratch space inside the checkout.
        self.work_dir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
        self._undo.append(lambda: shutil.rmtree(self.work_dir, ignore_errors=True))
        self.checkpoint = os.path.join(self.work_dir, "results.ckpt")
        return None

    def _network_built(self, net: Any) -> None:
        weakref.finalize(net, self._finished.append, net.records)
        self.tick()

    def _document(self, jobs: int = 1, perf: bool = False) -> Tuple[RefTimer, dict]:
        with self.timed() as timer:
            doc = self.runner.collect_results(
                seed=self.seed,
                quick=self.lengths["quick"],
                jobs=jobs,
                perf=perf,
                checkpoint=self.checkpoint,
            )
        return timer, doc

    def unit(self, lane: int) -> Unit:
        timer, doc = self._document()
        gc.collect()
        records = [r for log in self._finished for r in log]
        self._finished.clear()
        return Unit(
            wall_s=timer.wall_s,
            ref_s=timer.ref_s,
            slots=len(records),
            digest=digest(doc),
            ok=all(key in doc for key in self.DOCUMENT_KEYS)
            and doc["seed"] == self.seed,
            decoded=sum(r.decoded is not None for r in records),
            nonempty=sum(r.n_transmitters > 0 for r in records),
        )

    def trace_extra(self) -> Dict[str, Any]:
        """The same document on a two-worker pool."""
        timer, doc = self._document(jobs=2, perf=True)
        # Collect the finished pool now: left for interpreter exit, its
        # manager thread's closed wake-up pipe makes Python 3.11 print a
        # spurious "Bad file descriptor" traceback.
        gc.collect()
        perf = doc.pop("perf")
        longest = max(perf["experiment_wall_s"].values())
        return {
            "digest": digest(doc),
            "figures_jobs2_s": timer.wall_s,
            "pool_overhead_s": timer.wall_s - longest,
        }


# -- waveform tier -----------------------------------------------------------

#: Eight tags, two per period class: 15/16 of the slot grid is used.
WAVEFORM_PERIODS = {
    "tag1": 4,
    "tag4": 4,
    "tag5": 8,
    "tag8": 8,
    "tag9": 16,
    "tag11": 16,
    "tag12": 32,
    "tag3": 32,
}


class WaveformSteady(Workload):
    """``WaveformNetwork`` on the FM0 template fast path, no faults."""

    name = "waveform_steady"
    why = (
        "8-tag WaveformNetwork on the FM0 fast path in steady state; "
        "DSP-bound (IQ clustering, decode, templates) with warm caches"
    )
    replayable = False
    n_tags = len(WAVEFORM_PERIODS)
    LENGTHS = {
        "full": {"warmup": 200, "window": 128},
        "smoke": {"warmup": 20, "window": 32},
    }

    def network(self, seed: int) -> Any:
        from repro.core.network import NetworkConfig
        from repro.core.waveform_network import WaveformNetwork

        return WaveformNetwork(WAVEFORM_PERIODS, config=NetworkConfig(seed=seed))

    def setup(self, lanes: int) -> Optional[str]:
        warmup = self.lengths["warmup"]
        # The synthesis caches grow by doubling in the order slots
        # request them, which the seed decides; a seed-0 warm-up first
        # sizes them the same way for every seed, so peak memory
        # measures the code rather than the seed's transmission order.
        self._step(self.network(0), warmup)
        # Lanes are identical networks: a traced lane repeats exactly
        # the slots an untraced lane ran, so their digests must agree.
        self.lanes = [self.network(self.seed) for _ in range(lanes)]
        digests = set()
        for net in self.lanes:
            self._step(net, warmup)
            digests.add(self._check(net, warmup)[0])
        if len(digests) != 1:
            raise RuntimeError("identical waveform networks diverged in warm-up")
        return digests.pop()

    def _step(self, net: Any, n_slots: int) -> List[float]:
        """Step ``n_slots`` slots; returns each slot's wall time."""
        clock = time.perf_counter
        slot_s = []
        for _ in range(n_slots):
            start = clock()
            net.step()
            slot_s.append(clock() - start)
            self.tick()
        return slot_s

    def _check(self, net: Any, n_slots: int) -> Tuple[str, bool]:
        """Digest of the last ``n_slots`` slots, and whether every
        decoded tag was one of the slot's transmitters."""
        records = net.records[-n_slots:]
        logs = net.slot_logs[-n_slots:]
        ok = len(records) == len(logs) == n_slots and all(
            r.decoded is None or r.decoded in log.transmitters
            for r, log in zip(records, logs)
        )
        return digest([[asdict(r), asdict(log)] for r, log in zip(records, logs)]), ok

    def unit(self, lane: int) -> Unit:
        net = self.lanes[lane]
        window = self.lengths["window"]
        with self.timed() as timer:
            slot_s = self._step(net, window)
        window_digest, ok = self._check(net, window)
        records = net.records[-window:]
        return Unit(
            wall_s=timer.wall_s,
            ref_s=timer.ref_s,
            slots=window,
            digest=window_digest,
            ok=ok,
            decoded=sum(r.decoded is not None for r in records),
            nonempty=sum(r.n_transmitters > 0 for r in records),
            slot_s=slot_s,
        )


class WaveformAdaptiveMix(WaveformSteady):
    """The same network with chirp-OOK and FSK uplinks and live faults."""

    name = "waveform_adaptive_mix"
    why = (
        "same topology with 2 chirp-OOK and 2 FSK tags under bit-flip, "
        "attenuation, noise and restart faults; demodulator-bound"
    )
    # The fault schedule covers more slots than any run reaches, so its
    # density does not depend on how long a run measures.
    LENGTHS = {
        "full": {"warmup": 50, "window": 32, "horizon": 8192},
        "smoke": {"warmup": 10, "window": 16, "horizon": 512},
    }
    FAULT_KINDS = ("bit_flip", "attenuation", "noise_burst", "reader_restart")

    def network(self, seed: int) -> Any:
        from repro.core.network import NetworkConfig
        from repro.core.waveform_network import WaveformNetwork
        from repro.faults.schedule import FaultSchedule
        from repro.phy.modulation import LinkConfig

        plan = {
            "tag1": LinkConfig("cook", 3000.0),
            "tag5": LinkConfig("cook", 1500.0),
            "tag9": LinkConfig("fsk", 125.0),
            "tag12": LinkConfig("fsk", 250.0),
        }
        horizon = self.lengths["horizon"]
        faults = FaultSchedule.generate(
            seed,
            horizon,
            sorted(WAVEFORM_PERIODS),
            kinds=self.FAULT_KINDS,
            n_faults=horizon // 25,
            max_duration=8,
        )
        return WaveformNetwork(
            WAVEFORM_PERIODS,
            config=NetworkConfig(seed=seed),
            faults=faults,
            uplink_plan=plan,
        )

    def unit(self, lane: int) -> Unit:
        slots_after = len(self.lanes[lane].records) + self.lengths["window"]
        if slots_after > self.lengths["horizon"]:
            raise RuntimeError("run outlasted the fault schedule's horizon")
        return super().unit(lane)


# -- fleet tier --------------------------------------------------------------

#: The six-tag smoke topology every fleet benchmark uses.
FLEET_PERIODS = {f"tag{i}": p for i, p in enumerate((4, 8, 8, 16, 16, 32), start=1)}


class FleetSweep(Workload):
    """``FleetRunner`` over a contiguous block of network seeds, serial."""

    name = "fleet_sweep"
    why = (
        "FleetRunner sweep of 1024 six-tag networks x 512 slots, serial; "
        "fleet-bound (batch step, summaries, engine build), no scalar MAC"
    )
    n_tags = len(FLEET_PERIODS)
    LENGTHS = {
        "full": {"networks": 1024, "slots": 512, "shard_size": 256},
        "smoke": {"networks": 64, "slots": 64, "shard_size": 32},
    }

    def setup(self, lanes: int) -> Optional[str]:
        from repro.experiments.runner import FleetRunner
        from repro.fleet import FleetEngine

        # Each shard builds one engine: probe there as well.
        self.after_init(FleetEngine, lambda engine: self.tick())
        lengths = self.lengths
        seeds = list(range(self.seed, self.seed + lengths["networks"]))
        self.runner = FleetRunner(
            FLEET_PERIODS, seeds, lengths["slots"], shard_size=lengths["shard_size"]
        )
        warm = FleetRunner(FLEET_PERIODS, seeds[:16], 64, shard_size=16)
        return digest(warm.run())

    def unit(self, lane: int) -> Unit:
        with self.timed() as timer:
            doc = self.runner.run()
        agg = doc["aggregate"]
        slots = doc["n_networks"] * doc["n_slots"]
        return Unit(
            wall_s=timer.wall_s,
            ref_s=timer.ref_s,
            slots=slots,
            digest=digest(doc),
            ok=agg["tag_slots"] == slots * self.n_tags,
            decoded=agg["decodes"],
            nonempty=slots - agg["idle_slots"],
        )


WORKLOADS = {
    cls.name: cls
    for cls in (PaperFigures, WaveformSteady, WaveformAdaptiveMix, FleetSweep)
}


# -- measurement -------------------------------------------------------------


def mark_failures(
    units: Sequence[Unit],
    replayable: bool,
    setup_digest: Optional[str],
    expected: Optional[Dict[str, Any]],
) -> List[bool]:
    """Which units failed their output checks.

    A unit fails when it raised or its own invariants broke.  A
    replayable unit repeats the same work, so it also fails when its
    digest or slot count differs from its siblings' most common one,
    or its digest from the expected one (seed 0).  A window of a
    continuing workload runs on the state every earlier window left,
    so once the set-up or a window differs from the expected digests,
    it and every later window fail.
    """
    failed = [not u.ok for u in units]
    if replayable:
        keys = [(u.digest, u.slots) for u in units]
        common = max(set(keys), key=keys.count)
        want = expected["units"][0] if expected else common[0]
        return [
            f or k != common or k[0] != want for f, k in zip(failed, keys)
        ]
    if not expected:
        return failed
    broken = setup_digest != expected["setup"]
    out = []
    for k, (f, u) in enumerate(zip(failed, units)):
        if k < len(expected["units"]) and u.digest != expected["units"][k]:
            broken = True
        out.append(f or broken)
    return out


def measure(
    name: str,
    seed: int,
    seconds: float,
    smoke: bool = False,
    trace: bool = False,
    setup_only: bool = False,
    expected: Optional[Dict[str, Any]] = None,
    spawned_at: Optional[float] = None,
) -> Dict[str, Any]:
    """Set up and measure one workload in this process.

    ``spawned_at`` is the ``time.monotonic()`` at which the caller
    spawned this process; set-up time runs from then to the first
    timed unit.  ``expected`` holds seed-0 digests
    (``{"setup": ..., "units": [...]}``).  A smoke run uses the
    scaled-down lengths and stops after one unit (one traced cycle).
    """
    if spawned_at is None:
        spawned_at = time.monotonic()
    cls = WORKLOADS[name]
    lengths = cls.LENGTHS["smoke" if smoke else "full"]
    min_units = 1 if smoke else MIN_UNITS
    # Trace runs time plain wall clock: a probe inside a traced unit
    # would count as span time.
    workload = cls(seed, lengths, probing=not trace)
    try:
        workload.timer = RefTimer(workload.probing, since=spawned_at)
        from repro.phy import kernels

        backend = kernels.backend()
        workload.tick()
        setup_digest = workload.setup(2 if trace else 1)
        setup = workload.timer.stop()
        workload.timer = None
        result: Dict[str, Any] = {
            "workload": name,
            "lengths": lengths,
            "setup_s": time.monotonic() - spawned_at,
            "setup_ref_s": setup.ref_s,
            "setup_digest": setup_digest,
            "kernel_backend": backend,
        }
        if setup_only:
            return result
        if trace:
            units, result["trace"] = _measure_traced(workload, seconds)
        else:
            units = _measure_units(workload, seconds, min_units)
        failed = mark_failures(units, cls.replayable, setup_digest, expected)
        result["units"] = [
            {
                "wall_s": u.wall_s,
                "ref_s": u.ref_s,
                "slots": u.slots,
                "digest": u.digest,
                "failed": f,
            }
            for u, f in zip(units, failed)
        ]
        slot_s = sorted(s for u in units for s in u.slot_s)
        if slot_s:
            result["slot_s"] = {
                "p50": _quantile(slot_s, 0.50),
                "p99": _quantile(slot_s, 0.99),
                "n": len(slot_s),
            }
        result["decode_ratio"] = _ratio(
            sum(u.decoded for u in units), sum(u.nonempty for u in units)
        )
        return result
    finally:
        workload.close()


def _quantile(ordered: Sequence[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _attempt(workload: Any, lane: int) -> Unit:
    """Run one unit; a unit that raises counts as failed."""
    try:
        return workload.unit(lane)
    except Exception:
        traceback.print_exc()
        return Unit(wall_s=0.0, ref_s=0.0, slots=0, digest="", ok=False, raised=True)


def _within(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, as long as the average so far, still
    ends within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def _measure_units(workload: Any, seconds: float, min_units: int) -> List[Unit]:
    units: List[Unit] = []
    start = time.perf_counter()
    while len(units) < min_units or _within(start, len(units), seconds):
        units.append(_attempt(workload, 0))
        if units[-1].raised:
            break  # later units would run on whatever state it left
    return units


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing completed."""
    return part / whole if whole else 0.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def _counters() -> Dict[str, int]:
    from repro import perf

    return dict(perf.report()["counters"])


def _measure_traced(
    workload: Any, seconds: float
) -> Tuple[List[Unit], Dict[str, Any]]:
    """Alternate untraced (lane 0) and traced (lane 1) units.

    Returns the untraced units -- each marked failed unless its traced
    twin (and the workload's extra untraced variant, if any) gave the
    same digest -- and the trace: per-span sums of the traced units
    plus the derived ratios.
    """
    tracer = Tracer()
    plain: List[Unit] = []
    traced: List[Unit] = []
    extras: List[Dict[str, Any]] = []
    cpu_s = wall_s = 0.0
    counters_before = _counters()
    start = time.perf_counter()
    while not traced or _within(start, len(traced), seconds):
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        a = _attempt(workload, 0)
        cpu_s += _cpu_s() - cpu0
        wall_s += time.perf_counter() - wall0
        tracer.install()
        try:
            b = _attempt(workload, 1)
        finally:
            tracer.uninstall()
        a.ok = a.ok and b.ok and b.digest == a.digest
        try:
            extra = workload.trace_extra()
        except Exception:
            traceback.print_exc()
            a.ok = False
        else:
            if extra is not None:
                extras.append(extra)
                a.ok = a.ok and extra["digest"] == a.digest
        plain.append(a)
        traced.append(b)
        if not a.ok:
            break
    counters = _counters()
    delta = {k: v - counters_before.get(k, 0) for k, v in counters.items()}

    from repro.phy import cache as phy_cache

    traced_wall = sum(u.wall_s for u in traced)
    spans = tracer.snapshot()
    n = len(traced)
    template = phy_cache.hit_ratios(delta).get("template")
    demod = spans["phy.rx.demod"]
    trace: Dict[str, Any] = {
        "units": n,
        "layers": {
            span: {
                "calls": s["calls"] / n,
                "self_s": s["self_s"] / n,
                "share": _ratio(s["self_s"], traced_wall),
            }
            for span, s in spans.items()
        },
        "derived": {
            "unattributed.share": 1.0 - _ratio(tracer.covered_s, traced_wall),
            "trace.overhead": _ratio(
                statistics.median(u.wall_s for u in traced),
                statistics.median(u.wall_s for u in plain),
            )
            - 1.0,
            "experiments.runner.pool_overhead_s": statistics.median(
                e["pool_overhead_s"] for e in extras
            )
            if extras
            else 0.0,
            "phy.synth.template.hit_rate": template["hit_ratio"] if template else 0.0,
            # No span nests inside a demodulator, so self time is its
            # whole time.
            "phy.rx.demod.ms_per_call": 1e3 * _ratio(demod["self_s"], demod["calls"]),
            "process.cpu_per_wall": _ratio(cpu_s, wall_s),
        },
        "traced_digests": [u.digest for u in traced],
    }
    if extras:
        trace["figures_jobs2_s"] = statistics.median(
            e["figures_jobs2_s"] for e in extras
        )
    return plain, trace
