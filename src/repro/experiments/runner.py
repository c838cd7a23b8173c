"""Machine-readable results: run the fast experiments and emit one
JSON document of paper-vs-measured values.

The CLI prints human tables; CI pipelines and the EXPERIMENTS.md
curation want structured numbers instead:

    python -m repro results --out results.json
    python -m repro results --out results.json --jobs 4
    python -m repro results --out results.json --serial --full
    python -m repro results --out results.json --resume --timeout 120

The experiments are independent of one another, so
:func:`collect_results` can fan them out over a
``ProcessPoolExecutor``.  Each experiment derives its own seed from the
master seed *inside its job function*, exactly as the serial path does,
so the merged document is identical byte-for-byte whichever way it was
produced (the determinism test in ``tests/experiments/test_runner.py``
holds the two paths equal).

Crash tolerance: every completed fragment is persisted to an atomic
checkpoint file the moment it lands, so a killed run resumes with
``--resume`` and re-executes only the missing jobs — and, because every
fragment is a pure function of ``(seed, quick)``, the resumed document
is byte-identical to an uninterrupted one.  A crashed worker pool
(:class:`~concurrent.futures.process.BrokenProcessPool`) degrades to
serial re-execution of the incomplete jobs instead of losing the
finished ones, and each job gets a bounded number of retries and an
optional wall-clock timeout.

:class:`FleetRunner` sweeps run on the same job loop, so seed sweeps
and the results document share one checkpoint format, one retry and
timeout policy, one pool fallback and one telemetry merge.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.channel.medium import AcousticMedium
from repro.sim.random import as_index

#: Counts used by ``quick`` runs (CI) vs publication-grade runs.
QUICK_TRIALS, FULL_TRIALS = 5, 10
QUICK_LONGRUN_SLOTS, FULL_LONGRUN_SLOTS = 4000, 10_000
QUICK_ALOHA_S, FULL_ALOHA_S = 4000.0, 10_000.0


class ResultsError(RuntimeError):
    """A job failed past its retry budget, or a checkpoint mismatched or
    could not be read or written."""


class _JobTimeout(Exception):
    """Internal: a serially-executed job outran its timeout."""


# -- per-experiment jobs ----------------------------------------------------
#
# Each job is a module-level function (picklable for the process pool)
# taking (medium, seed, quick) and returning its fragment of the output
# document.  Seed derivations are part of the job so serial and parallel
# execution consume identical randomness.


def _job_table2(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.table2_power import run_table2

    t2 = run_table2()
    return {
        "table2_power_uw": {
            mode: t2.table[mode]["total_power_uw"] for mode in ("RX", "TX", "IDLE")
        },
        "table2_sustainable": t2.sustainable,
    }


def _job_fig11(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig11_energy import run_fig11

    f11 = run_fig11(medium)
    return {
        "fig11": {
            "all_activate": f11.all_activate_at_8_stages(),
            "charge_time_range_s": list(f11.charging_time_range_s()),
            "net_power_range_uw": [p * 1e6 for p in f11.net_power_range_w()],
            "amplified_16x_v": {r.tag: r.amplified_16x_v for r in f11.rows},
        }
    }


def _job_fig12(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig12_uplink import run_fig12

    f12 = run_fig12(medium)
    return {
        "fig12_snr_db": {
            tag: {str(p.bit_rate_bps): p.snr_db for p in f12.points if p.tag == tag}
            for tag in ("tag8", "tag4", "tag11")
        }
    }


def _job_fig13(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig13_downlink import run_fig13

    f13 = run_fig13(medium, seed=seed)
    return {
        "fig13_loss_per_1k": {
            tag: {
                str(p.bit_rate_bps): p.expected_loss_per_1k
                for p in f13.loss_points
                if p.tag == tag
            }
            for tag in ("tag8",)
        },
        "fig13_max_sync_offset_ms": max(s.max_abs_ms for s in f13.sync_offsets),
    }


def _job_fig14(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig14_pingpong import run_fig14

    f14 = run_fig14(seed=seed)
    return {
        "fig14": {
            "stage2_p99_ms": f14.percentile_stage2_s(99) * 1e3,
            "software_delay_ms": f14.mean_software_delay_s() * 1e3,
        }
    }


def _job_fig15(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.configs import FIXED_TAGS_SWEEP
    from repro.experiments.table3_convergence import run_fig15

    trials = QUICK_TRIALS if quick else FULL_TRIALS
    f15 = run_fig15(FIXED_TAGS_SWEEP, n_trials=trials, seed=seed, medium=medium)
    return {"fig15_median_slots": {name: r.median for name, r in f15.items()}}


def _job_fig16(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig16_longrun import run_fig16

    slots = QUICK_LONGRUN_SLOTS if quick else FULL_LONGRUN_SLOTS
    f16 = run_fig16(n_slots=slots, seed=seed + 2, medium=medium)
    return {
        "fig16": {
            "mean_non_empty": f16.mean_non_empty,
            "mean_collision": f16.mean_collision,
            "bound": f16.utilization_bound,
        }
    }


def _job_fig17(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig17_strain import run_fig17

    f17 = run_fig17()
    return {"fig17_correlations": {c.tag: c.correlation() for c in f17.curves}}


def _job_fig19(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.fig19_aloha import run_fig19

    duration = QUICK_ALOHA_S if quick else FULL_ALOHA_S
    f19 = run_fig19(duration_s=duration, seed=seed + 3, medium=medium)
    return {
        "fig19": {
            "overall_success": f19.overall_success_rate,
            "tag8_total_tx": f19.per_tag["tag8"].total_tx,
        }
    }


def _job_figS(medium: AcousticMedium, seed: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.figS_degradation import run_figS, summarize_figS

    # The degradation ladder runs at its own pinned seed: the
    # policy-vs-baseline verdicts it documents are a property of the
    # resilience layer, not of this document's master seed.
    return {"figS": summarize_figS(run_figS())}


#: Canonical experiment order; the output document is merged in this
#: order regardless of parallel completion order.
EXPERIMENT_JOBS: List[Tuple[str, Callable[..., Dict[str, Any]]]] = [
    ("table2", _job_table2),
    ("fig11", _job_fig11),
    ("fig12", _job_fig12),
    ("fig13", _job_fig13),
    ("fig14", _job_fig14),
    ("fig15", _job_fig15),
    ("fig16", _job_fig16),
    ("fig17", _job_fig17),
    ("fig19", _job_fig19),
    ("figS", _job_figS),
]

_JOBS_BY_NAME = dict(EXPERIMENT_JOBS)


def _experiment(
    name: str, medium: AcousticMedium, seed: int, quick: bool
) -> Dict[str, Any]:
    """Run the experiment job registered under ``name``.

    The job is looked up when it runs, inside the worker: tests patch
    ``_JOBS_BY_NAME``, and a name can be pickled where a closure cannot.
    """
    return _JOBS_BY_NAME[name](medium, seed, quick)


def _profiled_execute(
    key: str,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    with_telemetry: bool,
    profile_dir: Optional[str],
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Run one job, optionally under a fresh telemetry registry and
    under cProfile.

    Every job gets its *own* registry (via ``telemetry.collecting``), on
    the serial path exactly as in a pool worker — a reused worker
    process never leaks one job's tallies into the next, and the merged
    document is byte-identical whichever way the jobs were executed.

    With ``profile_dir`` set, the job executes inside its own
    :class:`cProfile.Profile` and the raw stats land in
    ``<profile_dir>/<key>.pstats`` (one file per job; pool workers
    write theirs independently).  Inspect with ``python -m pstats`` or
    ``snakeviz``.
    """
    profiler = None
    if profile_dir:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if not with_telemetry:
            return fn(*args), None
        from repro import telemetry

        with telemetry.collecting() as registry:
            fragment = fn(*args)
        return fragment, registry.snapshot().to_jsonable()
    finally:
        if profiler is not None:
            profiler.disable()
            os.makedirs(profile_dir, exist_ok=True)
            profiler.dump_stats(os.path.join(profile_dir, f"{key}.pstats"))


def _run_job(
    key: str,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    with_telemetry: bool,
    with_perf: bool,
    profile_dir: Optional[str],
) -> Tuple[Any, float, Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Run one job (the pool entry point, and the serial path's call):
    returns its fragment, wall time, and (optionally) its telemetry
    snapshot and perf report."""
    if with_perf:
        # Fresh per-job slate: pool workers are reused across jobs, and
        # without the reset a shipped report would double-count earlier
        # jobs' stages once the parent merges them.
        from repro import perf as perf_mod

        perf_mod.reset()
    start = time.perf_counter()
    fragment, tel = _profiled_execute(key, fn, args, with_telemetry, profile_dir)
    elapsed = time.perf_counter() - start
    perf_report = None
    if with_perf:
        perf_report = perf_mod.report()
    return fragment, elapsed, tel, perf_report


def default_jobs() -> int:
    """Worker count when ``--jobs`` is requested without a number."""
    return max(1, os.cpu_count() or 1)


# -- checkpointing ----------------------------------------------------------

_CHECKPOINT_VERSION = 1


def _write_checkpoint(
    path: str,
    identity: Dict[str, Any],
    fragments: Dict[str, Any],
    timings: Dict[str, float],
    telemetry_fragments: Optional[Dict[str, Dict[str, Any]]] = None,
) -> None:
    """Persist completed fragments, stamped with the run's identity (the
    parameters every fragment is a pure function of).

    The write is atomic (tmp file + fsync + rename): a kill at any
    instant leaves either the previous file or the new one, never a
    torn one.
    """
    payload = {
        "version": _CHECKPOINT_VERSION,
        **identity,
        "fragments": fragments,
        "timings": timings,
    }
    if telemetry_fragments:
        payload["telemetry"] = telemetry_fragments
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise ResultsError(f"cannot write checkpoint {path}: {exc}")


def _load_checkpoint(
    path: str, identity: Dict[str, Any]
) -> Tuple[Dict[str, Any], Dict[str, float], Dict[str, Dict[str, Any]]]:
    """Load a checkpoint, validating it belongs to this run.

    The version and every identity field must equal this run's, compared
    in JSON form (so a tuple matches the list it was saved as).  Returns
    ``(fragments, timings, telemetry_fragments)``.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ResultsError(f"cannot read checkpoint {path}: {exc}")
    if not isinstance(payload, dict):
        raise ResultsError(f"cannot read checkpoint {path}: not a JSON object")
    expected = json.loads(json.dumps({"version": _CHECKPOINT_VERSION, **identity}))
    for key, want in expected.items():
        if payload.get(key) != want:
            raise ResultsError(
                f"checkpoint {path} was taken with {key}={payload.get(key)!r};"
                f" this run uses {want!r} — refusing to mix"
            )
    return (
        payload.get("fragments", {}),
        payload.get("timings", {}),
        payload.get("telemetry", {}),
    )


@contextmanager
def _serial_timeout(seconds: Optional[float]) -> Iterator[None]:
    """Bound one serially-executed job with SIGALRM where possible.

    Only the main thread of a POSIX process can field SIGALRM; anywhere
    else the guard degrades to a no-op (pool mode bounds jobs through
    the future instead).
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _fire(signum, frame):
        raise _JobTimeout()

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- the job loop -----------------------------------------------------------


class _Run(NamedTuple):
    """A finished run: fragment and wall time per job key, the merged
    telemetry section (None when off), the perf report of each job a
    pool worker ran, and the worker count the run finished with (1
    after a serial fallback)."""

    fragments: Dict[str, Any]
    timings: Dict[str, float]
    telemetry: Optional[Dict[str, Any]]
    perf_reports: Dict[str, Dict[str, Any]]
    jobs: int


def _drive(
    work: List[Tuple[str, Callable[..., Any], Tuple[Any, ...]]],
    identity: Dict[str, Any],
    noun: str,
    jobs: int = 1,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    telemetry: bool = False,
    perf: bool = False,
    profile_dir: Optional[str] = None,
    fits: Callable[[str, Any], bool] = lambda key, fragment: True,
) -> _Run:
    """Run every job of ``work`` to completion: the one crash-tolerant
    job loop behind :func:`collect_results` and :meth:`FleetRunner.run`.

    A job is ``(key, fn, args)``: the key names its checkpoint fragment,
    and ``fn`` is a module-level function a pool worker can unpickle.
    ``identity`` holds the parameters every fragment is a pure function
    of; a checkpoint taken with other values is refused, and so is one
    holding a fragment that ``fits`` rejects.  ``noun`` names a job in
    errors.

    ``timeout``, ``max_retries``, ``checkpoint``, ``resume``,
    ``telemetry``, ``perf`` and ``profile_dir`` behave per job as
    :func:`collect_results` documents them.  Telemetry snapshots merge
    in ``work`` order, and the pool has ``min(jobs, pending)`` workers,
    or none when the work cannot be pickled.
    """
    calls = {key: (fn, args) for key, fn, args in work}  # in work order
    fragments: Dict[str, Any] = {}
    timings: Dict[str, float] = {}
    tel_fragments: Dict[str, Dict[str, Any]] = {}
    perf_reports: Dict[str, Dict[str, Any]] = {}
    if resume:
        if checkpoint is None:
            raise ResultsError("resume requested without a checkpoint path")
        if os.path.exists(checkpoint):
            fragments, timings, tel_fragments = _load_checkpoint(checkpoint, identity)
            for key, fragment in fragments.items():
                if key in calls and not fits(key, fragment):
                    raise ResultsError(
                        f"checkpoint {checkpoint} holds a malformed fragment "
                        f"for {noun} {key!r} — refusing to resume"
                    )
            # A fragment without its telemetry snapshot (checkpoint from
            # a telemetry-off run) must be re-executed — the merged
            # section covers every job or none.
            fragments = {
                key: fragment
                for key, fragment in fragments.items()
                if key in calls and (key in tel_fragments or not telemetry)
            }

    if jobs > 1:
        try:
            pickle.dumps(work)
        except Exception:
            jobs = 1  # e.g. a custom medium that can't cross a process boundary

    pending = [key for key in calls if key not in fragments]
    attempts = dict.fromkeys(calls, 0)
    ship_perf = perf and jobs > 1

    def record(
        key: str,
        fragment: Any,
        elapsed: float,
        tel: Optional[Dict[str, Any]],
        perf_report: Optional[Dict[str, Any]],
    ) -> None:
        fragments[key] = fragment
        timings[key] = elapsed
        if tel is not None:
            tel_fragments[key] = tel
        if perf_report is not None:
            perf_reports[key] = perf_report
        if checkpoint is not None:
            _write_checkpoint(checkpoint, identity, fragments, timings, tel_fragments)

    while pending:
        failed: List[Tuple[str, str]] = []
        if jobs > 1:
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
            try:
                futures = {
                    key: pool.submit(
                        _run_job, key, *calls[key], telemetry, ship_perf, profile_dir
                    )
                    for key in pending
                }
                for key, future in futures.items():
                    try:
                        result = future.result(timeout=timeout)
                    except FuturesTimeout as exc:
                        # A finished future re-raised the job's own
                        # TimeoutError; only an unfinished one timed out.
                        reason = repr(exc)
                        if not future.done():
                            reason = f"timed out after {timeout:g}s"
                        failed.append((key, reason))
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        failed.append((key, repr(exc)))
                    else:
                        record(key, *result)
            except BrokenProcessPool:
                # A worker died hard (segfault, OOM-kill): the pool is
                # unusable, but every recorded fragment is safe.  Degrade
                # to serial for the jobs still missing; no retry budget
                # is charged — the jobs never ran.
                jobs = 1
                pending = [key for key in pending if key not in fragments]
                continue
            finally:
                # Never wait on a hung worker: a timed-out job must not
                # hold the run past its timeout.
                pool.shutdown(wait=False, cancel_futures=True)
        else:
            for key in pending:
                try:
                    with _serial_timeout(timeout):
                        result = _run_job(
                            key, *calls[key], telemetry, False, profile_dir
                        )
                except _JobTimeout:
                    failed.append((key, f"timed out after {timeout:g}s"))
                except Exception as exc:
                    failed.append((key, repr(exc)))
                else:
                    record(key, *result)

        pending = []
        for key, reason in failed:
            attempts[key] += 1
            if attempts[key] > max_retries:
                raise ResultsError(
                    f"{noun} {key!r} failed after {attempts[key]} attempt"
                    f"{'s' if attempts[key] != 1 else ''}: {reason}"
                )
            pending.append(key)

    section = None
    if telemetry:
        from repro.telemetry import MetricsSnapshot, merge_snapshots

        # Canonical job order, NOT completion order: snapshot merging is
        # associative and commutative for counters/gauges, but histogram
        # float sums are only guaranteed bit-stable along one order.
        merged = merge_snapshots(
            MetricsSnapshot.from_jsonable(tel_fragments[key]) for key in calls
        )
        section = {"signature": merged.signature(), "snapshot": merged.to_jsonable()}

    if checkpoint is not None:
        try:
            os.remove(checkpoint)
        except OSError:
            pass
    return _Run(fragments, timings, section, perf_reports, jobs)


# -- collection -------------------------------------------------------------


def collect_results(
    medium: Optional[AcousticMedium] = None,
    seed: int = 0,
    quick: bool = True,
    jobs: int = 1,
    perf: bool = False,
    timeout: Optional[float] = None,
    max_retries: int = 0,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    telemetry: bool = False,
    profile_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run every analytic/fast experiment; returns a JSON-able dict.

    ``quick`` keeps the stochastic sweeps small (5 trials, 4000-slot
    long run); pass False for publication-grade counts.  ``jobs`` > 1
    fans the independent experiments out over a process pool; the
    result document is identical to the serial one for the same seeds
    (each experiment derives its seed inside its own job).  ``perf``
    appends a ``"perf"`` section with per-experiment wall times and the
    in-process stage/counter report — omitted by default so the
    document stays byte-stable across executions.

    Robustness knobs:

    * ``timeout`` bounds each job's wall time (seconds).  In pool mode
      the bound is enforced on the future; serially it uses SIGALRM
      when available.  A timed-out job counts as one failed attempt.
    * ``max_retries`` re-runs a failed or timed-out job up to that many
      extra times before :class:`ResultsError` is raised.
    * ``checkpoint`` names a file that receives every completed
      fragment atomically as it lands; ``resume=True`` preloads it and
      re-executes only the missing jobs.  Fragments are pure functions
      of ``(seed, quick)``, so a killed-and-resumed run emits a
      document byte-identical to an uninterrupted one.  The checkpoint
      is deleted once the document is complete.
    * A :class:`BrokenProcessPool` (a worker crashed hard) falls back
      to serial re-execution of only the jobs that had not finished —
      completed fragments are never lost.  ``KeyboardInterrupt``
      propagates after the checkpoint is flushed.

    ``telemetry=True`` runs every job under its own fresh
    :class:`~repro.telemetry.MetricsRegistry` (serial and pool paths
    identically), merges the per-job snapshots in canonical
    ``EXPERIMENT_JOBS`` order regardless of completion order, and
    appends a ``"telemetry"`` section: the merged snapshot plus its
    SHA-256 signature.  The section is deterministic — byte-identical
    between ``--serial`` and ``--jobs N`` runs of the same seed.

    ``profile_dir`` runs each job under :mod:`cProfile` and dumps raw
    pstats to ``<profile_dir>/<experiment>.pstats`` (CLI:
    ``repro results --profile``), so future hot spots are found from
    data rather than guesswork.
    """
    # Before any job runs: int() would run a float or bool seed as
    # another one (0.5 as seed 0, True as seed 1).
    seed = as_index(seed, "seed")
    medium = medium if medium is not None else AcousticMedium()
    names = [name for name, _ in EXPERIMENT_JOBS]
    run = _drive(
        [(name, _experiment, (name, medium, seed, quick)) for name in names],
        {"seed": seed, "quick": quick},
        "experiment",
        jobs=jobs,
        timeout=timeout,
        max_retries=max_retries,
        checkpoint=checkpoint,
        resume=resume,
        telemetry=telemetry,
        perf=perf,
        profile_dir=profile_dir,
    )

    out: Dict[str, Any] = {"quick": quick, "seed": seed}
    for name in names:
        out.update(run.fragments[name])
    if run.telemetry is not None:
        out["telemetry"] = run.telemetry

    if perf:
        from repro import perf as perf_mod
        from repro.phy import cache as phy_cache
        from repro.phy import kernels

        if run.perf_reports:
            # Pool run: the parent's own registry saw only setup work;
            # fold in what each child measured, in canonical job order.
            process_report = perf_mod.merge_reports(
                [perf_mod.report()]
                + [run.perf_reports[n] for n in names if n in run.perf_reports]
            )
        else:
            process_report = perf_mod.report()
        out["perf"] = {
            "jobs": run.jobs,
            "experiment_wall_s": {k: run.timings[k] for k in sorted(run.timings)},
            "process": process_report,
            "cache_sizes": phy_cache.cache_sizes(),
            # Cache efficacy at a glance: hit/miss tallies and ratios
            # per synthesis cache (carrier/mixer/template/leak).
            "cache_hit_ratios": phy_cache.hit_ratios(
                process_report.get("counters", {})
            ),
            # Which kernel backend served the run (cext/numpy),
            # plus availability diagnostics for the others.
            "kernels": kernels.kernel_info(),
        }
    return out


# -- fleet sweeps -----------------------------------------------------------
#
# The batch engine (repro.fleet) steps one shard of networks per
# vectorised call; FleetRunner shards a whole seed sweep across engines
# — optionally across a process pool — and reassembles a document that
# is byte-identical for every (shard_size, jobs) combination, because
# each network's randomness is a pure function of its own seed.

#: Column order of a fleet summary row (the fragment a shard
#: checkpoints is one row per network).
FLEET_ROW_COLUMNS = (
    "seed",
    "slots",
    "decodes",
    "acks",
    "collisions",
    "idle_slots",
    "settled_fraction",
)


def _run_fleet_shard(
    tag_periods: List[Tuple[str, int]],
    names: List[str],
    seeds: List[int],
    n_slots: int,
    config: Optional[Any],
    energy: bool,
    medium: Optional[Any] = None,
) -> List[List[float]]:
    """Run one shard of a sweep on a batch engine over ``medium`` (a
    fresh ``AcousticMedium`` when None); returns one
    :data:`FLEET_ROW_COLUMNS` row per network."""
    import numpy as np

    from repro.fleet import FleetEngine, FleetSpec

    specs = [FleetSpec(name=n, seed=s) for n, s in zip(names, seeds)]
    engine = FleetEngine(
        dict(tag_periods), specs, config=config, energy=energy, medium=medium
    )
    engine.log.reserve(n_slots)
    for _ in range(n_slots):
        engine.step_all()
    summaries = engine.summaries()
    columns = [seeds] + [
        [summary[c] for summary in summaries] for c in FLEET_ROW_COLUMNS[1:]
    ]
    return np.array(columns, dtype=np.float64).T.tolist()


class FleetRunner:
    """Shard a seed sweep onto batch engines and merge the results.

    The sweep is ``len(seeds)`` independent networks of the same
    ``tag_periods`` topology, each simulated for ``n_slots`` slots.
    Networks are named ``net<global index>`` and their randomness
    derives only from their own seed, so the output document is
    byte-identical however the sweep is sharded or scheduled — the
    property ``tests/fleet/test_runner_fleet.py`` pins.

    Runs on the experiment runner's job loop: the same atomic
    checkpoint (one fragment per completed shard, ``resume=`` to
    continue a killed run), the same per-job telemetry registries
    merged in canonical shard order, and the same pool robustness knobs
    (per-shard timeout, bounded retries, serial degradation when the
    pool breaks).
    """

    def __init__(
        self,
        tag_periods: Dict[str, int],
        seeds: List[int],
        n_slots: int,
        config: Optional[Any] = None,
        energy: bool = False,
        shard_size: int = 64,
    ) -> None:
        if not tag_periods:
            raise ResultsError("fleet sweep needs at least one tag")
        if not seeds:
            raise ResultsError("fleet sweep needs at least one seed")
        n_slots = as_index(n_slots, "n_slots", ResultsError)
        if n_slots <= 0:
            raise ResultsError("fleet sweep needs a positive slot count")
        shard_size = as_index(shard_size, "shard_size", ResultsError)
        if shard_size <= 0:
            raise ResultsError("shard size must be positive")

        self.tag_periods = dict(tag_periods)
        self.seeds = [as_index(s, "seed") for s in seeds]
        self.n_slots = n_slots
        self.config = config
        self.energy = bool(energy)
        self.shard_size = shard_size
        width = max(4, len(str(len(self.seeds) - 1)))
        self.names = [f"net{i:0{width}d}" for i in range(len(self.seeds))]

    # -- sharding ------------------------------------------------------------

    @property
    def n_networks(self) -> int:
        return len(self.seeds)

    def shards(self) -> List[Tuple[int, int, List[str], List[int]]]:
        """``(shard_index, row_offset, names, seeds)`` per shard."""
        out = []
        for index, offset in enumerate(range(0, self.n_networks, self.shard_size)):
            stop = min(offset + self.shard_size, self.n_networks)
            out.append(
                (index, offset, self.names[offset:stop], self.seeds[offset:stop])
            )
        return out

    # -- execution -----------------------------------------------------------

    def _checkpoint_identity(self) -> Dict[str, Any]:
        return {
            "kind": "fleet-sweep",
            "seeds": self.seeds,
            "n_slots": self.n_slots,
            "tag_periods": sorted(self.tag_periods.items()),
            "energy": self.energy,
            "shard_size": self.shard_size,
        }

    def run(
        self,
        jobs: int = 1,
        telemetry: bool = False,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        timeout: Optional[float] = None,
        max_retries: int = 0,
    ) -> Dict[str, Any]:
        """Run the sweep; returns the JSON-able fleet document.

        ``jobs`` > 1 fans shards over a process pool.  Serial, pooled
        and resumed runs, at any shard size, emit the same bytes.  The
        other knobs behave as in :func:`collect_results`, per shard.

        Every shard runs over one channel built for this call, so a
        capture verdict one shard resolves serves the shards after it
        (a pool worker gets its own copy).  Nothing outlives the call.
        """
        from repro.channel.medium import AcousticMedium

        shards = self.shards()
        periods = sorted(self.tag_periods.items())
        sizes = {str(index): len(names) for index, _, names, _ in shards}
        medium = AcousticMedium()
        run = _drive(
            [
                (
                    str(index),
                    _run_fleet_shard,
                    (
                        periods, names, seeds, self.n_slots, self.config,
                        self.energy, medium,
                    ),
                )
                for index, _, names, seeds in shards
            ],
            self._checkpoint_identity(),
            "fleet shard",
            jobs=jobs,
            timeout=timeout,
            max_retries=max_retries,
            checkpoint=checkpoint,
            resume=resume,
            telemetry=telemetry,
            fits=lambda key, rows: len(rows) == sizes[key],
        )
        document = self._build_document(
            [row for key in sizes for row in run.fragments[key]]
        )
        if run.telemetry is not None:
            document["telemetry"] = run.telemetry
        return document

    def _build_document(self, rows: List[List[float]]) -> Dict[str, Any]:
        """Assemble the result document from every network's row.

        Every execution path lands rows in the same float64 matrix
        first, so the document bytes cannot depend on how the rows got
        there (serial call, pool worker, or checkpoint resume).
        Seeds come from the sweep itself: float64 cannot hold every
        seed at or above 2**53.
        """
        import numpy as np

        matrix = np.array(rows, dtype=np.float64)
        if np.isnan(matrix).any():
            raise ResultsError("fleet sweep finished with missing rows")
        # Whole columns, as Python ints (truncated, as int() truncates)
        # and floats.
        counts = matrix[:, 1:6].astype(np.int64).T.tolist()
        keys = ("network", "seed") + FLEET_ROW_COLUMNS[1:]
        networks = [
            dict(zip(keys, values))
            for values in zip(self.names, self.seeds, *counts, matrix[:, 6].tolist())
        ]
        n_tags = len(self.tag_periods)
        return {
            "schema": "fleet-sweep/1",
            "n_networks": self.n_networks,
            "n_slots": self.n_slots,
            "n_tags": n_tags,
            "energy": self.energy,
            "tag_periods": {k: self.tag_periods[k] for k in sorted(self.tag_periods)},
            "networks": networks,
            "aggregate": {
                "decodes": int(matrix[:, 2].sum()),
                "acks": int(matrix[:, 3].sum()),
                "collisions": int(matrix[:, 4].sum()),
                "idle_slots": int(matrix[:, 5].sum()),
                "mean_settled_fraction": float(matrix[:, 6].mean()),
                "tag_slots": self.n_networks * self.n_slots * n_tags,
            },
        }
