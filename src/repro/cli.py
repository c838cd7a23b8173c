"""Command-line experiment runner: ``python -m repro <experiment>``.

Lets a user regenerate any table or figure without touching pytest:

    python -m repro list
    python -m repro fig11
    python -m repro fig15 --trials 20 --seed 3
    python -m repro all
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Dict, List, Tuple


def _run_table1(args: argparse.Namespace) -> str:
    from repro.core.slot_schedule import assign_offsets, schedule_table
    from repro.experiments.configs import TABLE1_OFFSETS, TABLE1_PERIODS

    result = assign_offsets(TABLE1_PERIODS, TABLE1_OFFSETS)
    table = schedule_table(result, 8)
    lines = ["Table 1 — illustrative slot allocation:"]
    lines.append("  slot: " + " ".join(f"{i}" for i in range(8)))
    lines.append("  tag:  " + " ".join(slot[0][1] for slot in table))
    return "\n".join(lines)


def _run_table2(args: argparse.Namespace) -> str:
    from repro.experiments.table2_power import format_table2, run_table2

    return format_table2(run_table2())


def _run_fig8(args: argparse.Namespace) -> str:
    from repro.experiments.fig8_beacon_shift import format_fig8

    return format_fig8()


def _run_fig11(args: argparse.Namespace) -> str:
    from repro.experiments.fig11_energy import format_fig11, run_fig11

    return format_fig11(run_fig11())


def _run_fig12(args: argparse.Namespace) -> str:
    from repro.experiments.fig12_uplink import format_fig12, run_fig12

    return format_fig12(run_fig12())


def _run_fig13(args: argparse.Namespace) -> str:
    from repro.experiments.fig13_downlink import format_fig13, run_fig13

    return format_fig13(run_fig13(seed=args.seed))


def _run_fig14(args: argparse.Namespace) -> str:
    from repro.experiments.fig14_pingpong import format_fig14, run_fig14

    return format_fig14(run_fig14(seed=args.seed))


def _run_fig15(args: argparse.Namespace) -> str:
    from repro.experiments.configs import (
        FIXED_TAGS_SWEEP,
        FIXED_UTILIZATION_SWEEP,
    )
    from repro.experiments.table3_convergence import format_fig15, run_fig15

    out = ["Fig. 15(a) — fixed 12 tags, utilisation sweep:"]
    out.append(
        format_fig15(run_fig15(FIXED_TAGS_SWEEP, n_trials=args.trials, seed=args.seed))
    )
    out.append("\nFig. 15(b) — fixed utilisation 0.75, tag-count sweep:")
    out.append(
        format_fig15(
            run_fig15(FIXED_UTILIZATION_SWEEP, n_trials=args.trials, seed=args.seed)
        )
    )
    return "\n".join(out)


def _run_fig16(args: argparse.Namespace) -> str:
    from repro.experiments.fig16_longrun import format_fig16, run_fig16

    return format_fig16(run_fig16(seed=args.seed))


def _run_fig17(args: argparse.Namespace) -> str:
    from repro.experiments.fig17_strain import format_fig17, run_fig17

    return format_fig17(run_fig17())


def _run_fig19(args: argparse.Namespace) -> str:
    from repro.experiments.fig19_aloha import format_fig19, run_fig19

    return format_fig19(run_fig19(seed=args.seed))


def _run_checkpointed(
    args: argparse.Namespace, run: Callable[..., dict], **kwargs: Any
) -> Tuple[dict, int]:
    """Call a runner ('results', 'fleet') with the shared job flags.

    ``run`` gets the worker count from ``--serial``/``--jobs``, the
    checkpoint from ``--checkpoint``/``--out``, ``--resume``,
    ``--timeout``, ``--max-retries`` and ``kwargs``.  A runner failure
    or an interrupt exits with one line instead of a traceback.
    Returns the document and the worker count.
    """
    from repro.experiments.runner import ResultsError, default_jobs

    if args.serial:
        jobs = 1
    elif args.jobs is not None:
        jobs = args.jobs
    else:
        jobs = default_jobs()
    checkpoint = args.checkpoint
    if checkpoint is None and args.out:
        checkpoint = f"{args.out}.ckpt"
    if args.resume and checkpoint is None:
        raise SystemExit("error: --resume needs --checkpoint or --out")
    try:
        document = run(
            jobs=jobs,
            checkpoint=checkpoint,
            resume=args.resume,
            timeout=args.timeout,
            max_retries=args.max_retries,
            **kwargs,
        )
    except ResultsError as exc:
        raise SystemExit(f"error: {exc}")
    except KeyboardInterrupt:
        hint = ""
        if checkpoint:
            hint = f"; resume with --resume --checkpoint {checkpoint}"
        raise SystemExit(f"interrupted{hint}")
    return document, jobs


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {path}: {exc}")


def _run_results(args: argparse.Namespace) -> str:
    import json

    from repro.experiments.runner import collect_results

    telemetry = args.telemetry or args.telemetry_jsonl is not None
    profile_dir = None
    if args.profile:
        # Dumps land next to the --telemetry-jsonl (or --out) document,
        # so a profiled run keeps all of its artifacts together.
        import os

        anchor = args.telemetry_jsonl or args.out
        base = os.path.dirname(anchor) if anchor else "."
        profile_dir = os.path.join(base or ".", "profile")
    results, jobs = _run_checkpointed(
        args,
        collect_results,
        seed=args.seed,
        quick=not args.full,
        perf=args.perf,
        telemetry=telemetry,
        profile_dir=profile_dir,
    )
    if args.telemetry_jsonl:
        from repro.telemetry import MetricsSnapshot, write_jsonl

        snapshot = MetricsSnapshot.from_jsonable(
            results["telemetry"]["snapshot"]
        )
        try:
            write_jsonl(snapshot, args.telemetry_jsonl)
        except OSError as exc:
            raise SystemExit(
                f"error: cannot write {args.telemetry_jsonl}: {exc}"
            )
    text = json.dumps(results, indent=2, sort_keys=True)
    if args.out:
        _write_text(args.out, text)
        return f"wrote {args.out} ({jobs} job{'s' if jobs != 1 else ''})"
    return text


def _run_report(args: argparse.Namespace) -> str:
    import json

    from repro.telemetry import (
        TelemetryFormatError,
        read_jsonl,
        render_report,
        render_results_report,
    )

    if args.input is None:
        raise SystemExit("error: 'report' needs --input (results JSON or "
                         "telemetry JSONL)")
    try:
        if args.input.endswith(".jsonl"):
            snapshot = read_jsonl(args.input)
            return render_report(snapshot, title=args.input)
        with open(args.input) as fh:
            document = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {args.input}: {exc}")
    except (ValueError, TelemetryFormatError) as exc:
        raise SystemExit(f"error: {args.input}: {exc}")
    try:
        return render_results_report(document)
    except (KeyError, ValueError, TelemetryFormatError) as exc:
        raise SystemExit(
            f"error: {args.input} has no usable telemetry section "
            f"(run 'repro results --telemetry'): {exc}"
        )


def _run_figR(args: argparse.Namespace) -> str:
    from repro.experiments.figR_recovery import format_figR, run_figR

    return format_figR(run_figR(seed=args.seed))


def _run_faults(args: argparse.Namespace) -> str:
    from repro.analysis.recovery import recovery_report
    from repro.core.network import NetworkConfig, SlottedNetwork
    from repro.faults.scenarios import SCENARIO_PERIODS
    from repro.faults.schedule import FaultSchedule

    schedule = FaultSchedule.generate(
        seed=args.seed,
        n_slots=max(1, args.slots - 200),
        tags=sorted(SCENARIO_PERIODS),
        n_faults=args.n_faults,
        start_slot=min(200, max(0, args.slots - 201)),
    )
    net = SlottedNetwork(
        SCENARIO_PERIODS,
        config=NetworkConfig(seed=args.seed, ideal_channel=True),
        faults=schedule,
    )
    net.run(args.slots)
    ctl = net.faults
    lines = [
        f"fault schedule (seed={args.seed}, signature "
        f"{schedule.signature()[:16]}):"
    ]
    for e in schedule:
        lines.append(
            f"  #{e.fault_id} slot {e.slot:>5} +{e.duration:<3} "
            f"{e.kind:<18} target={e.target:<8} magnitude={e.magnitude:g}"
        )
    lines.append("")
    lines.append(f"injected over {args.slots} slots; fault trace:")
    for r in ctl.trace.records():
        if r.kind.startswith("fault."):
            lines.append(
                f"  slot {int(r.time):>5} {r.kind:<12} #{r['fault_id']} "
                f"{r['fault_kind']} -> {r['target']}"
            )
    report = recovery_report(net.records, schedule.last_clear_slot)
    lines.append("")
    lines.append(f"trace signature:            {ctl.trace.signature()}")
    lines.append(f"last fault clears at slot:  {report.clear_slot}")
    reconverge = report.slots_to_reconverge
    lines.append(
        "slots to reconverge:        "
        + (str(reconverge) if reconverge is not None else "not within the run")
    )
    lines.append(f"collisions during faults:   {report.collisions_during_faults}")
    lines.append(f"collisions after clearing:  {report.collisions_after_clear}")
    return "\n".join(lines)


def _run_figS(args: argparse.Namespace) -> str:
    from repro.experiments.figS_degradation import DEFAULT_SEED, format_figS, run_figS

    seed = args.seed if args.seed != 0 else DEFAULT_SEED
    return format_figS(run_figS(seed=seed))


def _run_figT(args: argparse.Namespace) -> str:
    from repro.experiments.figT_multireader import DEFAULT_SEED, format_figT, run_figT

    seed = args.seed if args.seed != 0 else DEFAULT_SEED
    return format_figT(run_figT(seed=seed))


def _run_figM(args: argparse.Namespace) -> str:
    from repro.experiments.figM_relay import DEFAULT_SEED, format_figM, run_figM

    seed = args.seed if args.seed != 0 else DEFAULT_SEED
    return format_figM(run_figM(seed=seed))


def _run_figA(args: argparse.Namespace) -> str:
    from repro.experiments.figA_adaptive import DEFAULT_SEED, format_figA, run_figA

    seed = args.seed if args.seed != 0 else DEFAULT_SEED
    return format_figA(run_figA(seed=seed))


def _run_resilience(args: argparse.Namespace) -> str:
    from repro.analysis.recovery import slots_to_reconverge
    from repro.core.network import NetworkConfig, SlottedNetwork
    from repro.faults.scenarios import SCENARIO_PERIODS
    from repro.faults.schedule import FaultSchedule
    from repro.resilience import NetworkSupervisor

    schedule = FaultSchedule.generate(
        seed=args.seed,
        n_slots=max(1, args.slots - 200),
        tags=sorted(SCENARIO_PERIODS),
        n_faults=args.n_faults,
        start_slot=min(200, max(0, args.slots - 201)),
    )

    def run(with_policies: bool):
        net = SlottedNetwork(
            SCENARIO_PERIODS,
            config=NetworkConfig(seed=args.seed, ideal_channel=True),
            faults=schedule,
        )
        supervisor = NetworkSupervisor(net, policies=None if with_policies else ())
        supervisor.run(args.slots)
        return net, supervisor

    lines = [
        f"self-healing demo (seed={args.seed}, schedule "
        f"{schedule.signature()[:16]}, {len(schedule)} faults):",
        "",
    ]
    for label, with_policies in (("vanilla", False), ("supervised", True)):
        net, supervisor = run(with_policies)
        reconverge = slots_to_reconverge(net.records, schedule.last_clear_slot)
        collisions = sum(1 for r in net.records if r.collision_detected)
        lines.append(
            f"{label:>12}: collisions={collisions:<4} reconverge="
            f"{reconverge if reconverge is not None else 'never':<6} "
            f"violations={len(supervisor.violations)} "
            f"escalations={len(supervisor.escalations)}"
        )
        if with_policies:
            lines.append("")
            lines.append("policy actions:")
            for action in supervisor.actions:
                lines.append(
                    f"  slot {action.slot:>5} {action.policy:<14} "
                    f"{action.action:<16} {action.tag or '-':<8} {action.detail}"
                )
            lines.append("")
            lines.append("link health (windowed):")
            for tag, health in sorted(supervisor.monitor.report().items()):
                lines.append(
                    f"  {tag:<8} acks={health['acks']:<4} "
                    f"nacks={health['nacks']:<3} "
                    f"missed={health['missed_expected']:<3} "
                    f"fails={health['decode_failures']:<3} "
                    f"ack_rate={health['ack_rate']}"
                )
    return "\n".join(lines)


def _run_fleet(args: argparse.Namespace) -> str:
    import json

    from repro.experiments.runner import FleetRunner
    from repro.faults.scenarios import SCENARIO_PERIODS

    # Built inside the runner call, so a bad --fleet-size, --slots or
    # --shard-size is reported like any other runner error.
    def run(**knobs: Any) -> dict:
        return FleetRunner(
            SCENARIO_PERIODS,
            seeds=list(range(args.seed, args.seed + args.fleet_size)),
            n_slots=args.slots,
            shard_size=args.shard_size,
        ).run(**knobs)

    document, _ = _run_checkpointed(args, run, telemetry=args.telemetry)
    payload = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        _write_text(args.out, payload)
        agg = document["aggregate"]
        return (
            f"fleet sweep: {document['n_networks']} networks x "
            f"{document['n_slots']} slots -> {args.out}\n"
            f"  decodes={agg['decodes']} acks={agg['acks']} "
            f"collisions={agg['collisions']} "
            f"mean settled fraction={agg['mean_settled_fraction']:.4f}"
        )
    return payload


def _run_appc(args: argparse.Namespace) -> str:
    from repro.analysis.markov import SlotAllocationChain

    lines = ["Appendix C — convergence-proof verification:"]
    for periods in [(2, 2), (2, 4), (4, 4), (2, 4, 4), (4, 4, 2)]:
        chain = SlotAllocationChain(periods)
        lines.append(
            f"  {periods}: lemma1={chain.verify_lemma1()} "
            f"absorbing={chain.verify_absorbing()} "
            f"E[T]={chain.expected_absorption_time():.2f} slots"
        )
    return "\n".join(lines)


EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": _run_table1,
    "fig8": _run_fig8,
    "table2": _run_table2,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "fig14": _run_fig14,
    "fig15": _run_fig15,
    "fig16": _run_fig16,
    "fig17": _run_fig17,
    "fig19": _run_fig19,
    "figR": _run_figR,
    "figS": _run_figS,
    "figT": _run_figT,
    "figM": _run_figM,
    "figA": _run_figA,
    "faults": _run_faults,
    "resilience": _run_resilience,
    "appc": _run_appc,
    "results": _run_results,
    "report": _run_report,
    "fleet": _run_fleet,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate ARACHNET's evaluation tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help="which table/figure to run ('all' for everything)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--trials", type=int, default=10, help="trials for convergence sweeps"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="('results'/'fleet') fan jobs out over N processes "
        "(default: one per CPU)",
    )
    parser.add_argument(
        "--serial",
        action="store_true",
        help="('results'/'fleet') force serial execution, overriding --jobs",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="('results') publication-grade counts instead of quick ones",
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help="('results') embed per-experiment wall times and counters",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=2000,
        help="('faults'/'resilience'/'fleet') number of slots to simulate",
    )
    parser.add_argument(
        "--n-faults",
        type=int,
        default=6,
        help="('faults'/'resilience') number of fault events to generate",
    )
    parser.add_argument(
        "--fleet-size",
        type=int,
        default=256,
        metavar="N",
        help="('fleet') number of independent networks to sweep",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=64,
        metavar="K",
        help="('fleet') networks per batch-engine shard",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="('results'/'fleet') write the JSON document here instead of stdout",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="('results'/'fleet') per-job wall-clock bound in seconds",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="('results'/'fleet') extra attempts for a failed job",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="('results'/'fleet') checkpoint file (default: <--out>.ckpt)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="('results'/'fleet') preload the checkpoint, run only missing jobs",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="('results'/'fleet') collect metrics in every job and embed "
        "the merged, signed telemetry snapshot",
    )
    parser.add_argument(
        "--telemetry-jsonl",
        default=None,
        metavar="PATH",
        help="('results') also export the telemetry snapshot as signed "
        "JSONL (implies --telemetry)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="('results') run each job under cProfile and dump a "
        "<job>.pstats file next to the --telemetry-jsonl/--out output",
    )
    parser.add_argument(
        "--input",
        default=None,
        metavar="PATH",
        help="('report') results JSON (from 'results --telemetry') or "
        "telemetry JSONL to render as a scorecard",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print("available experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0
    if args.experiment == "all":
        # 'results' re-runs every experiment for its JSON document, and
        # 'faults'/'resilience' are interactive demos of the injection
        # and self-healing subsystems; keep 'all' to the human-readable
        # paper tables and figures.
        names = sorted(
            n
            for n in EXPERIMENTS
            if n not in ("results", "faults", "resilience", "report", "fleet")
        )
    else:
        names = [args.experiment]
    for name in names:
        start = time.perf_counter()
        output = EXPERIMENTS[name](args)
        elapsed = time.perf_counter() - start
        print(f"=== {name} ({elapsed:.1f}s) ===")
        print(output)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
