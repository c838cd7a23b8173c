#!/usr/bin/env python
"""Compare two benchmark JSON snapshots.

Usage:
    python tools/bench_compare.py BENCH_before.json BENCH_after.json
    python tools/bench_compare.py old.json new.json --threshold 1.10
    python tools/bench_compare.py benchmarks/BENCH_waveform.json BENCH_waveform.json

Two formats are understood, picked automatically:

* pytest-benchmark documents — matches benchmarks by fullname and
  reports the ratio of mean runtimes (after / before);
* ``bench-waveform/*`` throughput snapshots (from
  ``tools/bench_smoke.py``) — compares slots/s per fidelity tier, where
  higher is better; ``/2`` snapshots also carry the active
  ``repro.phy.kernels`` backend, shown (and flagged when the two sides
  differ — cross-backend numbers are not comparable);
* ``bench-fleet/1`` throughput snapshots (from
  ``tools/bench_smoke.py --fleet-only``) — compares the batch engine's
  aggregate tag-slots/s per fleet width (plus the sequential baseline
  and the serial ``FleetRunner`` sweep), higher is better.

Either way the tool exits non-zero if any shared entry regressed by
more than ``--threshold`` (default 1.25, i.e. 25% slower).  Use the
smoke target to produce the inputs:

    make bench-smoke            # writes BENCH_<git-rev>.json + BENCH_waveform.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple


def load_doc(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def is_waveform_snapshot(doc: dict) -> bool:
    return str(doc.get("schema", "")).startswith("bench-waveform/")


def is_fleet_snapshot(doc: dict) -> bool:
    return str(doc.get("schema", "")).startswith("bench-fleet/")


def load_fleet_rates(doc: dict) -> Dict[str, float]:
    """Map leg name -> tag-slots/s from a bench-fleet snapshot.

    Fleet widths sort numerically (``N=0016`` style keys) so the
    report reads as the scaling curve.
    """
    rates: Dict[str, float] = {}
    if "sequential_tag_slots_per_s" in doc:
        rates["sequential"] = float(doc["sequential_tag_slots_per_s"])
    if "sweep_tag_slots_per_s" in doc:
        rates["sweep"] = float(doc["sweep_tag_slots_per_s"])
    for size, entry in doc.get("fleet", {}).items():
        if "tag_slots_per_s" in entry:
            rates[f"fleet N={int(size):>5d}"] = float(entry["tag_slots_per_s"])
    return rates


def load_means(doc: dict) -> Dict[str, float]:
    """Map benchmark fullname -> mean seconds from a pytest-benchmark
    JSON document."""
    means: Dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats", {})
        if name and "mean" in stats:
            means[name] = float(stats["mean"])
    return means


def load_rates(doc: dict) -> Dict[str, float]:
    """Map tier name -> slots/s from a bench-waveform snapshot."""
    rates: Dict[str, float] = {}
    for tier, entry in doc.get("tiers", {}).items():
        if "slots_per_s" in entry:
            rates[tier] = float(entry["slots_per_s"])
    return rates


def compare_rates(
    before: Dict[str, float],
    after: Dict[str, float],
    threshold: float,
    unit: str = "slots/s",
) -> Tuple[List[str], List[str]]:
    """Return (report lines, regression lines) for throughput tiers.

    Throughput is higher-is-better, so a regression is
    ``after < before / threshold``.
    """
    lines: List[str] = []
    regressions: List[str] = []
    shared = sorted(set(before) & set(after))
    width = max((len(n) for n in shared), default=4)
    for name in shared:
        old, new = before[name], after[name]
        ratio = new / old if old > 0 else float("inf")
        marker = ""
        if ratio < 1.0 / threshold:
            marker = "  REGRESSION"
            regressions.append(name)
        elif ratio > threshold:
            marker = "  improved"
        lines.append(
            f"{name:<{width}}  {old:>10.1f} {unit} -> {new:>10.1f} {unit}"
            f"  x{ratio:.2f}{marker}"
        )
    for name in sorted(set(before) - set(after)):
        lines.append(f"{name:<{width}}  (removed)")
    for name in sorted(set(after) - set(before)):
        lines.append(f"{name:<{width}}  (new: {after[name]:.1f} {unit})")
    return lines, regressions


def compare(
    before: Dict[str, float], after: Dict[str, float], threshold: float
) -> Tuple[List[str], List[str]]:
    """Return (report lines, regression lines) for the shared names."""
    lines: List[str] = []
    regressions: List[str] = []
    shared = sorted(set(before) & set(after))
    width = max((len(n) for n in shared), default=4)
    for name in shared:
        old, new = before[name], after[name]
        ratio = new / old if old > 0 else float("inf")
        marker = ""
        if ratio > threshold:
            marker = "  REGRESSION"
            regressions.append(name)
        elif ratio < 1.0 / threshold:
            marker = "  improved"
        lines.append(
            f"{name:<{width}}  {old * 1e3:>10.3f} ms -> {new * 1e3:>10.3f} ms"
            f"  x{ratio:.2f}{marker}"
        )
    for name in sorted(set(before) - set(after)):
        lines.append(f"{name:<{width}}  (removed)")
    for name in sorted(set(after) - set(before)):
        lines.append(f"{name:<{width}}  (new: {after[name] * 1e3:.3f} ms)")
    return lines, regressions


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two pytest-benchmark JSON snapshots."
    )
    parser.add_argument("before", help="baseline BENCH_*.json")
    parser.add_argument("after", help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="flag mean-runtime ratios above this as regressions "
        "(default: 1.25)",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 1.0:
        parser.error("--threshold must be > 1.0")

    before_doc = load_doc(args.before)
    after_doc = load_doc(args.after)

    def kind(doc: dict) -> str:
        if is_waveform_snapshot(doc):
            return "waveform"
        if is_fleet_snapshot(doc):
            return "fleet"
        return "pytest"

    if kind(before_doc) != kind(after_doc):
        print(
            f"error: cannot mix a {kind(before_doc)} document with a "
            f"{kind(after_doc)} one",
            file=sys.stderr,
        )
        return 2
    if kind(before_doc) == "waveform":
        before = load_rates(before_doc)
        after = load_rates(after_doc)
    elif kind(before_doc) == "fleet":
        before = load_fleet_rates(before_doc)
        after = load_fleet_rates(after_doc)
    else:
        before = load_means(before_doc)
        after = load_means(after_doc)
    if not before or not after:
        print("error: no benchmarks found in one of the inputs", file=sys.stderr)
        return 2
    if not set(before) & set(after):
        print("error: the two files share no benchmark names", file=sys.stderr)
        return 2
    if kind(before_doc) == "waveform":
        lines, regressions = compare_rates(before, after, args.threshold)
        print(f"slot throughput, {args.before} -> {args.after}:")
        b_backend = before_doc.get("kernel_backend")
        a_backend = after_doc.get("kernel_backend")
        if b_backend or a_backend:
            note = (
                "  (DIFFERENT BACKENDS — ratios not comparable)"
                if b_backend != a_backend
                else ""
            )
            print(
                f"  kernel backend: {b_backend or '?'} -> "
                f"{a_backend or '?'}{note}"
            )
    elif kind(before_doc) == "fleet":
        lines, regressions = compare_rates(
            before, after, args.threshold, unit="tag-slots/s"
        )
        print(f"fleet throughput, {args.before} -> {args.after}:")
    else:
        lines, regressions = compare(before, after, args.threshold)
        print(f"mean runtime, {args.before} -> {args.after}:")
    for line in lines:
        print(" ", line)
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond x{args.threshold:.2f}:",
            file=sys.stderr,
        )
        for name in regressions:
            print(f"  {name}", file=sys.stderr)
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
