"""Per-run scorecard: render merged telemetry as a human-readable
report (the ``repro report`` CLI).

The renderer is a **pure function of its inputs**: given the same
telemetry snapshot (and optional perf section) it emits the same bytes,
so a report over telemetry merged from a ``--jobs N`` run is
byte-identical to the report over a ``--serial`` run of the same seed.
Wall-clock stage timings, when present, are appended in a clearly
marked non-deterministic section — they never feed the deterministic
scorecard body.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.instruments import parse_labelset_key
from repro.telemetry.registry import MetricsSnapshot


def _by_label(
    snapshot: MetricsSnapshot, name: str, label: str
) -> Dict[str, int]:
    """Counter family -> {label value: count}, summing other labels."""
    out: Dict[str, int] = {}
    for key, entry in snapshot.series(name).items():
        labels = dict(parse_labelset_key(key))
        if label not in labels:
            continue
        out[labels[label]] = out.get(labels[label], 0) + int(entry["value"])
    return out


def _fmt_rate(numer: int, denom: int) -> str:
    return f"{numer / denom:7.3f}" if denom else "      -"


def _section(title: str) -> List[str]:
    return ["", title, "-" * len(title)]


def slot_outcome_rows(snapshot: MetricsSnapshot) -> List[Tuple[str, int]]:
    """The aggregate slot-outcome tallies present in a snapshot."""
    rows = []
    for label, name in (
        ("slots simulated", "mac.slots"),
        ("idle slots", "mac.idle_slots"),
        ("clean decodes", "mac.decodes"),
        ("collisions", "mac.collisions"),
        ("ACKed slots", "mac.acks"),
        ("EMPTY-flagged beacons", "mac.empty_flags"),
        ("waveform-tier slots", "waveform.slots"),
        ("waveform collisions", "waveform.collisions"),
        ("engine events fired", "engine.events"),
    ):
        total = snapshot.total(name)
        if total:
            rows.append((label, total))
    return rows


def per_tag_rows(
    snapshot: MetricsSnapshot,
) -> List[Tuple[str, int, int, int, int]]:
    """(tag, acks, nacks, misses, fails) rows, tag-sorted.

    ACKs/NACKs come from the MAC feedback counters; misses and decode
    failures come from the resilience health counters when a supervisor
    ran (zero otherwise).
    """
    acks = _by_label(snapshot, "mac.tag.acked", "tag")
    nacks = _by_label(snapshot, "mac.tag.nacked", "tag")
    misses = _by_label(snapshot, "resilience.miss", "tag")
    fails = _by_label(snapshot, "resilience.fail", "tag")
    tags = sorted(set(acks) | set(nacks) | set(misses) | set(fails))
    return [
        (
            tag,
            acks.get(tag, 0),
            nacks.get(tag, 0),
            misses.get(tag, 0),
            fails.get(tag, 0),
        )
        for tag in tags
    ]


def render_report(
    snapshot: MetricsSnapshot,
    perf: Optional[Mapping[str, Any]] = None,
    title: str = "telemetry scorecard",
    context: Sequence[Tuple[str, object]] = (),
) -> str:
    """Render the scorecard for one merged run snapshot.

    ``perf`` is the (non-deterministic) stage-timing section of a
    results document, appended verbatim as a marked appendix when
    given.  ``context`` rows (seed, jobs, ...) go in the header.
    """
    lines: List[str] = [title, "=" * len(title)]
    for key, value in context:
        lines.append(f"{key + ':':<24}{value}")
    lines.append(f"{'series:':<24}{len(snapshot)}")
    lines.append(f"{'signature:':<24}{snapshot.signature()}")

    rows = slot_outcome_rows(snapshot)
    if rows:
        lines += _section("slot outcomes")
        for label, total in rows:
            lines.append(f"  {label:<24}{total:>10}")

    tag_rows = per_tag_rows(snapshot)
    if tag_rows:
        lines += _section("per-tag link scorecard")
        lines.append(
            f"  {'tag':<10}{'acks':>7}{'nacks':>7}{'miss':>7}{'fail':>7}"
            f"{'ack_rate':>10}{'miss_rate':>10}"
        )
        for tag, a, n, m, f in tag_rows:
            lines.append(
                f"  {tag:<10}{a:>7}{n:>7}{m:>7}{f:>7}"
                f"   {_fmt_rate(a, a + n)}   {_fmt_rate(m + f, a + n + m + f)}"
            )

    conv = snapshot.series("mac.convergence_slots").get("")
    if conv and conv["count"]:
        lines += _section("convergence")
        lines.append(f"  {'runs converged':<24}{conv['count']:>10}")
        lines.append(f"  {'slots (min/mean/max)':<24}"
                     f"{conv['min']:>10.0f}"
                     f"{conv['sum'] / conv['count']:>10.1f}"
                     f"{conv['max']:>10.0f}")

    applied = _by_label(snapshot, "faults.applied", "kind")
    cleared = _by_label(snapshot, "faults.cleared", "kind")
    if applied or cleared:
        lines += _section("fault injection")
        lines.append(f"  {'kind':<20}{'applied':>9}{'cleared':>9}")
        for kind in sorted(set(applied) | set(cleared)):
            lines.append(
                f"  {kind:<20}{applied.get(kind, 0):>9}{cleared.get(kind, 0):>9}"
            )

    actions = _by_label(snapshot, "resilience.policy_actions", "policy")
    escalations = _by_label(snapshot, "resilience.escalations", "level")
    violations = _by_label(snapshot, "resilience.violations", "check")
    power_cycles = snapshot.total("mac.tag.power_cycles")
    if actions or escalations or violations or power_cycles:
        lines += _section("recovery")
        for policy in sorted(actions):
            lines.append(f"  policy {policy:<17}{actions[policy]:>9}")
        for level in sorted(escalations):
            lines.append(f"  escalation {level:<13}{escalations[level]:>9}")
        for check in sorted(violations):
            lines.append(f"  violation {check:<14}{violations[check]:>9}")
        if power_cycles:
            lines.append(f"  {'tag power cycles':<24}{power_cycles:>9}")

    if perf:
        kernels = perf.get("kernels")
        if kernels:
            lines += _section("phy kernels")
            lines.append(f"  {'backend':<24}{kernels.get('backend', '?'):>9}")
            lines.append(
                f"  {'compiled kernels':<24}"
                f"{kernels.get('compiled_kernels', 0):>9}"
            )
            for name, err in sorted(
                (kernels.get("load_errors") or {}).items()
            ):
                lines.append(f"  unavailable: {name} ({err})")
            if kernels.get("fallback_reason"):
                lines.append(f"  fallback: {kernels['fallback_reason']}")
            for name, why in sorted((kernels.get("composed") or {}).items()):
                lines.append(f"  composed: {name} ({why})")
            for repair in kernels.get("cache_repairs") or ():
                lines.append(f"  cache repair: {repair}")
        lines += _section("stage timings (wall clock — non-deterministic)")
        stages = (perf.get("process") or {}).get("stages", {})
        if stages:
            lines.append(
                f"  {'stage':<28}{'calls':>8}{'total_s':>10}{'mean_ms':>10}"
            )
            for name in sorted(stages):
                s = stages[name]
                mean_ms = (s["total_s"] / s["calls"] * 1e3) if s["calls"] else 0.0
                lines.append(
                    f"  {name:<28}{s['calls']:>8}{s['total_s']:>10.3f}"
                    f"{mean_ms:>10.3f}"
                )
        walls = perf.get("experiment_wall_s", {})
        if walls:
            lines.append(f"  {'experiment':<28}{'wall_s':>8}")
            for name in sorted(walls):
                lines.append(f"  {name:<28}{walls[name]:>8.2f}")

    return "\n".join(lines)


def render_results_report(document: Mapping[str, Any]) -> str:
    """Render the scorecard for one experiment-runner results document.

    Expects the ``"telemetry"`` section written by
    ``collect_results(..., telemetry=True)``; the optional ``"perf"``
    section is appended as the non-deterministic appendix.
    """
    section = document.get("telemetry")
    if not section:
        raise ValueError(
            "results document carries no telemetry section; regenerate it "
            "with `repro results --telemetry` (or collect_results(..., "
            "telemetry=True))"
        )
    snapshot = MetricsSnapshot.from_jsonable(section["snapshot"])
    recorded = section.get("signature")
    if recorded is not None and snapshot.signature() != recorded:
        raise ValueError(
            "telemetry section signature mismatch: document edited or torn"
        )
    context = [
        (key, document[key]) for key in ("seed", "quick") if key in document
    ]
    return render_report(
        snapshot,
        perf=document.get("perf"),
        title="repro run scorecard",
        context=context,
    )
