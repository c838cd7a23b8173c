"""Test oracle for the supervisor's invariant checks.

``NetworkSupervisor.verify_invariants`` reruns its pairwise
double-booking scan only when the committed ledger changes.  The check
it must equal, call for call, is the plain one that rescans every
pair on every call, kept here as its executable specification.
Nothing in ``src/`` imports this module.

Import it as ``from resilience.oracles import ...`` (``tests/`` is on
the test path).
"""

from __future__ import annotations

import itertools
from typing import List

from repro.core.slot_schedule import offsets_conflict
from repro.resilience.supervisor import InvariantViolation


def verify_invariants_reference(network) -> List[InvariantViolation]:
    """Every structural MAC invariant of ``network``, checked from
    scratch: the same checks, order and details as
    ``NetworkSupervisor.verify_invariants``."""
    violations: List[InvariantViolation] = []
    reader = network.reader
    slot = reader.slot_index - 1
    committed = reader.committed_offsets()
    periods = reader.tag_periods
    for tag, offset in committed.items():
        period = periods[tag]
        if not 0 <= offset < period:
            violations.append(
                InvariantViolation(
                    slot,
                    "offset_range",
                    f"{tag} committed at offset {offset} outside "
                    f"[0, {period})",
                )
            )
    if reader.enable_future_avoidance:
        pairs = sorted((t, periods[t], o) for t, o in committed.items())
        for (a, pa, oa), (b, pb, ob) in itertools.combinations(pairs, 2):
            if offsets_conflict(pa, oa, pb, ob):
                violations.append(
                    InvariantViolation(
                        slot,
                        "double_booked",
                        f"{a}({pa},{oa}) conflicts with {b}({pb},{ob})",
                    )
                )
    stale = reader.evicting() - committed.keys()
    if stale:
        violations.append(
            InvariantViolation(
                slot,
                "stale_eviction",
                f"eviction ledger holds uncommitted tags {sorted(stale)}",
            )
        )
    for name, tag in network.tags.items():
        machine = tag.machine
        if not 0 <= machine.offset < machine.period:
            violations.append(
                InvariantViolation(
                    slot,
                    "tag_offset_range",
                    f"{name} holds offset {machine.offset} outside "
                    f"[0, {machine.period})",
                )
            )
    return violations
