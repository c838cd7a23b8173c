"""Test oracles for the slot MAC's placement algebra.

``find_free_offset_reference`` is the brute-force scan that
:func:`repro.core.slot_schedule.find_free_offset` replaced with a
residue sieve: try every offset in order and test it against every
assignment with :func:`~repro.core.slot_schedule.offsets_conflict`.
``free_offsets_reference`` is the same test for every offset, the
specification of :func:`~repro.core.slot_schedule.free_offsets`.
Nothing in ``src/`` imports this module.

Import it as ``from core.oracles import ...`` (``tests/`` is on the
test path).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.slot_schedule import Assignment, offsets_conflict, validate_period


def find_free_offset_reference(
    period: int, existing: Sequence[Assignment]
) -> Optional[int]:
    """Smallest offset in [0, period) conflicting with no assignment in
    ``existing``, or None: O(period x assignments)."""
    validate_period(period)
    for offset in range(period):
        if all(
            not offsets_conflict(period, offset, e.period, e.offset)
            for e in existing
        ):
            return offset
    return None


def free_offsets_reference(period: int, existing: Sequence[Assignment]) -> List[int]:
    """1 for each offset in [0, period) that conflicts with no
    assignment in ``existing``, else 0."""
    validate_period(period)
    return [
        int(
            not any(
                offsets_conflict(period, offset, e.period, e.offset)
                for e in existing
            )
        )
        for offset in range(period)
    ]
