"""Vanilla slot allocation (Sec. 5.2) and schedule algebra.

Transmission periods are restricted to powers of two (P = {2^k}).  A tag
with period ``p`` and offset ``a`` transmits in every slot ``s`` with
``s mod p == a``.  Two tags conflict iff their offsets coincide modulo
the smaller period — the arithmetic this module centralises for the
vanilla scheduler, the reader's future-collision avoidance (Sec. 5.6),
and the convergence analysis (Appendix C).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def is_permissible_period(period: int) -> bool:
    """True iff ``period`` is in P = {2^k | k >= 0}."""
    return period >= 1 and (period & (period - 1)) == 0


def validate_period(period: int) -> None:
    """Raise ValueError unless ``period`` is a permissible power of two."""
    if not is_permissible_period(period):
        raise ValueError(f"period must be a power of two, got {period}")


def slot_utilization(periods: Iterable[int]) -> Fraction:
    """Combined transmission rate U = sum(1/p_i), Eq. 1 — exact."""
    total = Fraction(0)
    for p in periods:
        validate_period(p)
        total += Fraction(1, p)
    return total


def offsets_conflict(p_a: int, a_a: int, p_b: int, a_b: int) -> bool:
    """Do two (period, offset) assignments ever transmit in the same slot?

    With power-of-two periods, the occupation patterns intersect iff the
    offsets agree modulo the smaller period.
    """
    m = min(p_a, p_b)
    return a_a % m == a_b % m


@dataclass(frozen=True)
class Assignment:
    """One tag's slot assignment."""

    tag: str
    period: int
    offset: int

    def __post_init__(self) -> None:
        # validate_period, inlined: placement builds these per decode.
        period = self.period
        if period < 1 or period & (period - 1):
            raise ValueError(f"period must be a power of two, got {period}")
        if not 0 <= self.offset < period:
            raise ValueError(
                f"offset {self.offset} out of range for period {period}"
            )

    def transmits_in(self, slot: int) -> bool:
        return slot % self.period == self.offset


class ScheduleError(ValueError):
    """Raised when a conflict-free schedule cannot be constructed."""


def assign_offsets(
    periods: Mapping[str, int],
    preassigned: Optional[Mapping[str, int]] = None,
) -> Dict[str, Assignment]:
    """Construct a conflict-free schedule for the given tag periods.

    Greedy in ascending period order (short-period tags are the most
    constrained); each tag takes the smallest offset that conflicts with
    nobody already placed.  With power-of-two periods this greedy is
    complete: it succeeds whenever sum(1/p) <= 1 and the preassignment
    is itself consistent, because period-2^k patterns tile a binary tree
    of slots.

    ``preassigned`` pins specific tags to specific offsets (used to
    model partially-settled networks).
    """
    util = slot_utilization(periods.values())
    if util > 1:
        raise ScheduleError(f"slot utilization {util} exceeds channel capacity")
    placed: List[Assignment] = []
    result: Dict[str, Assignment] = {}
    pre = dict(preassigned or {})
    for tag, offset in pre.items():
        if tag not in periods:
            raise ScheduleError(f"preassigned tag {tag!r} has no period")
        assignment = Assignment(tag, periods[tag], offset)
        for other in placed:
            if offsets_conflict(
                assignment.period, assignment.offset, other.period, other.offset
            ):
                raise ScheduleError(
                    f"preassignment conflict between {tag!r} and {other.tag!r}"
                )
        placed.append(assignment)
        result[tag] = assignment

    remaining = sorted(
        (t for t in periods if t not in result),
        key=lambda t: (periods[t], t),
    )
    for tag in remaining:
        period = periods[tag]
        offset = find_free_offset(period, placed)
        if offset is None:
            raise ScheduleError(
                f"no conflict-free offset for tag {tag!r} (period {period})"
            )
        assignment = Assignment(tag, period, offset)
        placed.append(assignment)
        result[tag] = assignment
    return result


def free_offsets(period: int, existing: Sequence[Assignment]) -> bytearray:
    """Residue sieve of the offsets a ``period`` tag can take.

    Byte ``o`` is 1 iff offset ``o`` conflicts with none of
    ``existing``.  An assignment ``(q, b)`` blocks exactly the offsets
    congruent to ``b`` modulo ``min(period, q)``
    (:func:`offsets_conflict`), one strided slice of the sieve.
    """
    validate_period(period)
    free = bytearray(b"\x01") * period
    for e in existing:
        step = e.period if e.period < period else period
        start = e.offset % step
        free[start::step] = bytes(len(range(start, period, step)))
    return free


def find_free_offset(
    period: int, existing: Sequence[Assignment]
) -> Optional[int]:
    """Smallest offset in [0, period) not conflicting with ``existing``,
    or None when the tag cannot fit — the reader's Sec. 5.6 viability
    check uses exactly this predicate."""
    offset = free_offsets(period, existing).find(1)
    return None if offset < 0 else offset


def schedule_table(
    assignments: Mapping[str, Assignment], n_slots: Optional[int] = None
) -> List[List[str]]:
    """Render the schedule as per-slot transmitter lists (Table 1).

    Defaults to one hyperperiod (the maximum period).
    """
    if not assignments:
        return []
    horizon = n_slots if n_slots is not None else max(
        a.period for a in assignments.values()
    )
    table: List[List[str]] = []
    for slot in range(horizon):
        table.append(
            sorted(t for t, a in assignments.items() if a.transmits_in(slot))
        )
    return table


def count_collision_slots(table: Sequence[Sequence[str]]) -> int:
    """Number of slots in a rendered table with more than one transmitter."""
    return sum(1 for slot in table if len(slot) > 1)
