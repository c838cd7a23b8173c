"""Tests for vanilla slot allocation and schedule algebra."""

from fractions import Fraction

import pytest
from core.oracles import find_free_offset_reference, free_offsets_reference
from hypothesis import given, settings, strategies as st

from repro.core.slot_schedule import (
    Assignment,
    ScheduleError,
    assign_offsets,
    count_collision_slots,
    find_free_offset,
    free_offsets,
    is_permissible_period,
    offsets_conflict,
    schedule_table,
    slot_utilization,
)
from repro.experiments.configs import TABLE1_OFFSETS, TABLE1_PERIODS

periods_strategy = st.lists(
    st.sampled_from([1, 2, 4, 8, 16, 32]), min_size=1, max_size=10
)


class TestPeriods:
    def test_powers_of_two_permissible(self):
        for p in (1, 2, 4, 8, 16, 32, 64):
            assert is_permissible_period(p)

    def test_non_powers_rejected(self):
        for p in (0, 3, 5, 6, 7, 12, -4):
            assert not is_permissible_period(p)

    def test_utilization_exact_fractions(self):
        u = slot_utilization([2, 4, 8, 8])
        assert u == Fraction(1)  # Table 1's configuration saturates

    def test_utilization_c3(self):
        # Pattern c3: 1x4 + 2x8 + 2x16 + 7x32 = 0.84375.
        periods = [4] + [8] * 2 + [16] * 2 + [32] * 7
        assert slot_utilization(periods) == Fraction(27, 32)

    def test_invalid_period_raises(self):
        with pytest.raises(ValueError):
            slot_utilization([3])


class TestConflicts:
    def test_same_offset_same_period_conflicts(self):
        assert offsets_conflict(4, 2, 4, 2)

    def test_different_offsets_same_period_disjoint(self):
        assert not offsets_conflict(4, 1, 4, 2)

    def test_nested_period_conflict(self):
        # (2, 0) occupies slots 0,2,4..; (4, 2) occupies 2,6,..: overlap.
        assert offsets_conflict(2, 0, 4, 2)

    def test_nested_period_disjoint(self):
        assert not offsets_conflict(2, 0, 4, 1)

    @given(
        st.sampled_from([2, 4, 8]),
        st.integers(0, 7),
        st.sampled_from([2, 4, 8]),
        st.integers(0, 7),
    )
    def test_conflict_matches_bruteforce(self, pa, aa, pb, ab):
        aa %= pa
        ab %= pb
        brute = any(
            s % pa == aa and s % pb == ab for s in range(pa * pb)
        )
        assert offsets_conflict(pa, aa, pb, ab) == brute


class TestAssignOffsets:
    def test_table1_configuration_assignable(self):
        result = assign_offsets(TABLE1_PERIODS)
        table = schedule_table(result)
        assert count_collision_slots(table) == 0
        # Utilization 1.0: every slot of the hyperperiod is used.
        assert all(len(slot) == 1 for slot in table)

    def test_table1_paper_offsets_are_valid_preassignment(self):
        result = assign_offsets(TABLE1_PERIODS, preassigned=TABLE1_OFFSETS)
        for tag, offset in TABLE1_OFFSETS.items():
            assert result[tag].offset == offset
        assert count_collision_slots(schedule_table(result)) == 0

    def test_over_capacity_raises(self):
        with pytest.raises(ScheduleError):
            assign_offsets({"a": 2, "b": 2, "c": 2})

    def test_conflicting_preassignment_raises(self):
        with pytest.raises(ScheduleError):
            assign_offsets({"a": 4, "b": 4}, preassigned={"a": 1, "b": 1})

    def test_preassigned_unknown_tag_raises(self):
        with pytest.raises(ScheduleError):
            assign_offsets({"a": 4}, preassigned={"zz": 0})

    @given(periods_strategy)
    def test_greedy_succeeds_whenever_capacity_allows(self, periods):
        mapping = {f"t{i}": p for i, p in enumerate(periods)}
        if slot_utilization(periods) <= 1:
            result = assign_offsets(mapping)
            assert count_collision_slots(schedule_table(result)) == 0
        else:
            with pytest.raises(ScheduleError):
                assign_offsets(mapping)

    @given(periods_strategy)
    def test_assignment_respects_periods(self, periods):
        mapping = {f"t{i}": p for i, p in enumerate(periods)}
        if slot_utilization(periods) <= 1:
            for tag, a in assign_offsets(mapping).items():
                assert a.period == mapping[tag]
                assert 0 <= a.offset < a.period


class TestFindFreeOffset:
    def test_finds_gap(self):
        existing = [Assignment("a", 4, 0), Assignment("b", 4, 1)]
        offset = find_free_offset(4, existing)
        assert offset in (2, 3)

    def test_returns_none_when_blocked(self):
        # The Sec. 5.6 example: A and B (period 4) at offsets 2 and 3
        # leave no room for a period-2 newcomer.
        existing = [Assignment("A", 4, 2), Assignment("B", 4, 3)]
        assert find_free_offset(2, existing) is None

    def test_empty_existing_gives_zero(self):
        assert find_free_offset(8, []) == 0


PROP = settings(max_examples=200, deadline=None, derandomize=True)

POWERS = [1, 2, 4, 8, 16, 32, 64]

#: Arbitrary commitment sets: any power-of-two periods, offsets in
#: range, possibly conflicting among themselves, possibly empty.
commitments = st.lists(
    st.sampled_from(POWERS).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(0, p - 1))
    ),
    max_size=24,
)


def as_assignments(pairs):
    return [Assignment(f"t{i}", p, o) for i, (p, o) in enumerate(pairs)]


class TestResidueSieve:
    """``find_free_offset`` sieves residues; the oracle scans every
    offset against every assignment."""

    @PROP
    @given(st.sampled_from(POWERS), commitments)
    def test_sieve_matches_bruteforce_oracle(self, period, pairs):
        existing = as_assignments(pairs)
        assert find_free_offset(period, existing) == find_free_offset_reference(
            period, existing
        )
        assert list(free_offsets(period, existing)) == free_offsets_reference(
            period, existing
        )

    @PROP
    @given(st.sampled_from(POWERS), st.lists(st.integers(0, 1 << 16), max_size=12))
    def test_fully_booked_schedule_has_no_room(self, period, splits):
        # Tile the whole slot grid: start from one period-1 pattern and
        # repeatedly split a pattern into its two halves.
        periods = [1]
        for s in splits:
            i = s % len(periods)
            if periods[i] < 64:
                half = 2 * periods.pop(i)
                periods += [half, half]
        existing = list(
            assign_offsets({f"t{i}": p for i, p in enumerate(periods)}).values()
        )
        assert find_free_offset_reference(period, existing) is None
        assert find_free_offset(period, existing) is None
        assert not any(free_offsets(period, existing))

    def test_empty_set_leaves_every_offset_free(self):
        assert free_offsets(8, []) == bytearray(b"\x01" * 8)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            free_offsets(6, [])


class TestScheduleTable:
    def test_table1_rendering_matches_paper(self):
        assignments = {
            t: Assignment(t, TABLE1_PERIODS[t], TABLE1_OFFSETS[t])
            for t in TABLE1_PERIODS
        }
        table = schedule_table(assignments, 8)
        # Paper Table 1: A at 0,2,4,6; B at 1,5; D at 3; C at 7.
        assert table[0] == ["tA"]
        assert table[1] == ["tB"]
        assert table[3] == ["tD"]
        assert table[7] == ["tC"]

    def test_empty_assignments(self):
        assert schedule_table({}) == []

    def test_transmits_in(self):
        a = Assignment("x", 4, 1)
        assert a.transmits_in(5)
        assert not a.transmits_in(4)

    def test_invalid_offset_raises(self):
        with pytest.raises(ValueError):
            Assignment("x", 4, 4)
