"""Tests for the reader-side MAC."""

import pickle
from dataclasses import asdict

import pytest

from repro.channel.medium import SlotObservation
from repro.core.reader_protocol import ReaderMac, SlotRecord


def obs(transmitters=(), decoded=None, collision=False):
    return SlotObservation(tuple(transmitters), decoded, collision)


def run_slot(reader, decoded=None, collision=False, transmitters=None):
    """Open a slot (beacon) and feed it an observation."""
    beacon = reader.make_beacon()
    txs = transmitters if transmitters is not None else (
        [decoded] if decoded else []
    )
    record = reader.on_slot_observation(obs(txs, decoded, collision))
    return beacon, record


class TestAckPolicy:
    def test_clean_decode_acked_next_beacon(self):
        r = ReaderMac({"a": 4})
        run_slot(r, decoded="a")
        beacon, _ = run_slot(r)
        assert beacon.ack

    def test_empty_slot_not_acked(self):
        r = ReaderMac({"a": 4})
        run_slot(r)
        beacon, _ = run_slot(r)
        assert not beacon.ack

    def test_collision_never_acked_even_with_capture(self):
        # Sec. 5.3: ">2 IQ clusters" overrides a captured decode.
        r = ReaderMac({"a": 4, "b": 4})
        run_slot(r, decoded="a", collision=True, transmitters=["a", "b"])
        beacon, _ = run_slot(r)
        assert not beacon.ack

    def test_unprovisioned_tag_gets_plain_ack(self):
        r = ReaderMac({})
        run_slot(r, decoded="mystery")
        beacon, _ = run_slot(r)
        assert beacon.ack


class TestEmptyFlag:
    def test_empty_before_any_history(self):
        r = ReaderMac({"a": 4})
        assert r.make_beacon().empty

    def test_slot_with_activity_predicts_busy_one_period_later(self):
        r = ReaderMac({"a": 4})
        run_slot(r, decoded="a")  # slot 0 occupied
        for _ in range(3):
            run_slot(r)  # slots 1-3 empty
        # Slot 4 = slot 0 + period: predicted busy.
        assert not r.make_beacon().empty

    def test_quiet_slot_predicts_empty(self):
        r = ReaderMac({"a": 4})
        run_slot(r, decoded="a")  # slot 0
        run_slot(r)  # slot 1 quiet
        run_slot(r)
        run_slot(r)
        run_slot(r, decoded="a")  # slot 4
        # Slot 5 checks slot 1: quiet -> empty.
        assert r.make_beacon().empty

    def test_collision_counts_as_activity(self):
        r = ReaderMac({"a": 4, "b": 4})
        run_slot(r, collision=True, transmitters=["a", "b"])
        for _ in range(3):
            run_slot(r)
        assert not r.make_beacon().empty

    def test_prediction_is_attributed_to_the_tags_own_period(self):
        r = ReaderMac({"a": 4, "b": 8})
        run_slot(r, decoded="a")  # slot 0: tag a (period 4)
        for _ in range(7):
            run_slot(r)
        # Slot 8: tag a returns at period 4 (slots 4, 8, ...), but slot 4
        # was quiet so a has left; tag b never occupied slot 0 — the
        # decode there was a's, which says nothing about period 8.
        assert r.make_beacon().empty

    def test_attributed_tag_predicts_its_own_return(self):
        r = ReaderMac({"a": 4, "b": 8})
        run_slot(r, decoded="a")  # slot 0
        for _ in range(3):
            run_slot(r)
        # Slot 4 = slot 0 + a's period: predicted busy.
        assert not r.make_beacon().empty

    def test_unattributed_collision_is_conservative(self):
        r = ReaderMac({"a": 4, "b": 8})
        run_slot(r, collision=True, transmitters=["a", "b"])  # slot 0
        for _ in range(3):
            run_slot(r)
        assert not r.make_beacon().empty  # slot 4: maybe the collider
        for _ in range(4):
            run_slot(r)
        assert not r.make_beacon().empty  # slot 8: maybe the collider

    def test_flag_disabled_by_config(self):
        r = ReaderMac({"a": 4}, enable_empty_flag=False)
        run_slot(r, decoded="a")
        for _ in range(3):
            run_slot(r)
        assert r.make_beacon().empty  # always true when disabled


class TestFutureCollisionAvoidance:
    def _settle(self, reader, tag, period, offset):
        """Drive the reader until ``tag`` is committed at ``offset``."""
        while reader.slot_index % period != offset:
            run_slot(reader)
        run_slot(reader, decoded=tag)

    def test_newcomer_with_no_viable_offset_nacked(self):
        # The Sec. 5.6 example: A and B (period 4) at offsets 2 and 3
        # block every offset of newcomer C (period 2).
        r = ReaderMac({"A": 4, "B": 4, "C": 2})
        self._settle(r, "A", 4, 2)
        self._settle(r, "B", 4, 3)
        # C decodes cleanly at an even slot (offset 0 mod 2).
        while r.slot_index % 2 != 0:
            run_slot(r)
        run_slot(r, decoded="C")
        beacon, _ = run_slot(r)
        assert not beacon.ack
        # A victim eviction must have begun to reopen the competition.
        assert len(r.evicting()) == 1

    def test_eviction_forces_victim_out_after_n_nacks(self):
        r = ReaderMac({"A": 4, "B": 4, "C": 2}, nack_threshold=3)
        self._settle(r, "A", 4, 2)
        self._settle(r, "B", 4, 3)
        while r.slot_index % 2 != 0:
            run_slot(r)
        run_slot(r, decoded="C")
        victim = next(iter(r.evicting()))
        # The victim keeps transmitting in its slot; the reader NACKs it
        # three times, then drops its commitment.
        for _ in range(3):
            while r.slot_index % 4 != dict(A=2, B=3)[victim]:
                run_slot(r)
            beacon, _ = run_slot(r, decoded=victim)
        assert victim not in r.evicting()
        assert victim not in r.committed_assignments

    def test_partial_pattern_conflict_nacked_despite_clean_decode(self):
        # A (period 4, offset 2) settled; newcomer with period 2 decodes
        # cleanly at offset 0 mod 2 — a future collision at slots 2 mod 4.
        r = ReaderMac({"A": 4, "N": 2})
        self._settle(r, "A", 4, 2)
        while r.slot_index % 2 != 0:
            run_slot(r)
        run_slot(r, decoded="N")
        beacon, _ = run_slot(r)
        assert not beacon.ack

    def test_viable_newcomer_acked_and_committed(self):
        r = ReaderMac({"A": 4, "N": 4})
        self._settle(r, "A", 4, 2)
        while r.slot_index % 4 != 1:
            run_slot(r)
        run_slot(r, decoded="N")
        beacon, _ = run_slot(r)
        assert beacon.ack
        assert r.committed_assignments["N"].offset == 1

    def test_disabled_avoidance_acks_naively(self):
        r = ReaderMac({"A": 4, "N": 2}, enable_future_avoidance=False)
        self._settle(r, "A", 4, 2)
        while r.slot_index % 2 != 0:
            run_slot(r)
        run_slot(r, decoded="N")
        beacon, _ = run_slot(r)
        assert beacon.ack  # the ablation baseline


class TestCommitmentExpiry:
    def test_vacated_slot_expires_commitment(self):
        r = ReaderMac({"a": 4})
        run_slot(r, decoded="a")  # committed at offset 0
        assert "a" in r.committed_assignments
        for _ in range(3):
            run_slot(r)
        run_slot(r)  # slot 4 = a's slot, but empty: the tag left
        assert "a" not in r.committed_assignments

    def test_collision_at_slot_keeps_commitment(self):
        r = ReaderMac({"a": 4, "b": 4})
        run_slot(r, decoded="a")
        for _ in range(3):
            run_slot(r)
        # Slot 4: a collides with a prober — activity, so 'a' stays.
        run_slot(r, collision=True, transmitters=["a", "b"])
        assert "a" in r.committed_assignments


class TestReset:
    def test_reset_flag_in_next_beacon_only(self):
        r = ReaderMac({"a": 4})
        r.request_reset()
        assert r.make_beacon().reset
        r.on_slot_observation(obs())
        assert not r.make_beacon().reset

    def test_reset_clears_reader_state(self):
        r = ReaderMac({"a": 4})
        run_slot(r, decoded="a")
        r.request_reset()
        r.make_beacon()
        assert r.committed_assignments == {}


class TestRecords:
    def test_record_fields(self):
        r = ReaderMac({"a": 4, "b": 4})
        _, record = run_slot(r, decoded="a", transmitters=["a"])
        assert record.slot == 0
        assert record.decoded == "a"
        assert record.truly_nonempty
        assert not record.truly_collided
        assert record.occupied

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            ReaderMac({"a": 3})

    def test_record_is_slotted_and_pickles(self):
        r = ReaderMac({"a": 4, "b": 4})
        _, record = run_slot(r, decoded="a", transmitters=["a"])
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.note = "x"
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is SlotRecord
        assert copy == record
        assert asdict(copy) == asdict(record) == {
            "slot": 0,
            "n_transmitters": 1,
            "decoded": "a",
            "collision_detected": False,
            "acked": True,
            "empty_flag": True,
        }


class TestEvictionCornerCases:
    def _settle(self, reader, tag, period, offset):
        while reader.slot_index % period != offset:
            run_slot(reader)
        run_slot(reader, decoded=tag)

    def _blocked_setup(self):
        r = ReaderMac({"A": 4, "B": 4, "C": 2})
        self._settle(r, "A", 4, 2)
        self._settle(r, "B", 4, 3)
        while r.slot_index % 2 != 0:
            run_slot(r)
        run_slot(r, decoded="C")  # triggers eviction of a victim
        assert len(r.evicting()) == 1
        return r

    def test_expiry_lifts_eviction_when_victim_vanishes(self):
        # The victim browns out instead of migrating: its committed slot
        # goes quiet, the commitment expires, and the eviction entry is
        # dropped with it — no phantom forcing.
        r = self._blocked_setup()
        victim = next(iter(r.evicting()))
        victim_offset = {"A": 2, "B": 3}[victim]
        while r.slot_index % 4 != victim_offset:
            run_slot(r)
        run_slot(r)  # the victim's slot passes with NO activity
        assert victim not in r.evicting()
        assert victim not in r.committed_assignments

    def test_newcomer_acked_after_victim_leaves(self):
        r = self._blocked_setup()
        victim = next(iter(r.evicting()))
        victim_offset = {"A": 2, "B": 3}[victim]
        while r.slot_index % 4 != victim_offset:
            run_slot(r)
        run_slot(r)  # expiry clears the victim
        # C retries at an even slot congruent with the vacated space.
        target = victim_offset % 2
        while r.slot_index % 2 != target:
            run_slot(r)
        run_slot(r, decoded="C")
        beacon, _ = run_slot(r)
        assert beacon.ack
        assert r.committed_assignments["C"].offset == target

    def test_migrated_victim_gets_fresh_placement(self):
        r = self._blocked_setup()
        victim = next(iter(r.evicting()))
        other = "B" if victim == "A" else "A"
        other_offset = {"A": 2, "B": 3}[other]
        # The victim shows up at a brand-new offset (it migrated on its
        # own): eviction lifts and the new spot is evaluated normally.
        new_offset = next(
            o for o in range(4)
            if o not in (other_offset,) and o % 2 != other_offset % 2
        )
        while r.slot_index % 4 != new_offset:
            run_slot(r)
        run_slot(r, decoded=victim)
        assert victim not in r.evicting()


class TestReleaseAssignment:
    def test_release_drops_commitment(self):
        r = ReaderMac({"a": 4})
        run_slot(r, decoded="a")
        assert "a" in r.committed_assignments
        assert r.release_assignment("a") is True
        assert "a" not in r.committed_assignments

    def test_release_unknown_tag_is_false(self):
        r = ReaderMac({"a": 4})
        assert r.release_assignment("a") is False
        assert r.release_assignment("stranger") is False

    def test_release_drops_eviction_entry_with_commitment(self):
        # The leak the PR-3 audit targets: dropping only the commitment
        # would orphan the eviction ledger entry, permanently excluding
        # the tag from future victim selection and making
        # _start_eviction reason about a slot nobody holds.
        r = ReaderMac({"A": 4, "B": 4, "C": 2})
        while r.slot_index % 4 != 2:
            run_slot(r)
        run_slot(r, decoded="A")
        while r.slot_index % 4 != 3:
            run_slot(r)
        run_slot(r, decoded="B")
        while r.slot_index % 2 != 0:
            run_slot(r)
        run_slot(r, decoded="C")  # blocked: eviction starts
        victim = next(iter(r.evicting()))
        assert r.release_assignment(victim) is True
        assert victim not in r.evicting()
        assert victim not in r.committed_assignments

    def test_released_tag_is_eligible_as_victim_again(self):
        r = ReaderMac({"A": 4, "B": 4, "C": 2})
        while r.slot_index % 4 != 2:
            run_slot(r)
        run_slot(r, decoded="A")
        r.release_assignment("A")
        # A re-settles cleanly: a stale eviction entry would have
        # poisoned this placement with forced NACKs.
        while r.slot_index % 4 != 2:
            run_slot(r)
        run_slot(r, decoded="A")
        beacon, _ = run_slot(r)
        assert beacon.ack
        assert r.committed_assignments["A"].offset == 2


class TestRestartEvictionAudit:
    """Audit trail for restart x in-flight eviction interactions: the
    two ledgers must always move together (evicting is a subset of
    committed between slots), whichever path tears an entry down."""

    def _mid_eviction(self):
        r = ReaderMac({"A": 4, "B": 4, "C": 2})
        while r.slot_index % 4 != 2:
            run_slot(r)
        run_slot(r, decoded="A")
        while r.slot_index % 4 != 3:
            run_slot(r)
        run_slot(r, decoded="B")
        while r.slot_index % 2 != 0:
            run_slot(r)
        run_slot(r, decoded="C")
        assert len(r.evicting()) == 1
        return r

    def test_restart_clears_both_ledgers(self):
        r = self._mid_eviction()
        r.restart()
        assert r.evicting() == set()
        assert r.committed_assignments == {}

    def test_reset_clears_both_ledgers(self):
        r = self._mid_eviction()
        r.request_reset()
        r.make_beacon()
        assert r.evicting() == set()
        assert r.committed_assignments == {}

    def test_evicting_is_subset_of_committed_through_eviction(self):
        # Drive the whole eviction to completion, checking the subset
        # invariant between every slot.
        r = self._mid_eviction()
        victim = next(iter(r.evicting()))
        victim_offset = {"A": 2, "B": 3}[victim]
        for _ in range(4 * r.nack_threshold):
            if r.slot_index % 4 == victim_offset:
                run_slot(r, decoded=victim)  # victim absorbs a forced NACK
            else:
                run_slot(r)
            assert r.evicting() <= set(r.committed_assignments), (
                r.evicting(),
                set(r.committed_assignments),
            )
        assert victim not in r.evicting()

    def test_restart_mid_eviction_allows_clean_resettle(self):
        # After a reader reboot the old eviction must not haunt the
        # victim: everyone re-places from scratch on observed traffic.
        r = self._mid_eviction()
        victim = next(iter(r.evicting()))
        victim_offset = {"A": 2, "B": 3}[victim]
        r.restart()
        while r.slot_index % 4 != victim_offset:
            run_slot(r)
        run_slot(r, decoded=victim)
        beacon, _ = run_slot(r)
        assert beacon.ack
        assert victim in r.committed_assignments
        assert victim not in r.evicting()
