"""The Fig. 8 beacon-loss story, reproduced deterministically.

Paper setup: slots 2 and 6 free (mod 8); tags A, B, C, D occupy the
rest.  Tag C (offset 1) misses a beacon: its local counter stalls and
its *effective* offset shifts by +1 — first into free slot 2 (harmless,
Fig. 8b), then, after a second miss, into B's slot 3 (collision,
Fig. 8c).  The Sec. 5.4 refinement (the watchdog) prevents the
collision by sending C back to MIGRATE at the first miss.
"""

import pytest

from repro.core.tag_protocol import TagMac
from repro.phy.packets import DownlinkBeacon

ACK = DownlinkBeacon(ack=True, empty=True)
NACK = DownlinkBeacon(ack=False, empty=True)


def settled_tag(name, tid, period, offset):
    """A tag driven into SETTLE at the given offset."""
    offsets = iter([offset, 99])  # 99 would fail validation if re-picked

    def picker(p):
        value = next(offsets)
        assert value < p, "tag unexpectedly re-picked its offset"
        return value

    tag = TagMac(name, tid=tid, period=period, offset_picker=picker)
    # Walk to its slot, transmit, and take the ACK.
    while tag.slot_counter % period != offset:
        tag.on_beacon(NACK)
    assert tag.on_beacon(NACK) is True
    tag.on_beacon(ACK)
    assert tag.ever_settled
    return tag


class TestEffectiveOffsetShift:
    """Sec. 5.4 analysis: a missed beacon shifts the offset by one."""

    def test_miss_shifts_transmissions_one_slot_later(self):
        # Tag C: period 8, offset 1 (the paper's example).
        tag = settled_tag("C", 2, 8, 1)
        # Run it to just before its slot, then make it miss one beacon
        # WITHOUT the watchdog reaction (vanilla behaviour): emulate by
        # simply not delivering the beacon and not firing the watchdog.
        while tag.slot_counter % 8 != 0:
            tag.on_beacon(ACK)
        tag.slot_counter += 0  # at local index == 0 (mod 8)
        # Beacon for global slot G is lost: local counter stalls.
        # (vanilla: no watchdog, nothing happens at the tag)
        # Next beacon arrives at global slot G+1; the tag believes it is
        # at local slot G, i.e. ≡ 0 (mod 8)... one more beacon makes its
        # local ≡ 1 — but globally that slot is ≡ 2: shifted by one.
        global_slot = tag.slot_counter + 1  # one lost beacon
        assert tag.on_beacon(ACK) is False  # local 0 -> no tx
        global_slot += 1
        transmit = tag.on_beacon(ACK)  # local 1 (its offset) -> transmits
        global_slot += 1
        assert transmit is True
        # Ground truth: the transmission happened at global ≡ 2 (mod 8),
        # the unoccupied slot of Fig. 8(b).
        assert (global_slot - 1) % 8 == 2

    def test_watchdog_prevents_the_eventual_collision(self):
        # With the refinement, the first miss demotes C immediately —
        # it never drifts into B's slot.
        tag = settled_tag("C", 2, 8, 1)
        offsets_after = iter([5])
        tag.machine._pick = lambda p: next(offsets_after)
        tag.on_beacon_loss()  # the watchdog fires on the missed beacon
        from repro.core.state_machine import TagState

        assert tag.machine.state is TagState.MIGRATE
        assert tag.offset == 5  # fresh random offset, not a silent drift


class TestStationaryNeighbours:
    def test_tag_b_is_undisturbed(self):
        # Fig. 8 refinement: "tag B remains in its original offset 3" —
        # adjustments are confined to the errant tag.
        b = settled_tag("B", 1, 8, 3)
        for _ in range(24):
            b.on_beacon(ACK)
            if b.slot_counter % 8 == 4:  # just transmitted at offset 3
                pass
        assert b.ever_settled
        assert b.offset == 3
