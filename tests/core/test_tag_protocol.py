"""Tests for the tag-side MAC."""

import itertools

import pytest

from repro.core.state_machine import TagState
from repro.core.tag_protocol import TagMac
from repro.phy.packets import DownlinkBeacon


def make_tag(period=4, offsets=None, late_arrival=False, **kwargs):
    if offsets is None:
        counter = itertools.count()
        picker = lambda p: next(counter) % p
    else:
        it = iter(offsets)
        picker = lambda p: next(it)
    return TagMac("tagX", tid=1, period=period, offset_picker=picker,
                  late_arrival=late_arrival, **kwargs)


BEACON = DownlinkBeacon(ack=False, empty=True)
ACK = DownlinkBeacon(ack=True, empty=True)


class TestSlotCounting:
    def test_counter_increments_per_beacon(self):
        tag = make_tag()
        for _ in range(5):
            tag.on_beacon(BEACON)
        assert tag.slot_counter == 5

    def test_transmits_at_matching_slot(self):
        tag = make_tag(period=4, offsets=[2])
        first = [tag.on_beacon(BEACON) for _ in range(3)]  # slots 0-2
        assert first == [False, False, True]
        tag.on_beacon(ACK)  # slot 3: feedback settles the tag at offset 2
        rest = [tag.on_beacon(ACK) for _ in range(8)]  # slots 4-11
        assert rest == [False, False, True, False] * 2

    def test_counter_stalls_on_beacon_loss(self):
        # Sec. 5.4: a missed beacon shifts the effective offset by one.
        tag = make_tag(period=4, offsets=[2, 2])
        tag.on_beacon(BEACON)
        tag.on_beacon_loss()
        assert tag.slot_counter == 1
        assert tag.beacons_missed == 1


class TestFeedbackGating:
    def test_ack_ignored_if_did_not_transmit(self):
        # "Tags respond to ACK/NACK only if they transmitted at the
        # last slot."
        tag = make_tag(period=4, offsets=[2])
        tag.on_beacon(ACK)  # slot 0: not our slot, ACK must be ignored
        assert tag.state is TagState.MIGRATE

    def test_ack_after_transmission_settles(self):
        tag = make_tag(period=4, offsets=[0])
        assert tag.on_beacon(BEACON) is True  # slot 0: transmits
        tag.on_beacon(ACK)  # feedback for slot 0
        assert tag.state is TagState.SETTLE
        assert tag.ever_settled

    def test_nack_after_transmission_migrates(self):
        tag = make_tag(period=4, offsets=[0, 3])
        tag.on_beacon(BEACON)
        tag.on_beacon(BEACON)  # NACK (no ack flag)
        assert tag.state is TagState.MIGRATE
        assert tag.offset == 3

    def test_transmitted_flag_cleared_after_feedback(self):
        tag = make_tag(period=4, offsets=[0])
        tag.on_beacon(BEACON)
        assert tag.transmitted_last_slot
        tag.on_beacon(ACK)
        # Settled at offset 0 -> transmits again at slot 4, not slot 1.
        assert tag.on_beacon(ACK) is False or tag.slot_counter % 4 == 0


class TestReset:
    def test_reset_clears_state_and_counter(self):
        tag = make_tag(period=4, offsets=[0, 1])
        tag.on_beacon(BEACON)
        tag.on_beacon(ACK)
        tag.on_beacon(DownlinkBeacon(reset=True, empty=True))
        assert tag.state is TagState.MIGRATE
        assert tag.slot_counter == 1  # counts restart from the RESET beacon
        assert not tag.ever_settled


class TestEmptyFlagGating:
    def test_late_tag_defers_when_slot_predicted_busy(self):
        tag = make_tag(period=4, offsets=[0, 2], late_arrival=True)
        assert tag.on_beacon(DownlinkBeacon(empty=False)) is False
        assert tag.offset == 2  # re-rolled instead of colliding

    def test_late_tag_transmits_when_empty(self):
        tag = make_tag(period=4, offsets=[0], late_arrival=True)
        assert tag.on_beacon(DownlinkBeacon(empty=True)) is True

    def test_early_tag_ignores_empty_flag(self):
        # Sec. 5.5: "only newly arriving tags respond to the EMPTY flag".
        tag = make_tag(period=4, offsets=[0], late_arrival=False)
        assert tag.on_beacon(DownlinkBeacon(empty=False)) is True

    def test_late_tag_stops_obeying_after_first_settle(self):
        tag = make_tag(period=4, offsets=[0], late_arrival=True)
        tag.on_beacon(DownlinkBeacon(empty=True))  # slot 0: transmits
        tag.on_beacon(DownlinkBeacon(ack=True, empty=True))  # slot 1: settles
        assert not tag.is_new
        tag.on_beacon(DownlinkBeacon(empty=True))  # slot 2
        tag.on_beacon(DownlinkBeacon(empty=True))  # slot 3
        # Slot 4 is the tag's scheduled slot; settled tags transmit
        # regardless of the EMPTY prediction.
        assert tag.on_beacon(DownlinkBeacon(empty=False)) is True

    def test_gating_can_be_disabled(self):
        tag = make_tag(period=4, offsets=[0], late_arrival=True,
                       respect_empty_flag=False)
        assert tag.on_beacon(DownlinkBeacon(empty=False)) is True


class TestBeaconLoss:
    def test_watchdog_demotes_settled_tag(self):
        tag = make_tag(period=4, offsets=[0, 1])
        tag.on_beacon(BEACON)
        tag.on_beacon(ACK)
        assert tag.state is TagState.SETTLE
        tag.on_beacon_loss()
        assert tag.state is TagState.MIGRATE

    def test_no_transmission_during_loss(self):
        tag = make_tag(period=4, offsets=[0, 0])
        assert tag.on_beacon_loss() is False


class TestConsecutiveBeaconLoss:
    def test_counter_tracks_loss_runs(self):
        tag = make_tag(period=4)  # cycling picker: demotes re-roll freely
        for expected in (1, 2, 3):
            tag.on_beacon_loss()
            assert tag.consecutive_beacon_losses == expected
        tag.on_beacon(BEACON)
        assert tag.consecutive_beacon_losses == 0
        tag.on_beacon_loss()
        assert tag.consecutive_beacon_losses == 1
        assert tag.beacons_missed == 4  # lifetime total keeps counting

    def test_each_loss_in_a_run_demotes_without_hook(self):
        # Vanilla Sec. 5.4: every loss re-rolls the offset; a run of N
        # losses consumes N picks from the offset picker.
        picks = []

        def picker(p):
            picks.append(p)
            return len(picks) % p

        tag = TagMac("tagX", tid=1, period=4, offset_picker=picker)
        initial = len(picks)
        tag.on_beacon(ACK)
        for _ in range(5):
            tag.on_beacon_loss()
        assert len(picks) - initial >= 5

    def test_hook_sees_every_loss_in_sequence(self):
        seen = []

        class Hook:
            def on_beacon_loss(self, t):
                seen.append(t.consecutive_beacon_losses)
                return True

            def on_power_cycle(self, t):
                pass

        tag = make_tag(period=4, offsets=[2])
        tag.attach_recovery(Hook())
        for _ in range(4):
            tag.on_beacon_loss()
        assert seen == [1, 2, 3, 4]

    def test_suppressed_loss_keeps_offset_and_state(self):
        class Hold:
            def on_beacon_loss(self, t):
                return True

            def on_power_cycle(self, t):
                pass

        tag = make_tag(period=4, offsets=[2, 0])
        tag.on_beacon(BEACON)
        tag.on_beacon(BEACON)
        tag.on_beacon(BEACON)  # slot 2: transmits at its offset
        tag.on_beacon(ACK)  # settles
        tag.attach_recovery(Hold())
        for _ in range(6):
            tag.on_beacon_loss()
        assert tag.state is TagState.SETTLE
        assert tag.offset == 2

    def test_detached_hook_restores_vanilla_demote(self):
        class Hold:
            def on_beacon_loss(self, t):
                return True

            def on_power_cycle(self, t):
                pass

        tag = make_tag(period=4, offsets=[0, 1])
        tag.on_beacon(ACK)
        tag.attach_recovery(Hold())
        tag.on_beacon_loss()
        tag.attach_recovery(None)
        tag.on_beacon_loss()
        assert tag.state is TagState.MIGRATE


class TestPowerCycleRejoin:
    def test_power_cycle_counts_and_resets_protocol_state(self):
        tag = make_tag(period=4, offsets=[2, 1])
        for _ in range(3):
            tag.on_beacon(BEACON)
        tag.on_beacon(ACK)
        tag.power_cycle()
        assert tag.power_cycles == 1
        assert tag.slot_counter == 0
        assert not tag.ever_settled
        assert tag.late_arrival  # rejoins as an EMPTY-gated newcomer

    def test_power_cycle_notifies_hook_synchronously(self):
        events = []

        class Hook:
            def on_beacon_loss(self, t):
                return False

            def on_power_cycle(self, t):
                events.append(t.power_cycles)
                t.rejoin_holdoff = 7

        tag = make_tag(period=4, offsets=[2, 1])
        tag.attach_recovery(Hook())
        tag.power_cycle()
        assert events == [1]
        assert tag.rejoin_holdoff == 7  # armed before the next beacon

    def test_holdoff_silences_and_drains_per_beacon(self):
        tag = make_tag(period=2, offsets=[0])
        tag.rejoin_holdoff = 4
        decisions = [tag.on_beacon(BEACON) for _ in range(4)]
        assert decisions == [False] * 4
        assert tag.rejoin_holdoff == 0
        assert tag.slot_counter == 4  # counter keeps tracking beacons
        # Holdoff drained: slot 4 matches offset 0 mod 2, so it speaks.
        assert tag.on_beacon(BEACON) is True

    def test_holdoff_still_processes_feedback_and_reset(self):
        tag = make_tag(period=4, offsets=[0, 3])
        tag.on_beacon(ACK)  # transmits at slot 0... 
        assert tag.transmitted_last_slot
        tag.rejoin_holdoff = 1
        tag.on_beacon(DownlinkBeacon(ack=True, empty=True))
        assert tag.state is TagState.SETTLE  # ACK applied despite holdoff
        tag.rejoin_holdoff = 1
        tag.on_beacon(DownlinkBeacon(ack=False, empty=True, reset=True))
        assert tag.slot_counter == 1  # RESET zeroed it, then +1 this slot
        assert not tag.ever_settled

    def test_consecutive_power_cycles_under_fault_schedule(self):
        from repro.core.network import NetworkConfig, SlottedNetwork
        from repro.faults.schedule import FaultEvent, FaultSchedule

        schedule = FaultSchedule(
            [
                FaultEvent(slot=100, duration=5, kind="brownout", target="tag2"),
                FaultEvent(slot=150, duration=5, kind="brownout", target="tag2"),
                FaultEvent(slot=200, duration=5, kind="brownout", target="tag2"),
            ]
        )
        net = SlottedNetwork(
            {"tag1": 4, "tag2": 8, "tag3": 8},
            config=NetworkConfig(seed=0, ideal_channel=True),
            faults=schedule,
        )
        net.run(400)
        assert net.tags["tag2"].power_cycles == 3
        assert net.run_until_converged() is not None
