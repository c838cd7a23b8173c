"""Per-layer injector behaviour: state transitions, exact restoration,
and the controller's per-slot query surface."""

import numpy as np
import pytest

from repro.channel.medium import SlotObservation
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.faults.controller import FaultState
from repro.faults.injectors import MacFaultInjector, flip_bits
from repro.faults.schedule import ALL_KINDS, FaultEvent, FaultSchedule
from repro.phy.packets import DownlinkBeacon

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8}


def make_net(events, **config_kwargs):
    config_kwargs.setdefault("seed", 3)
    config_kwargs.setdefault("ideal_channel", True)
    return SlottedNetwork(
        PERIODS,
        config=NetworkConfig(**config_kwargs),
        faults=FaultSchedule(events),
    )


class TestFlipBits:
    def test_flips_listed_positions(self):
        assert flip_bits([0, 1, 0, 1], [0, 3]) == [1, 1, 0, 0]

    def test_out_of_range_positions_ignored(self):
        assert flip_bits([1, 0], [5, -1, 1]) == [1, 1]

    def test_double_flip_cancels(self):
        assert flip_bits([1, 0, 1], [1, 1]) == [1, 0, 1]


class TestFaultState:
    def test_bump_refcounts_and_drops_zeros(self):
        table = {}
        FaultState.bump(table, "tag1", +1)
        FaultState.bump(table, "tag1", +1)
        assert table == {"tag1": 2}
        FaultState.bump(table, "tag1", -1)
        FaultState.bump(table, "tag1", -1)
        assert table == {}

    def test_bump_below_zero_raises(self):
        with pytest.raises(RuntimeError, match="negative"):
            FaultState.bump({}, "tag1", -1)

    def test_wildcard_flagging(self):
        assert FaultState.is_flagged({"*": 1}, "anything")
        assert FaultState.is_flagged({"tag2": 1}, "tag2")
        assert not FaultState.is_flagged({"tag2": 1}, "tag1")

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_tag_faults_active_exactly_while_a_per_tag_hook_acts(self, kind):
        # The network skips tag_offline / beacon_lost / beacon_for /
        # transmit_allowed unless this predicate holds.
        tag_level = {"brownout", "relay_brownout", "harvester_collapse",
                     "beacon_loss", "envelope_drift", "ack_corrupt"}
        target = {"reader_restart": "reader", "noise_burst": "*",
                  "relay_table_stale": "*"}.get(kind, "tag1")
        net = make_net([FaultEvent(slot=0, duration=2, kind=kind,
                                   target=target)])
        state = net.faults.state
        assert not state.tag_faults_active()
        net.faults.on_slot_start(0)
        assert state.tag_faults_active() == (kind in tag_level)
        net.faults.on_slot_start(2)
        assert not state.tag_faults_active()


class TestMacInjector:
    def test_beacon_loss_forced_then_cleared(self):
        net = make_net([FaultEvent(slot=2, duration=3, kind="beacon_loss",
                                   target="tag1")])
        ctl = net.faults
        ctl.on_slot_start(2)
        assert ctl.beacon_lost("tag1", False)
        assert not ctl.beacon_lost("tag2", False)
        ctl.on_slot_start(5)
        assert not ctl.beacon_lost("tag1", False)
        assert not ctl.state.any_active()

    def test_ack_corrupt_inverts_ack_only(self):
        net = make_net([FaultEvent(slot=0, duration=1, kind="ack_corrupt",
                                   target="tag2")])
        ctl = net.faults
        ctl.on_slot_start(0)
        beacon = DownlinkBeacon(ack=True, empty=False, reset=False)
        seen = ctl.beacon_for("tag2", beacon)
        assert seen.ack is False
        assert (seen.empty, seen.reset) == (beacon.empty, beacon.reset)
        assert ctl.beacon_for("tag1", beacon) is beacon

    def test_lone_ack_corruption_reaches_the_tag(self):
        # The only active fault is tag-level through beacon_for alone:
        # the stepping loop must still route tag1's beacons through it.
        clean = make_net([])
        faulted = make_net([FaultEvent(slot=200, duration=16,
                                       kind="ack_corrupt", target="tag1")])
        clean.run(216)
        faulted.run(216)
        assert (
            faulted.tags["tag1"].machine.migrations
            > clean.tags["tag1"].machine.migrations
        )

    def test_reader_restart_clears_soft_state(self):
        net = make_net([FaultEvent(slot=50, duration=1, kind="reader_restart",
                                   target="reader")])
        net.run(40)
        assert net.reader._committed  # converged: commitments learned
        slot_before = net.reader.slot_index
        net.run(11)  # crosses the restart
        assert net.reader.slot_index == slot_before + 11  # cadence kept
        restart_records = net.faults.trace.records(kind="fault.apply")
        assert [r["fault_kind"] for r in restart_records] == ["reader_restart"]

    def test_duplicate_kind_ownership_rejected(self):
        from repro.faults.controller import FaultController

        with pytest.raises(ValueError, match="claimed by two injectors"):
            FaultController(
                FaultSchedule([]),
                None,
                np.random.default_rng(0),
                injectors=[MacFaultInjector(), MacFaultInjector()],
            )

    def test_unhandled_kind_rejected(self):
        from repro.faults.controller import FaultController

        with pytest.raises(ValueError, match="no injector handles"):
            FaultController(
                FaultSchedule([FaultEvent(slot=0, duration=1, kind="brownout",
                                          target="tag1")]),
                None,
                np.random.default_rng(0),
                injectors=[MacFaultInjector()],
            )


class TestHardwareInjector:
    def test_brownout_darkens_then_power_cycles(self):
        net = make_net([FaultEvent(slot=3, duration=2, kind="brownout",
                                   target="tag2")])
        ctl = net.faults
        ctl.on_slot_start(3)
        assert ctl.tag_offline("tag2")
        assert not ctl.tag_offline("tag1")
        net.tags["tag2"].ever_settled = True
        net.tags["tag2"].slot_counter = 17
        ctl.on_slot_start(5)
        assert not ctl.tag_offline("tag2")
        # power_cycle: cold restart as a late-arriving tag.
        assert net.tags["tag2"].slot_counter == 0
        assert net.tags["tag2"].ever_settled is False
        assert net.tags["tag2"].late_arrival is True
        assert net.tags["tag2"].is_new

    def test_overlapping_brownouts_cycle_once_at_the_end(self):
        net = make_net([
            FaultEvent(slot=0, duration=4, kind="brownout", target="tag1"),
            FaultEvent(slot=2, duration=4, kind="brownout", target="tag1"),
        ])
        ctl = net.faults
        ctl.on_slot_start(0)
        ctl.on_slot_start(2)
        net.tags["tag1"].slot_counter = 9
        ctl.on_slot_start(4)  # first window ends; still browned out
        assert ctl.tag_offline("tag1")
        assert net.tags["tag1"].slot_counter == 9  # no premature restart
        ctl.on_slot_start(6)
        assert not ctl.tag_offline("tag1")
        assert net.tags["tag1"].slot_counter == 0

    def test_harvester_collapse_blocks_tx_keeps_rx(self):
        net = make_net([FaultEvent(slot=1, duration=2, kind="harvester_collapse",
                                   target="tag3")])
        ctl = net.faults
        ctl.on_slot_start(1)
        assert not ctl.transmit_allowed("tag3")
        assert ctl.transmit_allowed("tag1")
        assert not ctl.tag_offline("tag3")  # the MCU stays up
        ctl.on_slot_start(3)
        assert ctl.transmit_allowed("tag3")


class TestPhyInjector:
    def test_bit_flip_marks_corrupt_and_counts(self):
        net = make_net([FaultEvent(slot=0, duration=2, kind="bit_flip",
                                   target="tag1", magnitude=3)])
        ctl = net.faults
        ctl.on_slot_start(0)
        assert ctl.state.corrupt_uplink == {"tag1": 1}
        assert ctl.state.bit_flip_counts == {"tag1": 3}
        flips = ctl.uplink_bit_flips("tag1", 64)
        assert 1 <= len(flips) <= 3
        assert list(flips) == sorted(set(flips))
        assert all(0 <= p < 64 for p in flips)
        assert ctl.uplink_bit_flips("tag2", 64) == ()
        ctl.on_slot_start(2)
        assert ctl.state.corrupt_uplink == {}
        assert ctl.state.bit_flip_counts == {}

    def test_crc_corrupt_suppresses_decode_only(self):
        net = make_net([FaultEvent(slot=0, duration=1, kind="crc_corrupt",
                                   target="tag2")])
        ctl = net.faults
        ctl.on_slot_start(0)
        obs = SlotObservation(("tag2",), "tag2", False)
        out = ctl.transform_observation(obs)
        assert out.decoded_tag is None
        assert out.transmitters == ("tag2",)
        clean = SlotObservation(("tag1",), "tag1", True)
        assert ctl.transform_observation(clean) is clean

    def test_envelope_drift_multiplies_loss_probability(self):
        net = make_net(
            [FaultEvent(slot=0, duration=1, kind="envelope_drift",
                        target="tag1", magnitude=1e9)],
            beacon_loss_probability=1e-4,
        )
        ctl = net.faults
        ctl.on_slot_start(0)
        # Scale pushes the extra loss mass to its cap of 1: always lost.
        assert all(ctl.beacon_lost("tag1", False) for _ in range(8))
        assert not ctl.beacon_lost("tag2", False)
        ctl.on_slot_start(1)
        assert not ctl.beacon_lost("tag1", False)

    def test_overlapping_drift_composes_multiplicatively(self):
        net = make_net([
            FaultEvent(slot=0, duration=3, kind="envelope_drift",
                       target="tag1", magnitude=10.0),
            FaultEvent(slot=1, duration=1, kind="envelope_drift",
                       target="tag1", magnitude=4.0),
        ])
        ctl = net.faults
        ctl.on_slot_start(0)
        assert ctl.state.beacon_loss_scale == {"tag1": 10.0}
        ctl.on_slot_start(1)
        assert ctl.state.beacon_loss_scale == {"tag1": 40.0}
        ctl.on_slot_start(2)
        assert ctl.state.beacon_loss_scale == {"tag1": 10.0}
        ctl.on_slot_start(3)
        assert ctl.state.beacon_loss_scale == {}


class TestChannelInjector:
    def test_noise_burst_is_a_global_penalty(self):
        net = make_net([FaultEvent(slot=0, duration=1, kind="noise_burst",
                                   magnitude=9.0)])
        ctl = net.faults
        ctl.on_slot_start(0)
        assert ctl.snr_penalty_for("tag1") == 9.0
        assert ctl.snr_penalty_for("tag3") == 9.0
        assert ctl.penalties_for(["tag1"]) == {"tag1": 9.0}
        ctl.on_slot_start(1)
        assert ctl.snr_penalty_for("tag1") == 0.0
        assert ctl.penalties_for(["tag1"]) is None

    def test_attenuation_targets_one_tag_and_stacks_with_noise(self):
        net = make_net([
            FaultEvent(slot=0, duration=2, kind="attenuation",
                       target="tag2", magnitude=12.0),
            FaultEvent(slot=1, duration=1, kind="noise_burst", magnitude=5.0),
        ])
        ctl = net.faults
        ctl.on_slot_start(0)
        assert ctl.snr_penalty_for("tag2") == 12.0
        assert ctl.snr_penalty_for("tag1") == 0.0
        ctl.on_slot_start(1)
        assert ctl.snr_penalty_for("tag2") == 17.0
        assert ctl.snr_penalty_for("tag1") == 5.0
        ctl.on_slot_start(2)
        assert ctl.snr_penalty_for("tag2") == 0.0

    def test_junction_loss_mutates_and_restores_exactly(self):
        # Builds a private AcousticMedium (the default) on purpose: the
        # injector mutates the BiW in place, which must never touch the
        # session-shared deployment other tests use.
        net = SlottedNetwork(
            PERIODS,
            config=NetworkConfig(seed=3),
            faults=FaultSchedule([
                FaultEvent(slot=0, duration=4, kind="junction_loss",
                           magnitude=2.5),
                FaultEvent(slot=2, duration=4, kind="junction_loss",
                           magnitude=1.25),
            ]),
        )
        ctl = net.faults
        biw = net.medium.biw
        baseline_loss = dict(net._beacon_loss)
        baseline_amp = net.medium.backscatter_amplitude_v("tag2")
        ctl.on_slot_start(0)
        assert biw.joint_loss_offset_db == 2.5
        degraded_loss = net.beacon_loss_probability_for("tag2")
        assert degraded_loss > baseline_loss["tag2"]
        ctl.on_slot_start(2)
        assert biw.joint_loss_offset_db == 3.75
        ctl.on_slot_start(4)
        assert biw.joint_loss_offset_db == 1.25
        ctl.on_slot_start(6)
        # Recomputed from the active set, not decremented: exactly zero.
        assert biw.joint_loss_offset_db == 0.0
        assert net._beacon_loss == baseline_loss
        assert net.medium.backscatter_amplitude_v("tag2") == baseline_amp
