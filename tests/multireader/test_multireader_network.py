"""MultiReaderNetwork behaviour: the single-reader zero-cost-off
contract (byte-identical slot logs across seeds, topologies, and fault
schedules), frequency-space division beating the shared carrier,
overlap-zone handoff, and reader-tier fault injection."""

import copy
import dataclasses

import pytest

from repro.core.network import NetworkConfig, SlottedNetwork, derive_beacon_loss
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.multireader import (
    CarrierPlan,
    FdmaNetwork,
    MultiReaderDeployment,
    MultiReaderFaultEvent,
    MultiReaderFaultSchedule,
    MultiReaderNetwork,
    assign_channels,
    deployment_for,
)

SEEDS = [1, 7, 23]

DENSE_PERIODS = {
    "tag1": 4,
    "tag2": 4,
    "tag3": 8,
    "tag4": 8,
    "tag5": 16,
    "tag6": 16,
}
SPARSE_PERIODS = {"tag1": 16, "tag2": 32, "tag3": 32}

#: The over-subscribed figT population: three readers' worth of load.
SATURATED_PERIODS = {f"tag{i}": 4 for i in range(1, 13)}


def fault_schedule():
    return FaultSchedule(
        [
            FaultEvent(
                slot=40, duration=20, kind="beacon_loss", target="tag1",
                magnitude=0.5,
            ),
            FaultEvent(slot=80, duration=10, kind="noise_burst", magnitude=12.0),
            FaultEvent(slot=120, duration=5, kind="brownout", target="tag3"),
            FaultEvent(slot=160, duration=1, kind="reader_restart"),
        ]
    )


class TestSharedBiWChannelFaults:
    """Every cell of a deployment rides one BiW, so a junction-loss
    step must re-derive every cell's channel, not only the channel of
    the first cell to apply it."""

    PERIODS = {
        "tag1": 8, "tag2": 8, "tag5": 16, "tag9": 16, "tag10": 32, "tag6": 32,
    }

    @staticmethod
    def _assert_every_cell_fresh(net):
        for reader, cell in net.cells.items():
            medium, rate = cell.medium, cell.config.ul_raw_rate_bps
            fresh = copy.deepcopy(medium)
            fresh.invalidate_channel_cache()
            for tag in cell.tags:
                where = (reader, tag)
                assert cell.beacon_loss_probability_for(tag) == derive_beacon_loss(
                    cell.config, fresh, tag
                ), where
                assert medium.backscatter_amplitude_v(
                    tag
                ) == fresh.backscatter_amplitude_v(tag), where
                assert medium.uplink_sir_db(tag, rate) == fresh.uplink_sir_db(
                    tag, rate
                ), where

    def test_junction_loss_reaches_every_cell(self):
        net = MultiReaderNetwork(
            self.PERIODS,
            deployment=deployment_for(2),
            config=NetworkConfig(seed=3),
            faults=FaultSchedule(
                [FaultEvent(slot=50, duration=200, kind="junction_loss", magnitude=4.0)]
            ),
        )
        assert len(net.cells) == 2
        biw = net.deployment.biw
        net.run(60)
        assert biw.joint_loss_offset_db == 4.0
        self._assert_every_cell_fresh(net)
        net.run(200)  # the fault cleared at slot 250
        assert biw.joint_loss_offset_db == 0.0
        self._assert_every_cell_fresh(net)

    def test_stacked_junction_faults_step_every_cell(self):
        # A second fault raises the shared offset while the first is
        # active, then clears under it: every cell follows both steps.
        net = MultiReaderNetwork(
            self.PERIODS,
            deployment=deployment_for(3),
            config=NetworkConfig(seed=5),
            faults=FaultSchedule(
                [
                    FaultEvent(
                        slot=30, duration=100, kind="junction_loss", magnitude=4.0
                    ),
                    FaultEvent(
                        slot=60, duration=30, kind="junction_loss", magnitude=2.0
                    ),
                ]
            ),
        )
        assert len(net.cells) == 3
        biw = net.deployment.biw
        for n_slots, offset in ((40, 4.0), (30, 6.0), (30, 4.0), (40, 0.0)):
            net.run(n_slots)
            assert biw.joint_loss_offset_db == offset
            self._assert_every_cell_fresh(net)


class TestSingleReaderZeroCostOff:
    """With one reader the wrapper must be invisible: every slot record
    byte-identical to a plain SlottedNetwork under the same seed."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "periods",
        [DENSE_PERIODS, SPARSE_PERIODS],
        ids=["dense", "sparse"],
    )
    def test_matches_sequential(self, seed, periods):
        multi = MultiReaderNetwork(
            periods,
            deployment=deployment_for(1),
            config=NetworkConfig(seed=seed),
        )
        multi.run(400)
        plain = SlottedNetwork(periods, config=NetworkConfig(seed=seed))
        plain.run(400)
        assert multi.records_for("reader") == plain.records

    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulted_matches_sequential(self, seed):
        multi = MultiReaderNetwork(
            DENSE_PERIODS,
            deployment=deployment_for(1),
            config=NetworkConfig(seed=seed),
            faults=fault_schedule(),
        )
        multi.run(400)
        plain = SlottedNetwork(
            DENSE_PERIODS,
            config=NetworkConfig(seed=seed),
            faults=fault_schedule(),
        )
        plain.run(400)
        assert multi.records_for("reader") == plain.records

    def test_single_reader_has_no_handoff_machinery(self):
        multi = MultiReaderNetwork(
            DENSE_PERIODS,
            deployment=deployment_for(1),
            config=NetworkConfig(seed=1),
        )
        assert multi.overlap_tags == ()
        multi.run(100)
        assert multi.handoffs == 0
        assert multi.slots_elapsed == 100


class TestFrequencySpaceDivision:
    def test_planner_beats_shared_carrier_at_two_readers(self):
        def goodput(plan):
            net = MultiReaderNetwork(
                SATURATED_PERIODS,
                deployment=deployment_for(2, spacing="near"),
                config=NetworkConfig(seed=3),
                plan=plan,
            )
            net.run(600)
            return net.aggregate_goodput(last_n_slots=400)

        dep = deployment_for(2, spacing="near")
        planned = goodput(None)
        shared = goodput(CarrierPlan.shared(dep))
        assert planned > shared

    def test_shared_carrier_collapses_worst_sir(self):
        dep = deployment_for(2, spacing="near")
        shared = MultiReaderNetwork(
            SATURATED_PERIODS,
            deployment=dep,
            config=NetworkConfig(seed=3),
            plan=CarrierPlan.shared(dep),
        )
        planned = MultiReaderNetwork(
            SATURATED_PERIODS,
            deployment=deployment_for(2, spacing="near"),
            config=NetworkConfig(seed=3),
        )
        assert shared.worst_sir_db() < 0 < planned.worst_sir_db()

    def test_sir_report_covers_every_homed_tag(self):
        net = MultiReaderNetwork(
            DENSE_PERIODS,
            deployment=deployment_for(2),
            config=NetworkConfig(seed=1),
        )
        report = net.sir_report()
        reported = sorted(t for per_tag in report.values() for t in per_tag)
        assert reported == sorted(DENSE_PERIODS)


class TestHandoff:
    def overlap_network(self, **kwargs):
        periods = dict(DENSE_PERIODS, tag9=8, tag10=8)
        return MultiReaderNetwork(
            periods,
            deployment=deployment_for(2),
            config=NetworkConfig(seed=3),
            **kwargs,
        )

    def test_overlap_tag_is_provisioned_on_both_readers(self):
        net = self.overlap_network()
        assert net.overlap_tags, "expected an overlap-zone tag"
        tag = net.overlap_tags[0]
        for reader in net.coverage[tag]:
            assert tag in net.cells[reader].tags
        home = net.home[tag]
        for reader in net.coverage[tag]:
            parked = net.cells[reader].parked_tags
            assert (tag in parked) == (reader != home)

    def test_force_handoff_re_homes_and_cold_boots(self):
        net = self.overlap_network()
        tag = net.overlap_tags[0]
        old = net.home[tag]
        target = next(r for r in net.coverage[tag] if r != old)
        net.run(50)
        net.force_handoff(tag, target)
        assert net.home[tag] == target
        assert tag in net.cells[old].parked_tags
        assert tag not in net.cells[target].parked_tags
        assert net.handoffs == 1
        assert net.handoff_log[-1][1:] == (tag, old, target)
        mac = net.cells[target].tags[tag]
        assert mac.late_arrival is True
        assert mac.ever_settled is False
        # The old reader's scheduler forgot the lease.
        assert tag not in net.cells[old].reader.committed_assignments

    def test_force_handoff_to_current_home_is_a_noop(self):
        net = self.overlap_network()
        tag = net.overlap_tags[0]
        net.force_handoff(tag, net.home[tag])
        assert net.handoffs == 0

    def test_force_handoff_rejects_uncovered_tag(self):
        net = self.overlap_network()
        uncovered = next(
            t for t in sorted(net.home) if len(net.coverage[t]) == 1
        )
        other = next(r for r in net.cells if r != net.home[uncovered])
        with pytest.raises(KeyError):
            net.force_handoff(uncovered, other)

    def test_interference_pressure_triggers_organic_handoffs(self):
        # "near" spacing under load: home links of overlap tags degrade
        # and the monitor-driven path re-homes them (deterministic for
        # a fixed seed).
        net = MultiReaderNetwork(
            SATURATED_PERIODS,
            deployment=deployment_for(2, spacing="near"),
            config=NetworkConfig(seed=3),
        )
        net.run(600)
        assert net.handoffs > 0
        for slot, tag, src, dst in net.handoff_log:
            assert tag in net.overlap_tags
            assert src != dst


class TestReaderFaults:
    def two_reader_network(self, schedule):
        return MultiReaderNetwork(
            dict(DENSE_PERIODS, tag9=8),
            deployment=deployment_for(2),
            config=NetworkConfig(seed=3),
            reader_faults=schedule,
        )

    def test_planner_stale_forces_cochannel_then_reverts(self):
        schedule = MultiReaderFaultSchedule(
            [
                MultiReaderFaultEvent(
                    slot=10, duration=20, kind="planner_stale", reader="reader2"
                )
            ]
        )
        net = self.two_reader_network(schedule)
        planned = net.planned_frequency_hz("reader2")
        assert planned != net.primary_frequency_hz
        net.run(15)
        assert net.actual_frequency_hz("reader2") == net.primary_frequency_hz
        net.run(25)
        assert net.actual_frequency_hz("reader2") == planned

    def test_carrier_drift_shifts_and_degrades_sir(self):
        schedule = MultiReaderFaultSchedule(
            [
                MultiReaderFaultEvent(
                    slot=5,
                    duration=30,
                    kind="carrier_drift",
                    reader="reader2",
                    magnitude=4_000.0,
                )
            ]
        )
        net = self.two_reader_network(schedule)
        healthy = net.worst_sir_db()
        planned = net.planned_frequency_hz("reader2")
        net.run(10)
        # 84.5 kHz drifts up to 88.5 kHz: toward the primary carrier.
        assert net.actual_frequency_hz("reader2") == planned + 4_000.0
        # Drift toward the primary carrier eats spacing margin.
        assert net.worst_sir_db() < healthy
        net.run(30)
        assert net.actual_frequency_hz("reader2") == planned
        assert net.worst_sir_db() == pytest.approx(healthy)

    def test_fault_schedule_validates_readers(self):
        schedule = MultiReaderFaultSchedule(
            [
                MultiReaderFaultEvent(
                    slot=0, duration=5, kind="planner_stale", reader="ghost"
                )
            ]
        )
        with pytest.raises(KeyError):
            self.two_reader_network(schedule)


class TestParking:
    def test_parked_tag_never_transmits(self):
        net = SlottedNetwork(DENSE_PERIODS, config=NetworkConfig(seed=1))
        net.park_tag("tag1")
        net.run(200)
        assert "tag1" not in {r.decoded for r in net.records}
        assert net.tags["tag1"].transmitted_last_slot is False

    def test_unpark_resumes_participation(self):
        net = SlottedNetwork(DENSE_PERIODS, config=NetworkConfig(seed=1))
        net.park_tag("tag1")
        net.run(100)
        net.unpark_tag("tag1")
        net.run(300)
        assert "tag1" in {r.decoded for r in net.records}

    def test_parking_unknown_tag_raises(self):
        net = SlottedNetwork(DENSE_PERIODS, config=NetworkConfig(seed=1))
        with pytest.raises(KeyError):
            net.park_tag("ghost")
        with pytest.raises(KeyError):
            net.unpark_tag("ghost")


def _non_default_config() -> NetworkConfig:
    """A config whose every field differs from its default."""
    config = NetworkConfig(
        slot_duration_s=0.3,
        ul_raw_rate_bps=187.5,
        dl_raw_rate_bps=125.0,
        nack_threshold=5,
        enable_empty_flag=False,
        enable_future_avoidance=False,
        enable_beacon_loss_timer=False,
        beacon_loss_probability=0.01,
        ideal_channel=True,
        seed=11,
    )
    default = NetworkConfig()
    for field in dataclasses.fields(NetworkConfig):
        assert getattr(config, field.name) != getattr(default, field.name), (
            f"give {field.name} a non-default value here"
        )
    return config


class TestCellConfigs:
    """Every per-cell or per-channel network gets the whole caller
    config, with only its seed offset applied."""

    def test_fdma_channels(self, medium):
        config = _non_default_config()
        net = FdmaNetwork(SATURATED_PERIODS, medium=medium, config=config)
        groups = assign_channels(SATURATED_PERIODS, net.plan.n_channels)
        used = [k for k, group in enumerate(groups) if group]
        assert len(net.channels) == len(used) > 1
        for k, channel in zip(used, net.channels):
            assert channel.config == dataclasses.replace(
                config, seed=11 + 7919 * k
            )

    @pytest.mark.parametrize("owner", ["deployment", "multireader"])
    def test_reader_cells(self, owner):
        config = _non_default_config()
        deployment = MultiReaderDeployment()
        if owner == "deployment":
            cells = deployment.build_networks(SATURATED_PERIODS, config)
        else:
            cells = MultiReaderNetwork(
                SATURATED_PERIODS, deployment, config=config
            ).cells
        assert len(cells) > 1
        for idx, reader in enumerate(deployment.readers):
            if reader in cells:
                assert cells[reader].config == dataclasses.replace(
                    config, seed=11 + 104_729 * idx
                )
