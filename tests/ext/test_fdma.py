"""Tests for the FDMA multi-channel extension."""

import pytest

from repro.core.network import NetworkConfig
from repro.core.slot_schedule import slot_utilization
from repro.experiments.configs import pattern
from repro.multireader import FdmaChannelPlan, FdmaNetwork, assign_channels


class TestChannelPlan:
    def test_default_plan_three_channels(self):
        plan = FdmaChannelPlan()
        assert plan.n_channels == 3

    def test_spacing_supports_default_rate(self):
        # 375 bps FM0 needs ~750 Hz each side; 5.5 kHz spacing is ample.
        assert FdmaChannelPlan().supports_bit_rate(375.0)

    def test_spacing_rejects_wideband(self):
        assert not FdmaChannelPlan().supports_bit_rate(3000.0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            FdmaChannelPlan(frequencies_hz=(90e3,), responses=(1.0, 0.5))

    def test_invalid_response_raises(self):
        with pytest.raises(ValueError):
            FdmaChannelPlan(frequencies_hz=(90e3,), responses=(1.5,))


class TestAssignment:
    def test_balances_utilization(self):
        periods = {f"t{i}": 4 for i in range(6)}
        groups = assign_channels(periods, 3)
        loads = [float(slot_utilization(g.values())) for g in groups]
        assert max(loads) - min(loads) < 1e-9  # perfectly balanced here

    def test_all_tags_assigned_exactly_once(self):
        periods = pattern("c3").tag_periods()
        groups = assign_channels(periods, 3)
        seen = [t for g in groups for t in g]
        assert sorted(seen) == sorted(periods)

    def test_single_channel_is_identity(self):
        periods = {"a": 4, "b": 8}
        groups = assign_channels(periods, 1)
        assert groups == [periods]

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            assign_channels({"a": 4}, 0)


class TestFdmaNetwork:
    def test_splits_over_capacity_demand(self, medium):
        # 12 tags at period 4 = utilisation 3.0: impossible on one
        # channel, exactly at capacity with three.
        periods = {f"tag{i}": 4 for i in range(1, 13)}
        net = FdmaNetwork(
            periods,
            medium=medium,
            config=NetworkConfig(seed=1, ideal_channel=True),
        )
        assert net.n_active_channels == 3
        t = net.run_until_converged(max_slots=50_000)
        assert t is not None

    def test_aggregate_goodput_exceeds_single_channel_capacity(self, medium):
        periods = {f"tag{i}": 4 for i in range(1, 13)}
        net = FdmaNetwork(
            periods,
            medium=medium,
            config=NetworkConfig(seed=2, ideal_channel=True),
        )
        net.run_until_converged(max_slots=50_000)
        net.run(400)
        # Three saturated channels: ~3 packets per wall-clock slot,
        # versus the hard 1.0 ceiling of the single-carrier system.
        assert net.aggregate_goodput() > 1.5
        assert net.capacity() == 3.0

    def test_rejects_rate_exceeding_spacing(self, medium):
        with pytest.raises(ValueError):
            FdmaNetwork(
                {"tag8": 4},
                medium=medium,
                config=NetworkConfig(ul_raw_rate_bps=3000.0),
            )

    def test_empty_channels_skipped(self, medium):
        net = FdmaNetwork(
            {"tag8": 4},
            medium=medium,
            config=NetworkConfig(ideal_channel=True),
        )
        assert net.n_active_channels == 1


class TestInterference:
    def test_cochannel_leakage_is_zero_db(self):
        plan = FdmaChannelPlan()
        assert plan.adjacent_leakage_db(0, 0, 375.0) == 0.0

    def test_leakage_falls_with_spacing(self):
        plan = FdmaChannelPlan()
        near = plan.adjacent_leakage_db(0, 1, 375.0)   # 5.5 kHz apart
        far = plan.adjacent_leakage_db(1, 2, 375.0)    # 11.5 kHz apart
        assert far < near < 0.0

    def test_leakage_grows_with_bandwidth(self):
        plan = FdmaChannelPlan()
        slow = plan.adjacent_leakage_db(0, 1, 375.0)
        fast = plan.adjacent_leakage_db(0, 1, 1500.0)
        assert fast > slow

    def test_worst_case_sir_healthy_at_default_rate(self, medium):
        from repro.core.network import NetworkConfig

        net = FdmaNetwork(
            {f"tag{i}": 4 for i in range(1, 13)},
            medium=medium,
            config=NetworkConfig(seed=1, ideal_channel=True),
        )
        # >10 dB: adjacent-channel interference never threatens OOK
        # decoding at the plan's spacing and the default bit rate.
        assert net.worst_case_sir_db() > 10.0

    def test_lockstep_run_counts_concurrency(self, medium):
        from repro.core.network import NetworkConfig

        net = FdmaNetwork(
            {f"tag{i}": 4 for i in range(1, 13)},
            medium=medium,
            config=NetworkConfig(seed=2, ideal_channel=True),
        )
        net.run(300)
        assert net.total_slots == 300
        # Three saturated channels transmit simultaneously essentially
        # always once converged.
        assert net.concurrent_slots > 200

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            FdmaChannelPlan().adjacent_leakage_db(0, 1, 0.0)

    def test_negative_run_raises(self, medium):
        from repro.core.network import NetworkConfig

        net = FdmaNetwork(
            {"tag8": 4}, medium=medium, config=NetworkConfig(ideal_channel=True)
        )
        with pytest.raises(ValueError):
            net.run(-1)
