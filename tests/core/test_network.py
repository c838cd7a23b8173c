"""Tests for the slotted network simulator."""

import numpy as np
import pytest

from repro.core.network import NetworkConfig, SlottedNetwork
from repro.core.state_machine import TagState
from repro.experiments.configs import pattern


def ideal_net(periods, seed=0, **kwargs):
    return SlottedNetwork(
        periods, config=NetworkConfig(seed=seed, ideal_channel=True, **kwargs)
    )


class TestConvergence:
    def test_single_tag_converges_immediately(self):
        net = ideal_net({"tag8": 4})
        t = net.run_until_converged(streak=8)
        assert t is not None and t <= 16
        assert net.tags["tag8"].state is TagState.SETTLE

    def test_three_tags_converge(self):
        net = ideal_net({"tag8": 4, "tag4": 8, "tag11": 8})
        assert net.run_until_converged() is not None
        assert net.settled_fraction() == 1.0

    def test_converged_schedule_is_conflict_free(self):
        from repro.core.slot_schedule import offsets_conflict

        net = ideal_net({"tag5": 4, "tag6": 4, "tag8": 8, "tag9": 8})
        net.run_until_converged()
        tags = list(net.tags.values())
        for i in range(len(tags)):
            for j in range(i + 1, len(tags)):
                a, b = tags[i], tags[j]
                # Conflicts are in ground-truth space: local counters may
                # be offset from the reader's but all tags heard every
                # beacon in an ideal channel, so offsets align.
                assert not offsets_conflict(a.period, a.offset, b.period, b.offset)

    def test_full_utilization_converges(self):
        net = ideal_net({"tag1": 2, "tag2": 4, "tag3": 8, "tag4": 8}, seed=3)
        assert net.run_until_converged(max_slots=50_000) is not None

    def test_convergence_deterministic_per_seed(self):
        t1 = ideal_net({"tag1": 4, "tag2": 4, "tag3": 4}, seed=9).run_until_converged()
        t2 = ideal_net({"tag1": 4, "tag2": 4, "tag3": 4}, seed=9).run_until_converged()
        assert t1 == t2

    def test_utilization_dominates_convergence_time(self):
        import numpy as np

        lo = [
            ideal_net(pattern("c1").tag_periods(), seed=s).run_until_converged()
            for s in range(5)
        ]
        hi = [
            ideal_net(pattern("c4").tag_periods(), seed=s).run_until_converged()
            for s in range(5)
        ]
        assert np.median(hi) > np.median(lo)


class TestLateArrival:
    def test_staggered_tags_integrate(self):
        net = ideal_net(
            {"tag5": 4, "tag6": 4, "tag8": 8},
        )
        net.activation_slot["tag6"] = 40
        net.tags["tag6"].late_arrival = True
        records = net.run(200)
        # All three settled by the end.
        assert net.settled_fraction() == 1.0
        # No transmissions from tag6 before activation.
        early = [r for r in records if r.slot < 40]
        assert all("tag6" not in (r.decoded or "") for r in early)

    def test_late_arrival_flag_set_from_activation(self):
        net = SlottedNetwork(
            {"tag5": 4, "tag6": 4},
            config=NetworkConfig(ideal_channel=True),
            activation_slot={"tag6": 10},
        )
        assert net.tags["tag6"].late_arrival
        assert not net.tags["tag5"].late_arrival


class TestResetCommand:
    def test_reset_restarts_competition(self):
        net = ideal_net({"tag5": 4, "tag8": 4})
        net.run_until_converged()
        net.reset()
        net.step()  # the RESET beacon
        assert all(t.state is TagState.MIGRATE for t in net.tags.values())
        assert net.run_until_converged() is not None


class TestBeaconLoss:
    def test_loss_disrupts_then_recovers(self):
        net = SlottedNetwork(
            {"tag5": 4, "tag6": 4, "tag8": 8},
            config=NetworkConfig(seed=1, beacon_loss_probability=0.01),
        )
        records = net.run(3000)
        misses = sum(t.beacons_missed for t in net.tags.values())
        assert misses > 0
        # Despite disruptions, the long-run collision rate stays low.
        collided = sum(1 for r in records if r.truly_collided)
        assert collided / len(records) < 0.2

    def test_watchdog_ablation_changes_dynamics(self):
        # Without the Sec. 5.4 timer, a desynchronised tag keeps its
        # stale counter and collides until NACKed out.
        base = SlottedNetwork(
            {"tag5": 8, "tag6": 8, "tag8": 8, "tag9": 8},
            config=NetworkConfig(seed=5, beacon_loss_probability=0.02),
        )
        base.run(2000)
        ablated = SlottedNetwork(
            {"tag5": 8, "tag6": 8, "tag8": 8, "tag9": 8},
            config=NetworkConfig(
                seed=5, beacon_loss_probability=0.02, enable_beacon_loss_timer=False
            ),
        )
        ablated.run(2000)
        # Both run; the ablated variant must not crash, and beacon
        # misses are recorded in both.
        assert sum(t.beacons_missed for t in ablated.tags.values()) > 0


class TestValidation:
    def test_empty_tag_set_raises(self):
        with pytest.raises(ValueError):
            SlottedNetwork({})

    def test_unmounted_tag_raises(self):
        with pytest.raises(KeyError):
            SlottedNetwork({"tag99": 4})

    def test_negative_run_raises(self):
        with pytest.raises(ValueError):
            ideal_net({"tag8": 4}).run(-1)

    def test_invalid_streak_raises(self):
        with pytest.raises(ValueError):
            ideal_net({"tag8": 4}).run_until_converged(streak=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("beacon_loss_probability", 1.5),
            ("beacon_loss_probability", -0.2),
            ("beacon_loss_probability", float("nan")),
            ("dl_raw_rate_bps", 0.0),
            ("dl_raw_rate_bps", -250.0),
            ("dl_raw_rate_bps", float("inf")),
            ("ul_raw_rate_bps", 0.0),
            ("ul_raw_rate_bps", float("nan")),
            ("slot_duration_s", 0.0),
            ("slot_duration_s", -1.0),
            ("slot_duration_s", float("inf")),
            ("nack_threshold", 0),
            ("nack_threshold", -3),
        ],
    )
    def test_invalid_config_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: value})

    @pytest.mark.parametrize("field", ["seed", "nack_threshold"])
    @pytest.mark.parametrize("value", [0.5, True, 2.5, np.int32(3), np.int64(3)])
    def test_integer_fields_take_integers_only(self, field, value):
        # A float or bool seed would run another seed's network; a
        # fractional threshold would compare differently once compiled.
        if isinstance(value, np.integer):
            config = NetworkConfig(**{field: value})
            assert getattr(config, field) == 3
            assert type(getattr(config, field)) is int
        else:
            with pytest.raises(ValueError, match=field):
                NetworkConfig(**{field: value})

    def test_unknown_plan_modulation_rejected_at_construction(self):
        from repro.phy.modulation import LinkConfig

        with pytest.raises(ValueError, match="'tag5'.*'qam4096'"):
            SlottedNetwork(
                {"tag5": 4, "tag8": 4},
                uplink_plan={"tag5": LinkConfig("qam4096", 375.0)},
            )

    def test_config_boundaries_accepted(self):
        NetworkConfig(beacon_loss_probability=0.0, nack_threshold=1)
        NetworkConfig(beacon_loss_probability=1.0, slot_duration_s=1e-3)

    def test_nonconvergence_returns_none(self):
        net = ideal_net({"tag5": 2, "tag6": 2})  # both must fit period 2
        # Utilization 1.0 with two period-2 tags: needs the exact split.
        result = net.run_until_converged(streak=32, max_slots=5)
        assert result is None  # cannot possibly converge in 5 slots
