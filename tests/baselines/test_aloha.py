"""Tests for the ALOHA baseline (Appendix B)."""

import math
import re

import numpy as np
import pytest

from baselines.oracles import run_reference
from repro.baselines.aloha import (
    AlohaSimulation,
    PACKET_DURATION_S,
    RESUME_FRACTION,
)
from repro.experiments.fig19_aloha import deployment_charge_times


class TestMechanics:
    def test_resume_fraction_is_paper_value(self):
        # (2.3 - 1.95) / 2.3 = 15.2%.
        assert RESUME_FRACTION == pytest.approx(0.152, abs=0.001)

    def test_single_tag_never_collides(self):
        sim = AlohaSimulation({"t": 10.0}, duration_s=1000.0, seed=1)
        result = sim.run()
        assert result.per_tag["t"].collided_tx == 0
        assert result.overall_success_rate == 1.0

    def test_transmission_count_matches_cycle_arithmetic(self):
        sim = AlohaSimulation({"t": 10.0}, duration_s=1000.0, noise_std=0.0, seed=0)
        result = sim.run()
        cycle = 10.0 * RESUME_FRACTION + PACKET_DURATION_S
        expected = int((1000.0 - 10.0) / cycle) + 1
        assert result.per_tag["t"].total_tx == pytest.approx(expected, abs=2)

    def test_identical_tags_collide_or_not_consistently(self):
        # Two tags with identical deterministic cycles start at the same
        # instant and collide on every transmission.
        sim = AlohaSimulation({"a": 10.0, "b": 10.0}, duration_s=500.0,
                              noise_std=0.0, seed=0)
        result = sim.run()
        assert result.overall_success_rate == 0.0

    def test_offset_tags_do_not_collide(self):
        # Very different charge times rarely overlap over a short run.
        sim = AlohaSimulation({"a": 7.0, "b": 113.0}, duration_s=500.0,
                              noise_std=0.0, seed=0)
        result = sim.run()
        assert result.per_tag["b"].total_tx > 0
        assert result.overall_success_rate > 0.9

    def test_reproducible_per_seed(self):
        kwargs = dict(duration_s=2000.0, seed=5)
        r1 = AlohaSimulation({"a": 5.0, "b": 8.0}, **kwargs).run()
        r2 = AlohaSimulation({"a": 5.0, "b": 8.0}, **kwargs).run()
        assert r1.per_tag["a"].total_tx == r2.per_tag["a"].total_tx
        assert r1.total_collided == r2.total_collided

    def test_validation(self):
        with pytest.raises(ValueError):
            AlohaSimulation({})
        with pytest.raises(ValueError):
            AlohaSimulation({"a": -1.0})
        with pytest.raises(ValueError):
            AlohaSimulation({"a": 1.0}, duration_s=0.0)
        with pytest.raises(ValueError):
            AlohaSimulation({"a": 1.0}, resume_fraction=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "field", ["duration_s", "packet_duration_s", "noise_std", "charge"]
    )
    def test_rejects_non_finite(self, field, value):
        # An infinite run never ended; NaN ones silently gave zero
        # transmissions (a NaN duration or charge time) or airtime-only
        # cycles (a NaN noise std).
        if field == "charge":
            charge_times, kwargs, name = {"tag1": value}, {}, "'tag1'"
        else:
            charge_times, kwargs, name = {"tag1": 5.0}, {field: value}, field
        with pytest.raises(ValueError, match=re.escape(name) + ".*finite"):
            AlohaSimulation(charge_times, **kwargs)


class TestBlockSweepMatchesReference:
    """The numpy run against the event-by-event loop it replaced."""

    @pytest.fixture(scope="class")
    def charge_times(self, medium):
        return deployment_charge_times(medium)

    @staticmethod
    def assert_matches(sim):
        want, want_starts, want_states = run_reference(sim)
        rng = np.random.default_rng(sim.seed)
        tags = sorted(sim.charge_times_s)
        for tag, starts, state in zip(tags, want_starts, want_states):
            got = sim._tag_transmission_starts(sim.charge_times_s[tag], rng)
            assert got.dtype == starts.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), starts.view(np.uint64)), tag
            assert rng.bit_generator.state == state, tag
        result = sim.run()
        assert result == want
        assert all(
            type(s.total_tx) is int and type(s.collided_tx) is int
            for s in result.per_tag.values()
        )

    @pytest.mark.parametrize("duration_s", [4000.0, 10_000.0, 7321.77])
    def test_forty_seeds(self, charge_times, duration_s):
        for seed in range(40):
            self.assert_matches(
                AlohaSimulation(charge_times, duration_s=duration_s, seed=seed)
            )

    def test_noise_free(self, charge_times):
        for duration_s in (4000.0, 7321.77):
            self.assert_matches(
                AlohaSimulation(
                    charge_times, duration_s=duration_s, noise_std=0.0, seed=3
                )
            )

    @pytest.mark.parametrize("first_block", [1, 7])
    def test_first_block_too_short(self, charge_times, monkeypatch, first_block):
        # Every tag outgrows its first block and redraws from the
        # rewound generator, doubling until the run's end is covered.
        monkeypatch.setattr(
            AlohaSimulation, "_block_size", lambda self, full: first_block
        )
        for seed in (0, 1):
            self.assert_matches(
                AlohaSimulation(charge_times, duration_s=1234.5, seed=seed)
            )

    def test_no_transmission_fits(self):
        # The first charge already outlasts the run: one draw, no starts.
        self.assert_matches(
            AlohaSimulation({"a": 50.0, "b": 60.0}, duration_s=10.0, seed=2)
        )


class TestPaperScale:
    """Slow-ish (~1 s) checks against the Appendix B findings."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.fig19_aloha import run_fig19

        return run_fig19(seed=3)

    def test_overall_success_around_one_third(self, result):
        # Paper: 34.0% collision-free overall.
        assert 0.25 <= result.overall_success_rate <= 0.40

    def test_fast_tag_transmits_over_11000_times(self, result):
        # Paper: Tag 8 (4.5 s) transmits >11,000 times in 10,000 s.
        assert result.per_tag["tag8"].total_tx > 11_000

    def test_fast_tag_collides_over_60_percent(self, result):
        assert result.per_tag["tag8"].success_rate < 0.45

    def test_slow_tags_collide_over_70_percent(self, result):
        # Paper: slow tags (Tag 11) exceed 70% collisions.
        assert result.per_tag["tag11"].success_rate < 0.30

    def test_unfair_access_across_tags(self, result):
        counts = [s.total_tx for s in result.per_tag.values()]
        assert max(counts) > 5 * min(counts)

    def test_every_tag_transmits(self, result):
        assert all(s.total_tx > 0 for s in result.per_tag.values())
