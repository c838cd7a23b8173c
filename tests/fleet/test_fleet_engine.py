"""Unit tests for the fleet package's building blocks."""

import numpy as np
import pytest

from repro.core.network import NetworkConfig
from repro.fleet import (
    FleetEngine,
    FleetSpec,
    OffsetBank,
    UniformBank,
    specs_for_seeds,
)

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8}


class TestUniformBank:
    def _bank(self, n=3, block=16):
        gens = [np.random.Generator(np.random.PCG64(s)) for s in range(n)]
        return UniformBank(gens, block=block)

    def test_grid_matches_scalar_draw_order(self):
        bank = self._bank()
        reference = [
            np.random.Generator(np.random.PCG64(s)).random(10) for s in range(3)
        ]
        got = np.concatenate(
            [bank.take_grid(4), bank.take_grid(6)], axis=1
        )
        assert (got == np.stack(reference)).all()

    def test_refill_preserves_stream_order(self):
        bank = self._bank(block=16)
        reference = [
            np.random.Generator(np.random.PCG64(s)).random(40) for s in range(3)
        ]
        chunks = []
        for _ in range(10):
            bank.ensure(4)
            chunks.append(bank.take_grid(4))
        assert (np.concatenate(chunks, axis=1) == np.stack(reference)).all()

    def test_take_ranked_consumes_per_stream_counts(self):
        bank = self._bank()
        reference = [
            np.random.Generator(np.random.PCG64(s)).random(4) for s in range(3)
        ]
        ranks = np.array([[0, 1], [-1, -1], [0, -1]])
        counts = np.array([2, 0, 1])
        out = bank.take_ranked(ranks, counts)
        assert out[0, 0] == reference[0][0] and out[0, 1] == reference[0][1]
        assert out[2, 0] == reference[2][0]
        # Stream 1 consumed nothing; its next draw is still its first.
        assert bank.take_scalar(1) == reference[1][0]

    def test_ensure_rejects_oversized_requests(self):
        with pytest.raises(ValueError):
            self._bank(block=16).ensure(17)


class TestOffsetBank:
    def test_masked_draws_match_scalar_sequence(self):
        periods = [4, 8]
        grid = [
            [np.random.Generator(np.random.PCG64(100 * i + j)) for j in range(2)]
            for i in range(3)
        ]
        bank = OffsetBank(grid, periods, block=8)
        reference = {
            (i, j): np.random.Generator(
                np.random.PCG64(100 * i + j)
            ).integers(0, periods[j], size=20)
            for i in range(3)
            for j in range(2)
        }
        out = np.zeros((3, 2), dtype=np.int64)
        mask = np.ones((3, 2), dtype=bool)
        for k in range(20):
            bank.ensure(1)
            bank.take_masked(mask, out)
            for (i, j), ref in reference.items():
                assert out[i, j] == ref[k]

    def test_unselected_streams_keep_alignment(self):
        grid = [[np.random.Generator(np.random.PCG64(5))]]
        bank = OffsetBank(grid, [8], block=8)
        ref = np.random.Generator(np.random.PCG64(5)).integers(0, 8, size=3)
        out = np.zeros((1, 1), dtype=np.int64)
        bank.take_masked(np.array([[True]]), out)
        bank.take_masked(np.array([[False]]), out)  # no-op
        first = out[0, 0]
        bank.take_masked(np.array([[True]]), out)
        assert (first, out[0, 0]) == (ref[0], ref[1])


class TestFleetSpec:
    def test_specs_for_seeds_names_in_order(self):
        specs = specs_for_seeds([9, 8, 7])
        assert [s.name for s in specs] == ["net0", "net1", "net2"]
        assert [s.seed for s in specs] == [9, 8, 7]
        assert all(s.vectorizable for s in specs)

    def test_faulted_spec_is_not_vectorizable(self):
        from repro.faults.schedule import FaultEvent, FaultSchedule

        schedule = FaultSchedule(
            [FaultEvent(slot=1, duration=1, kind="beacon_loss")]
        )
        assert not FleetSpec(name="x", seed=0, faults=schedule).vectorizable


class TestFleetEngineValidation:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetEngine(
                PERIODS,
                [FleetSpec(name="a", seed=0), FleetSpec(name="a", seed=1)],
            )

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            FleetEngine(PERIODS, [])

    def test_rejects_empty_topology(self):
        with pytest.raises(ValueError):
            FleetEngine({}, specs_for_seeds([0]))

    def test_energy_mode_rejects_activation_schedule(self):
        with pytest.raises(ValueError):
            FleetEngine(
                PERIODS,
                specs_for_seeds([0]),
                energy=True,
                activation_slot={"tag1": 5},
            )

    def test_reset_of_unknown_network_raises(self):
        engine = FleetEngine(PERIODS, specs_for_seeds([0, 1]))
        with pytest.raises(KeyError):
            engine.request_reset(["nope"])


class TestFleetEngineQueries:
    def test_summaries_follow_spec_order_and_slot_count(self):
        engine = FleetEngine(PERIODS, specs_for_seeds([3, 1, 2]))
        for _ in range(60):
            engine.step_all()
        summaries = engine.summaries()
        assert [s["network"] for s in summaries] == ["net0", "net1", "net2"]
        assert all(s["slots"] == 60 for s in summaries)
        assert engine.slots_elapsed == 60
        assert engine.aggregate_tag_slots() == 3 * 60 * len(PERIODS)

    def test_settled_fraction_reaches_one_on_ideal_channel(self):
        engine = FleetEngine(
            PERIODS,
            specs_for_seeds([0, 1, 2, 3]),
            config=NetworkConfig(ideal_channel=True),
        )
        for _ in range(200):
            engine.step_all()
        for spec in engine.specs:
            assert engine.settled_fraction(spec.name) == 1.0

    def test_telemetry_counters_match_record_tallies(self):
        self._check_telemetry_counters(energy=False)

    def test_energy_telemetry_counters_match_record_tallies(self):
        self._check_telemetry_counters(energy=True)

    def _check_telemetry_counters(self, energy):
        from repro import telemetry

        with telemetry.collecting() as registry:
            engine = FleetEngine(PERIODS, specs_for_seeds([0, 1]), energy=energy)
            for _ in range(80):
                engine.step_all()
        metrics = registry.snapshot().to_jsonable()["metrics"]
        records = [engine.records(s.name) for s in engine.specs]
        decodes = sum(
            1 for recs in records for r in recs if r.decoded is not None
        )
        collisions = sum(
            1 for recs in records for r in recs if r.collision_detected
        )

        def total(name):
            return sum(
                entry["value"] for entry in metrics.get(name, {}).values()
            )

        assert total("mac.slots") == 2 * 80
        assert total("mac.decodes") == decodes
        assert total("mac.collisions") == collisions
