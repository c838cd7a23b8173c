"""Unit tests for the fleet package's building blocks."""

import numpy as np
import pytest
from fleet.oracles import summary_from_records

from repro.channel.medium import AcousticMedium
from repro.core.energy_network import EnergyAwareNetwork
from repro.core.network import NetworkConfig, SlottedNetwork
from repro.experiments.runner import FleetRunner
from repro.fleet import (
    FleetEngine,
    FleetSpec,
    OffsetBank,
    SlotLog,
    UniformBank,
    specs_for_seeds,
)
from repro.phy import kernels

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8}


class TestUniformBank:
    def _bank(self, n=3, block=16):
        return UniformBank(list(range(n)), block=block)

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
        grid = [[100 * i + j for j in range(2)] for i in range(3)]
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
        bank = OffsetBank([[5]], [8], block=8)
        ref = np.random.Generator(np.random.PCG64(5)).integers(0, 8, size=3)
        out = np.zeros((1, 1), dtype=np.int64)
        bank.take_masked(np.array([[True]]), out)
        bank.take_masked(np.array([[False]]), out)  # no-op
        first = out[0, 0]
        bank.take_masked(np.array([[True]]), out)
        assert (first, out[0, 0]) == (ref[0], ref[1])


def _spy_refill(monkeypatch):
    """Count the cursors every ``kernels.pcg64_refill`` call sees."""
    calls = []
    refill = kernels.pcg64_refill

    def spy(states, buf, cursor, needed, bounds=None):
        calls.append(cursor.tolist())
        return refill(states, buf, cursor, needed, bounds)

    monkeypatch.setattr(kernels, "pcg64_refill", spy)
    return calls


class TestRefillReturns:
    """``ensure`` calls the refill kernel only when a stream is short."""

    def test_uniform_bank_skips_the_kernel_until_a_stream_is_short(
        self, monkeypatch
    ):
        bank = UniformBank([0, 1, 2], block=16)
        calls = _spy_refill(monkeypatch)
        reference = [
            np.random.Generator(np.random.PCG64(s)).random(40) for s in range(3)
        ]
        drawn = [row.tolist() for row in bank.take_grid(12)]
        bank.ensure(4)  # every cursor at 12 = block - needed
        assert calls == []
        drawn[1].append(bank.take_scalar(1))
        bank.ensure(4)  # stream 1 is one draw short
        assert calls == [[12, 13, 12]]
        for _ in range(6):
            bank.ensure(4)
            for row, values in zip(drawn, bank.take_grid(4).tolist()):
                row.extend(values)
        assert len(calls) > 1
        for s, row in enumerate(drawn):
            assert row == reference[s][: len(row)].tolist()

    def test_offset_bank_skips_the_kernel_until_a_stream_is_short(
        self, monkeypatch
    ):
        periods = [4, 8]
        bank = OffsetBank([[0, 1], [2, 3]], periods, block=8)
        calls = _spy_refill(monkeypatch)
        reference = {
            (i, j): np.random.Generator(np.random.PCG64(2 * i + j)).integers(
                0, periods[j], size=30
            )
            for i in range(2)
            for j in range(2)
        }
        out = np.zeros((2, 2), dtype=np.int64)
        only = np.array([[False, True], [False, False]])
        for _ in range(4):
            bank.take_masked(only, out)
        bank.ensure(4)  # stream (0, 1) at 4 = block - needed
        assert calls == []
        bank.take_masked(only, out)
        bank.ensure(4)  # now one draw short
        assert calls == [[0, 5, 0, 0]]
        drawn = {key: [] for key in reference}
        for k in range(25):
            bank.ensure(1)
            bank.take_masked(np.ones((2, 2), dtype=bool), out)
            for (i, j), values in drawn.items():
                values.append(out[i, j])
        for (i, j), values in drawn.items():
            start = 5 if (i, j) == (0, 1) else 0
            assert values == reference[i, j][start : start + 25].tolist()

    @pytest.mark.parametrize("cursor", [-1, 17])
    def test_out_of_range_cursor_still_reaches_the_kernel_and_raises(
        self, monkeypatch, cursor
    ):
        bank = UniformBank([0, 1], block=16)
        calls = _spy_refill(monkeypatch)
        bank._cursor[1] = cursor
        with pytest.raises(ValueError, match="within its block"):
            bank.ensure(1)
        assert len(calls) == 1

    @pytest.mark.parametrize("cursor", [-1, 9])
    def test_out_of_range_offset_cursor_still_raises(self, monkeypatch, cursor):
        bank = OffsetBank([[0, 1]], [4, 8], block=8)
        calls = _spy_refill(monkeypatch)
        bank._cursor[0, 1] = cursor
        with pytest.raises(ValueError, match="within its block"):
            bank.ensure(1)
        assert len(calls) == 1


class TestFleetSpec:
    def test_specs_for_seeds_names_in_order(self):
        specs = specs_for_seeds([9, 8, 7])
        assert [s.name for s in specs] == ["net0", "net1", "net2"]
        assert [s.seed for s in specs] == [9, 8, 7]


class TestSlotLog:
    def test_columns_read_back_every_row_across_growth(self):
        n_slots = 2 * SlotLog.INITIAL_CAPACITY + 3
        rng = np.random.default_rng(0)
        rows = [
            (
                rng.integers(0, 4, 5),
                rng.integers(-1, 3, 5),
                rng.random(5) < 0.5,
                rng.random(5) < 0.5,
                rng.random(5) < 0.5,
            )
            for _ in range(n_slots)
        ]
        log = SlotLog(5)
        for row in rows:
            log.append_slot(*row)
        assert len(log) == n_slots
        for k, (name, dtype) in enumerate(SlotLog.FIELDS):
            column = getattr(log, name)
            assert column.dtype == dtype
            assert (column == np.stack([row[k] for row in rows])).all()

    def test_columns_are_read_only_and_copy_their_rows(self):
        log = SlotLog(2)
        acked = np.array([True, False])
        log.append_slot(np.zeros(2), np.full(2, -1), acked, acked, acked)
        acked[:] = False
        assert log.acked.tolist() == [[True, False]]
        with pytest.raises(ValueError):
            log.acked[0, 0] = False


class TestFleetEngineValidation:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetEngine(
                PERIODS,
                [FleetSpec(name="a", seed=0), FleetSpec(name="a", seed=1)],
            )

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: FleetSpec(name="a", seed=1.5), "seed"),
            (lambda: FleetSpec(name="a", seed=True), "seed"),
            (lambda: FleetSpec(name="a", seed=np.float64(2.0)), "seed"),
            (lambda: FleetSpec(name="a", seed="3"), "seed"),
            (lambda: FleetSpec(name="", seed=1), "name"),
            (lambda: specs_for_seeds([0, 1.5]), "seed"),
            (lambda: FleetRunner(PERIODS, [0, False], 8), "seed"),
        ],
        ids=["float", "bool", "numpy-float", "str", "empty-name",
             "specs_for_seeds", "runner"],
    )
    def test_rejects_seeds_that_would_alias_and_empty_names(self, build, field):
        # int() would have run 1.5 and True as seed 1.
        with pytest.raises(ValueError, match=field):
            build()
        spec = FleetSpec(name="a", seed=np.int64(-3))
        assert spec.seed == -3 and type(spec.seed) is int

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

    def test_reset_naming_an_unknown_network_queues_nothing(self):
        engine = FleetEngine(PERIODS, specs_for_seeds([0, 1]))
        with pytest.raises(KeyError, match="unknown network 'nope'"):
            engine.request_reset(["net0", "nope"])
        assert not engine.reader.pending_reset.any()


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

    def test_records_are_fresh_lists(self):
        engine = FleetEngine(PERIODS, specs_for_seeds([0, 1]))
        engine.run(20)
        for spec in engine.specs:
            engine.records(spec.name).clear()
            assert len(engine.records(spec.name)) == 20
            assert engine.summary(spec.name)["slots"] == 20

    @pytest.mark.parametrize("query", ["records", "summary", "settled_fraction"])
    def test_unknown_network_raises_one_message(self, query):
        engine = FleetEngine(PERIODS, specs_for_seeds([0]))
        with pytest.raises(KeyError, match="unknown network 'nope'"):
            getattr(engine, query)("nope")


class TestSummaryOracle:
    """``summaries()`` and ``summary(name)`` equal tallies over a
    sequential twin's records plus its ``settled_fraction()``."""

    SEEDS = [3, 1, 2]

    @staticmethod
    def _check(engine, twins):
        expected = [summary_from_records(name, net) for name, net in twins]
        assert engine.summaries() == expected
        assert [engine.summary(name) for name, _ in twins] == expected

    @pytest.mark.parametrize("n_slots", [0, 1, 63, 64, 65, 131])
    def test_slot_counts_across_log_growth(self, n_slots):
        engine = FleetEngine(PERIODS, specs_for_seeds(self.SEEDS))
        engine.run(n_slots)
        twins = []
        for spec in engine.specs:
            net = SlottedNetwork(PERIODS, config=NetworkConfig(seed=spec.seed))
            net.run(n_slots)
            twins.append((spec.name, net))
        self._check(engine, twins)

    def test_given_medium(self):
        def lossy_medium():
            medium = AcousticMedium()
            medium.biw.set_joint_loss_offset_db(30.0)
            medium.invalidate_channel_cache()
            return medium

        engine = FleetEngine(
            PERIODS, specs_for_seeds(self.SEEDS), medium=lossy_medium()
        )
        engine.run(131)
        twins = []
        for spec in engine.specs:
            net = SlottedNetwork(
                PERIODS, config=NetworkConfig(seed=spec.seed), medium=lossy_medium()
            )
            net.run(131)
            twins.append((spec.name, net))
        self._check(engine, twins)
        stock = FleetEngine(PERIODS, specs_for_seeds(self.SEEDS))
        stock.run(131)
        assert stock.summaries() != engine.summaries()

    def test_energy_mode(self):
        specs = specs_for_seeds(self.SEEDS + [4])
        engine = FleetEngine(PERIODS, specs, energy=True)
        engine.run(131)
        twins = []
        for spec in specs:
            net = EnergyAwareNetwork(PERIODS, config=NetworkConfig(seed=spec.seed))
            net.run(131)
            twins.append((spec.name, net))
        self._check(engine, twins)

    def test_staggered_activation(self):
        activation = {"tag1": 10, "tag2": 30, "tag3": 90}
        engine = FleetEngine(
            PERIODS, specs_for_seeds(self.SEEDS), activation_slot=activation
        )
        twins = [
            (
                spec.name,
                SlottedNetwork(
                    PERIODS,
                    config=NetworkConfig(seed=spec.seed),
                    activation_slot=activation,
                ),
            )
            for spec in engine.specs
        ]
        # Before, between and after the activations.
        for n_slots in (5, 20, 45, 131):
            engine.run(n_slots - engine.slots_elapsed)
            for _, net in twins:
                net.run(n_slots - len(net.records))
            self._check(engine, twins)
