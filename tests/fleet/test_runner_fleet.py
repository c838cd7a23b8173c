"""FleetRunner: sharded sweeps must be byte-identical however executed."""

import json
import os
import time

import pytest
from fleet.oracles import summary_from_records

from repro.experiments.runner import (
    FleetRunner,
    ResultsError,
    _run_fleet_shard,
    _write_checkpoint,
)

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8}
SEEDS = list(range(13))
SLOTS = 150


def doc_bytes(document):
    return json.dumps(document, sort_keys=True)


@pytest.fixture(scope="module")
def reference_doc():
    return FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run()


@pytest.fixture()
def patch_shard(monkeypatch):
    """``patch_shard(seed, action)``: the shard holding ``seed`` calls
    ``action()`` before it builds its engine.

    Shards look ``repro.fleet.FleetEngine`` up when they run, so forked
    pool workers see the patch too.
    """
    import repro.fleet as fleet_mod

    real = fleet_mod.FleetEngine

    def install(seed, action):
        def engine(tag_periods, specs, **kwargs):
            if any(spec.seed == seed for spec in specs):
                action()
            return real(tag_periods, specs, **kwargs)

        monkeypatch.setattr(fleet_mod, "FleetEngine", engine)

    return install


class TestShardingInvariance:
    def test_shard_size_does_not_change_bytes(self, reference_doc):
        for shard_size in (1, 5, 64):
            doc = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=shard_size).run()
            assert doc_bytes(doc) == doc_bytes(reference_doc)

    def test_pool_matches_serial(self, reference_doc):
        doc = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=3).run(jobs=3)
        assert doc_bytes(doc) == doc_bytes(reference_doc)

    def test_rows_match_direct_engine_summaries(self, reference_doc):
        """Each row equals the tally over a sequential network's records
        for the same seed."""
        from repro.core.network import NetworkConfig, SlottedNetwork

        for row, seed in zip(reference_doc["networks"], SEEDS):
            net = SlottedNetwork(PERIODS, config=NetworkConfig(seed=seed))
            net.run(SLOTS)
            expected = summary_from_records(row["network"], net)
            expected["seed"] = seed
            assert row == expected

    def test_telemetry_signature_stable_across_grouping(self):
        serial = FleetRunner(PERIODS, SEEDS[:8], 100, shard_size=3).run(
            telemetry=True
        )
        pooled = FleetRunner(PERIODS, SEEDS[:8], 100, shard_size=5).run(
            jobs=2, telemetry=True
        )
        assert (
            serial["telemetry"]["signature"] == pooled["telemetry"]["signature"]
        )


class TestOneChannelPerRun:
    def test_every_shard_of_a_run_shares_one_fresh_medium(self, monkeypatch):
        import repro.fleet as fleet_mod

        media = []
        real = fleet_mod.FleetEngine

        def engine(tag_periods, specs, **kwargs):
            media.append(kwargs["medium"])
            return real(tag_periods, specs, **kwargs)

        monkeypatch.setattr(fleet_mod, "FleetEngine", engine)
        runner = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4)
        first, second = runner.run(), runner.run()
        assert doc_bytes(first) == doc_bytes(second)
        assert len(media) == 2 * len(runner.shards())
        per_run = len(runner.shards())
        assert len({id(m) for m in media[:per_run]}) == 1
        assert len({id(m) for m in media[per_run:]}) == 1
        assert media[0] is not media[per_run]


class TestPoolRobustness:
    def test_pool_timeout_bounds_a_hung_shard(self, patch_shard):
        patch_shard(SEEDS[5], lambda: time.sleep(6))
        start = time.monotonic()
        with pytest.raises(ResultsError, match="timed out"):
            FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run(
                jobs=2, timeout=0.5, max_retries=0
            )
        # The pool must not wait on the hung worker past the timeout.
        assert time.monotonic() - start < 3

    def test_broken_pool_falls_back_to_serial(self, patch_shard, reference_doc):
        parent = os.getpid()

        def die_in_worker():
            if os.getpid() != parent:
                os._exit(1)  # hard worker death -> BrokenProcessPool

        patch_shard(SEEDS[5], die_in_worker)
        doc = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run(jobs=2)
        assert doc_bytes(doc) == doc_bytes(reference_doc)

    def test_pool_never_outnumbers_pending_shards(self, monkeypatch):
        import repro.experiments.runner as runner_mod

        sizes = []
        real = runner_mod.ProcessPoolExecutor

        class Recording(real):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", Recording)
        FleetRunner(PERIODS, SEEDS[:6], 40, shard_size=2).run(jobs=8)
        assert sizes == [3]


class TestCheckpointing:
    def test_resume_completes_partial_run(self, tmp_path, reference_doc):
        ckpt = str(tmp_path / "fleet.ckpt")
        runner = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4)
        shard = runner.shards()[0]
        index = shard[0]
        rows = _run_fleet_shard(
            sorted(PERIODS.items()), shard[2], shard[3], SLOTS, None, False
        )
        _write_checkpoint(
            ckpt, runner._checkpoint_identity(), {str(index): rows}, {}
        )
        resumed = runner.run(checkpoint=ckpt, resume=True)
        assert doc_bytes(resumed) == doc_bytes(reference_doc)
        assert not os.path.exists(ckpt)  # deleted on completion

    def test_checkpoint_written_during_run(self, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        runner = FleetRunner(PERIODS, SEEDS[:6], 50, shard_size=2)
        runner.run(checkpoint=ckpt)
        assert not os.path.exists(ckpt)

    def test_mismatched_checkpoint_refused(self, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        other = FleetRunner(PERIODS, SEEDS, SLOTS + 1, shard_size=4)
        _write_checkpoint(ckpt, other._checkpoint_identity(), {}, {})
        with pytest.raises(ResultsError, match="refusing to mix"):
            FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run(
                checkpoint=ckpt, resume=True
            )

    @pytest.mark.parametrize(
        "field, other",
        [
            ("seeds", {"seeds": SEEDS[1:]}),
            ("tag_periods", {"tag_periods": {**PERIODS, "tag3": 16}}),
            ("energy", {"energy": True}),
            ("shard_size", {"shard_size": 5}),
        ],
    )
    def test_checkpoint_of_another_sweep_refused(self, tmp_path, field, other):
        ckpt = str(tmp_path / "fleet.ckpt")
        args = {"tag_periods": PERIODS, "seeds": SEEDS, "n_slots": SLOTS}
        theirs = FleetRunner(**{**args, "shard_size": 4, **other})
        _write_checkpoint(ckpt, theirs._checkpoint_identity(), {}, {})
        with pytest.raises(ResultsError, match=f"{field}=.*refusing to mix"):
            FleetRunner(**args, shard_size=4).run(checkpoint=ckpt, resume=True)
        assert os.path.exists(ckpt)

    def test_fragment_with_wrong_row_count_refused(self, tmp_path):
        ckpt = str(tmp_path / "fleet.ckpt")
        runner = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4)
        index, _, names, seeds = runner.shards()[0]
        rows = _run_fleet_shard(
            sorted(PERIODS.items()), names, seeds, SLOTS, None, False
        )
        _write_checkpoint(
            ckpt, runner._checkpoint_identity(), {str(index): rows[:-1]}, {}
        )
        with pytest.raises(ResultsError, match="malformed"):
            runner.run(checkpoint=ckpt, resume=True)
        assert os.path.exists(ckpt)

    def test_resume_without_checkpoint_path_rejected(self):
        with pytest.raises(ResultsError, match="resume"):
            FleetRunner(PERIODS, SEEDS, SLOTS).run(resume=True)


class TestLargeSeeds:
    """Seeds that float64 rows cannot hold come back exact."""

    SEEDS = [2**53 + 1, 2**63 - 1, 5]

    @pytest.mark.parametrize("path", ["serial", "pool", "resume"])
    def test_document_reports_exact_seeds(self, tmp_path, path):
        runner = FleetRunner(PERIODS, self.SEEDS, 30, shard_size=2)
        if path == "serial":
            doc = runner.run()
        elif path == "pool":
            doc = runner.run(jobs=2)
        else:
            ckpt = str(tmp_path / "fleet.ckpt")
            index, offset, names, seeds = runner.shards()[0]
            rows = _run_fleet_shard(
                sorted(PERIODS.items()), names, seeds, 30, None, False
            )
            _write_checkpoint(
                ckpt, runner._checkpoint_identity(), {str(index): rows}, {}
            )
            doc = runner.run(checkpoint=ckpt, resume=True)
        assert [n["seed"] for n in doc["networks"]] == self.SEEDS


class TestValidation:
    def test_rejects_empty_sweep(self):
        with pytest.raises(ResultsError):
            FleetRunner(PERIODS, [], SLOTS)

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ResultsError):
            FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_slots", 16.5),
            ("n_slots", True),
            ("shard_size", 1.5),
            ("shard_size", False),
            ("shard_size", "4"),
        ],
    )
    def test_rejects_non_integer_sizes(self, field, value):
        # int() would run 16 slots for 16.5 and shards of one for 1.5.
        args = dict(n_slots=SLOTS, shard_size=4)
        args[field] = value
        with pytest.raises(ResultsError, match=f"{field} must be an integer"):
            FleetRunner(PERIODS, SEEDS, **args)

    def test_document_shape(self, reference_doc):
        assert reference_doc["schema"] == "fleet-sweep/1"
        assert reference_doc["n_networks"] == len(SEEDS)
        assert len(reference_doc["networks"]) == len(SEEDS)
        assert [n["seed"] for n in reference_doc["networks"]] == SEEDS
        agg = reference_doc["aggregate"]
        assert agg["tag_slots"] == len(SEEDS) * SLOTS * len(PERIODS)
        assert agg["decodes"] == sum(
            n["decodes"] for n in reference_doc["networks"]
        )
