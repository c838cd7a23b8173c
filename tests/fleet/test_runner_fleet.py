"""FleetRunner: sharded sweeps must be byte-identical however executed."""

import json
import os

import pytest
from fleet.oracles import summary_from_records

from repro.experiments.runner import (
    FleetRunner,
    ResultsError,
    _run_fleet_shard,
)

PERIODS = {"tag1": 4, "tag2": 8, "tag3": 8}
SEEDS = list(range(13))
SLOTS = 150


def doc_bytes(document):
    return json.dumps(document, sort_keys=True)


@pytest.fixture(scope="module")
def reference_doc():
    return FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run()


class TestShardingInvariance:
    def test_shard_size_does_not_change_bytes(self, reference_doc):
        for shard_size in (1, 5, 64):
            doc = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=shard_size).run()
            assert doc_bytes(doc) == doc_bytes(reference_doc)

    def test_pool_matches_serial(self, reference_doc):
        doc = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=3).run(jobs=3)
        assert doc_bytes(doc) == doc_bytes(reference_doc)

    def test_shm_seam_matches_pickled_returns(self, reference_doc):
        doc = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run(
            jobs=2, use_shm=True
        )
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
            jobs=2, telemetry=True, use_shm=True
        )
        assert (
            serial["telemetry"]["signature"] == pooled["telemetry"]["signature"]
        )


class TestCheckpointing:
    def test_resume_completes_partial_run(self, tmp_path, reference_doc):
        ckpt = str(tmp_path / "fleet.ckpt")
        runner = FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4)
        shard = runner.shards()[0]
        index, rows, _, _ = _run_fleet_shard(
            shard[0],
            sorted(PERIODS.items()),
            shard[2],
            shard[3],
            SLOTS,
            None,
            False,
            False,
            None,
            shard[1],
            runner.n_networks,
        )
        runner._write_fleet_checkpoint(ckpt, {str(index): rows}, {})
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
        FleetRunner(PERIODS, SEEDS, SLOTS + 1, shard_size=4)._write_fleet_checkpoint(
            ckpt, {}, {}
        )
        with pytest.raises(ResultsError, match="refusing to mix"):
            FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=4).run(
                checkpoint=ckpt, resume=True
            )

    def test_resume_without_checkpoint_path_rejected(self):
        with pytest.raises(ResultsError, match="resume"):
            FleetRunner(PERIODS, SEEDS, SLOTS).run(resume=True)


class TestLargeSeeds:
    """Seeds that float64 rows cannot hold come back exact."""

    SEEDS = [2**53 + 1, 2**63 - 1, 5]

    @pytest.mark.parametrize("path", ["serial", "shm", "resume"])
    def test_document_reports_exact_seeds(self, tmp_path, path):
        runner = FleetRunner(PERIODS, self.SEEDS, 30, shard_size=2)
        if path == "serial":
            doc = runner.run()
        elif path == "shm":
            doc = runner.run(jobs=2, use_shm=True)
        else:
            ckpt = str(tmp_path / "fleet.ckpt")
            index, offset, names, seeds = runner.shards()[0]
            _, rows, _, _ = _run_fleet_shard(
                index,
                sorted(PERIODS.items()),
                names,
                seeds,
                30,
                None,
                False,
                False,
                None,
                offset,
                runner.n_networks,
            )
            runner._write_fleet_checkpoint(ckpt, {str(index): rows}, {})
            doc = runner.run(checkpoint=ckpt, resume=True)
        assert [n["seed"] for n in doc["networks"]] == self.SEEDS


class TestValidation:
    def test_rejects_empty_sweep(self):
        with pytest.raises(ResultsError):
            FleetRunner(PERIODS, [], SLOTS)

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ResultsError):
            FleetRunner(PERIODS, SEEDS, SLOTS, shard_size=0)

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
