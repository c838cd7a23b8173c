"""Tests for the machine-readable results runner."""

import json
import os

import numpy as np
import pytest

from repro.experiments.runner import collect_results


class TestCollectResults:
    @pytest.fixture(scope="class")
    def results(self, medium):
        return collect_results(medium, quick=True)

    def test_json_serialisable(self, results):
        text = json.dumps(results)
        assert json.loads(text) == json.loads(text)

    def test_contains_every_experiment(self, results):
        for key in (
            "table2_power_uw",
            "fig11",
            "fig12_snr_db",
            "fig13_loss_per_1k",
            "fig14",
            "fig15_median_slots",
            "fig16",
            "fig17_correlations",
            "fig19",
            "figS",
        ):
            assert key in results, key

    def test_paper_anchor_values_present(self, results):
        assert results["table2_power_uw"]["TX"] == pytest.approx(51.0)
        assert results["fig11"]["all_activate"] is True
        assert results["fig11"]["amplified_16x_v"]["tag11"] == pytest.approx(
            2.70, abs=0.05
        )
        assert results["fig16"]["bound"] == pytest.approx(0.84375)

    def test_fig15_sweep_monotone(self, results):
        meds = results["fig15_median_slots"]
        assert meds["c5"] > meds["c1"]

    def test_main_writes_file(self, tmp_path, medium, monkeypatch):
        # `repro results` builds its own medium; patch collect_results
        # to reuse the session fixture and keep the test fast.
        import repro.experiments.runner as runner_mod
        from repro.cli import main

        monkeypatch.setattr(
            runner_mod,
            "collect_results",
            lambda **kwargs: collect_results(medium, quick=True),
        )
        target = tmp_path / "out.json"
        assert main(["results", "--serial", "--out", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["table2_sustainable"] is True


class TestParallelExecution:
    def test_parallel_matches_serial_byte_for_byte(self, medium):
        serial = collect_results(medium, seed=7, quick=True, jobs=1)
        parallel = collect_results(medium, seed=7, quick=True, jobs=3)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_key_order_is_canonical(self, medium):
        serial = collect_results(medium, seed=1, quick=True, jobs=1)
        parallel = collect_results(medium, seed=1, quick=True, jobs=2)
        assert list(serial.keys()) == list(parallel.keys())

    def test_perf_section_opt_in(self, medium):
        plain = collect_results(medium, quick=True)
        assert "perf" not in plain
        with_perf = collect_results(medium, quick=True, perf=True)
        perf = with_perf["perf"]
        assert set(perf["experiment_wall_s"]) == {
            "table2",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig19",
            "figS",
        }
        assert all(t >= 0 for t in perf["experiment_wall_s"].values())
        json.dumps(with_perf)  # still serialisable with the perf section

    def test_unpicklable_medium_falls_back_to_serial(self, medium):
        class Unpicklable(type(medium)):
            def __reduce__(self):
                raise TypeError("not today")

        results = collect_results(Unpicklable(), seed=0, quick=True, jobs=2)
        assert results["table2_sustainable"] is True


# -- telemetry differential --------------------------------------------------
#
# The merged telemetry section must be byte-identical however the jobs
# were executed (serial, pool, resumed) — the cross-process half of the
# telemetry determinism contract (tests/telemetry covers the algebra).


def _net_job(tag, periods, n_slots, seed_offset):
    def job(medium, seed, quick):
        from repro.core.network import NetworkConfig, SlottedNetwork

        net = SlottedNetwork(
            periods,
            config=NetworkConfig(ideal_channel=True, seed=seed + seed_offset),
        )
        net.run(n_slots)
        return {tag: {"slots": n_slots}}

    job.__name__ = f"_job_{tag}"
    return job


@pytest.fixture()
def telemetry_jobs(monkeypatch):
    import repro.experiments.runner as runner_mod

    jobs = [
        ("t1", _net_job("t1", {"tag1": 4, "tag2": 8}, 120, 1)),
        ("t2", _net_job("t2", {"tag1": 4, "tag3": 8}, 150, 2)),
        ("t3", _net_job("t3", {"tag2": 8, "tag4": 16}, 90, 3)),
        ("t4", _net_job("t4", {"tag1": 4}, 60, 4)),
    ]
    monkeypatch.setattr(runner_mod, "EXPERIMENT_JOBS", jobs)
    monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", dict(jobs))
    return dict(jobs)


class TestTelemetryDifferential:
    def test_jobs4_matches_serial_byte_for_byte(self, telemetry_jobs, medium):
        serial = collect_results(
            medium, seed=7, quick=True, jobs=1, telemetry=True
        )
        parallel = collect_results(
            medium, seed=7, quick=True, jobs=4, telemetry=True
        )
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )
        assert (
            serial["telemetry"]["signature"]
            == parallel["telemetry"]["signature"]
        )

    def test_telemetry_section_opt_in(self, telemetry_jobs, medium):
        assert "telemetry" not in collect_results(medium, quick=True)

    def test_merged_totals_cover_every_job(self, telemetry_jobs, medium):
        from repro.telemetry import MetricsSnapshot

        doc = collect_results(medium, seed=0, quick=True, telemetry=True)
        snap = MetricsSnapshot.from_jsonable(doc["telemetry"]["snapshot"])
        assert snap.total("mac.slots") == 120 + 150 + 90 + 60
        assert doc["telemetry"]["signature"] == snap.signature()

    def test_report_identical_serial_vs_parallel(self, telemetry_jobs, medium):
        from repro.telemetry import render_results_report

        serial = collect_results(
            medium, seed=7, quick=True, jobs=1, telemetry=True
        )
        parallel = collect_results(
            medium, seed=7, quick=True, jobs=4, telemetry=True
        )
        assert render_results_report(serial) == render_results_report(parallel)

    def test_interrupted_telemetry_run_resumes_byte_identical(
        self, telemetry_jobs, tmp_path, monkeypatch, medium
    ):
        import repro.experiments.runner as runner_mod

        ckpt = str(tmp_path / "run.ckpt")
        uninterrupted = collect_results(
            medium, seed=7, quick=True, telemetry=True
        )

        patched = dict(telemetry_jobs)

        def dying_t3(m, seed, quick):
            raise KeyboardInterrupt

        patched["t3"] = dying_t3
        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", patched)
        with pytest.raises(KeyboardInterrupt):
            collect_results(
                medium, seed=7, quick=True, checkpoint=ckpt, telemetry=True
            )
        assert os.path.exists(ckpt)

        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", dict(telemetry_jobs))
        resumed = collect_results(
            medium,
            seed=7,
            quick=True,
            checkpoint=ckpt,
            resume=True,
            telemetry=True,
        )
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            uninterrupted, sort_keys=True
        )

    def test_resume_ignores_checkpoint_without_telemetry(
        self, telemetry_jobs, tmp_path, medium
    ):
        import repro.experiments.runner as runner_mod

        ckpt = str(tmp_path / "run.ckpt")
        # A telemetry-off checkpoint has fragments but no snapshots; a
        # telemetry-on resume must re-run those jobs, not emit a
        # partial telemetry section.
        runner_mod._write_checkpoint(
            ckpt,
            {"seed": 7, "quick": True},
            {"t1": {"t1": {"slots": 120}}},
            {"t1": 0.0},
        )
        resumed = collect_results(
            medium,
            seed=7,
            quick=True,
            checkpoint=ckpt,
            resume=True,
            telemetry=True,
        )
        fresh = collect_results(medium, seed=7, quick=True, telemetry=True)
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            fresh, sort_keys=True
        )


# -- robustness harness ------------------------------------------------------
#
# The crash/retry/resume machinery is independent of which experiments
# run, so these tests swap in a tiny synthetic job table (fast, and —
# via the fork start method — visible inside pool workers too).


def _tiny_job(tag):
    def job(medium, seed, quick):
        return {tag: {"seed": seed, "quick": quick}}

    job.__name__ = f"_job_{tag}"
    return job


@pytest.fixture()
def tiny_jobs(monkeypatch):
    import repro.experiments.runner as runner_mod

    jobs = [(name, _tiny_job(name)) for name in ("j1", "j2", "j3", "j4")]
    monkeypatch.setattr(runner_mod, "EXPERIMENT_JOBS", jobs)
    monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", dict(jobs))
    return dict(jobs)


class TestRobustRunner:
    def test_interrupted_run_resumes_byte_identical(
        self, tiny_jobs, tmp_path, monkeypatch, medium
    ):
        import repro.experiments.runner as runner_mod

        ckpt = str(tmp_path / "run.ckpt")
        uninterrupted = collect_results(medium, seed=7, quick=True)

        calls = {"n": 0}
        patched = dict(tiny_jobs)

        def dying_j3(m, seed, quick):
            raise KeyboardInterrupt

        patched["j3"] = dying_j3
        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", patched)
        with pytest.raises(KeyboardInterrupt):
            collect_results(medium, seed=7, quick=True, checkpoint=ckpt)
        assert os.path.exists(ckpt)  # the two finished fragments survive

        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", dict(tiny_jobs))
        resumed = collect_results(
            medium, seed=7, quick=True, checkpoint=ckpt, resume=True
        )
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            uninterrupted, sort_keys=True
        )
        assert not os.path.exists(ckpt)  # consumed on success

    def test_resume_runs_only_missing_jobs(
        self, tiny_jobs, tmp_path, monkeypatch, medium
    ):
        import repro.experiments.runner as runner_mod

        ckpt = str(tmp_path / "run.ckpt")
        ran = []
        patched = {}
        for name, job in tiny_jobs.items():
            def tracking(m, seed, quick, _name=name, _job=job):
                ran.append(_name)
                return _job(m, seed, quick)

            patched[name] = tracking
        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", patched)
        runner_mod._write_checkpoint(
            ckpt, {"seed": 7, "quick": True},
            {"j1": {"j1": {"seed": 7, "quick": True}},
             "j2": {"j2": {"seed": 7, "quick": True}}},
            {"j1": 0.0, "j2": 0.0},
        )
        collect_results(medium, seed=7, quick=True, checkpoint=ckpt, resume=True)
        assert sorted(ran) == ["j3", "j4"]

    def test_checkpoint_seed_mismatch_refused(self, tiny_jobs, tmp_path, medium):
        from repro.experiments.runner import ResultsError, _write_checkpoint

        ckpt = str(tmp_path / "run.ckpt")
        _write_checkpoint(ckpt, {"seed": 99, "quick": True}, {}, {})
        with pytest.raises(ResultsError, match="seed"):
            collect_results(medium, seed=7, quick=True, checkpoint=ckpt, resume=True)

    @pytest.mark.parametrize(
        "seed, expected", [(0.5, None), (True, None), ("1", None), (np.int64(7), 7)]
    )
    def test_seed_must_be_an_integer(
        self, seed, expected, tiny_jobs, monkeypatch, medium
    ):
        import repro.experiments.runner as runner_mod

        ran = []
        monkeypatch.setattr(
            runner_mod,
            "_JOBS_BY_NAME",
            {
                name: (lambda m, s, q, job=job: ran.append(s) or job(m, s, q))
                for name, job in tiny_jobs.items()
            },
        )
        if expected is None:
            with pytest.raises(ValueError, match="seed must be an integer"):
                collect_results(medium, seed=seed, quick=True)
            assert ran == []  # refused before any job ran
            return
        doc = collect_results(medium, seed=seed, quick=True)
        assert type(doc["seed"]) is int and doc["seed"] == expected
        assert ran and all(type(s) is int for s in ran)
        assert json.dumps(doc) == json.dumps(
            collect_results(medium, seed=expected, quick=True)
        )

    def test_resume_without_checkpoint_path_refused(self, tiny_jobs, medium):
        from repro.experiments.runner import ResultsError

        with pytest.raises(ResultsError, match="checkpoint"):
            collect_results(medium, seed=7, quick=True, resume=True)

    def test_broken_pool_falls_back_to_serial(
        self, tiny_jobs, monkeypatch, medium
    ):
        import repro.experiments.runner as runner_mod

        parent = os.getpid()
        patched = dict(tiny_jobs)
        real_j2 = tiny_jobs["j2"]

        def crashing_j2(m, seed, quick):
            if os.getpid() != parent:
                os._exit(1)  # hard worker death -> BrokenProcessPool
            return real_j2(m, seed, quick)

        patched["j2"] = crashing_j2
        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", patched)
        results = collect_results(medium, seed=7, quick=True, jobs=2)
        serial = collect_results(medium, seed=7, quick=True, jobs=1)
        assert json.dumps(results, sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )

    def test_flaky_job_retried_within_budget(self, tiny_jobs, monkeypatch, medium):
        import repro.experiments.runner as runner_mod

        attempts = {"n": 0}
        patched = dict(tiny_jobs)
        real_j1 = tiny_jobs["j1"]

        def flaky_j1(m, seed, quick):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise RuntimeError("transient")
            return real_j1(m, seed, quick)

        patched["j1"] = flaky_j1
        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", patched)
        results = collect_results(medium, seed=7, quick=True, max_retries=2)
        assert attempts["n"] == 3
        assert results["j1"] == {"seed": 7, "quick": True}

    def test_retry_budget_exhaustion_raises(self, tiny_jobs, monkeypatch, medium):
        import repro.experiments.runner as runner_mod

        from repro.experiments.runner import ResultsError

        patched = dict(tiny_jobs)

        def broken_j4(m, seed, quick):
            raise RuntimeError("permanent")

        patched["j4"] = broken_j4
        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", patched)
        with pytest.raises(ResultsError, match="j4.*2 attempts"):
            collect_results(medium, seed=7, quick=True, max_retries=1)

    def test_serial_timeout_bounds_a_hung_job(self, tiny_jobs, monkeypatch, medium):
        import time as time_mod

        import repro.experiments.runner as runner_mod
        from repro.experiments.runner import ResultsError

        patched = dict(tiny_jobs)

        def hung_j2(m, seed, quick):
            time_mod.sleep(30)
            return {}

        patched["j2"] = hung_j2
        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", patched)
        start = time_mod.monotonic()
        with pytest.raises(ResultsError, match="timed out"):
            collect_results(medium, seed=7, quick=True, timeout=0.3, max_retries=0)
        assert time_mod.monotonic() - start < 10

    def test_pool_timeout_bounds_a_hung_job(self, tiny_jobs, monkeypatch, medium):
        import time as time_mod

        import repro.experiments.runner as runner_mod
        from repro.experiments.runner import ResultsError

        patched = dict(tiny_jobs)

        def hung_j3(m, seed, quick):
            time_mod.sleep(3)
            return {}

        patched["j3"] = hung_j3
        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", patched)
        start = time_mod.monotonic()
        with pytest.raises(ResultsError, match="timed out"):
            collect_results(
                medium, seed=7, quick=True, jobs=2, timeout=0.5, max_retries=0
            )
        # The pool must not wait on the hung worker past the timeout.
        assert time_mod.monotonic() - start < 2.5

    def test_pool_job_raising_timeout_error_is_a_plain_failure(
        self, tiny_jobs, monkeypatch, medium
    ):
        """A job's own TimeoutError is a failure like any other, not a
        pool timeout (with no timeout set there is none to report)."""
        import repro.experiments.runner as runner_mod
        from repro.experiments.runner import ResultsError

        patched = dict(tiny_jobs)

        def refusing_j2(m, seed, quick):
            raise TimeoutError("instrument did not answer")

        patched["j2"] = refusing_j2
        monkeypatch.setattr(runner_mod, "_JOBS_BY_NAME", patched)
        with pytest.raises(ResultsError, match="j2.*instrument did not answer"):
            collect_results(medium, seed=7, quick=True, jobs=2, max_retries=0)

    def test_atomic_checkpoint_never_leaves_torn_files(self, tiny_jobs, tmp_path):
        from repro.experiments.runner import _load_checkpoint, _write_checkpoint

        ckpt = str(tmp_path / "run.ckpt")
        for i in range(5):
            identity = {"seed": 7, "quick": True}
            _write_checkpoint(ckpt, identity, {"j1": {"v": i}}, {"j1": 0.0})
            fragments, _, _ = _load_checkpoint(ckpt, identity)
            assert fragments == {"j1": {"v": i}}
        assert not os.path.exists(ckpt + ".tmp")


class TestCheckpointCrashPaths:
    """Both runners resume through one checkpoint reader: a torn, stale
    or foreign file is refused by name and left on disk."""

    @staticmethod
    def _fleet():
        from repro.experiments.runner import FleetRunner

        return FleetRunner({"tag1": 4, "tag2": 8}, [0, 1, 2], 40, shard_size=2)

    def _write(self, runner, ckpt):
        from repro.experiments.runner import _write_checkpoint

        if runner == "results":
            fragment = {"j1": {"seed": 7, "quick": True}}
            _write_checkpoint(
                ckpt, {"seed": 7, "quick": True}, {"j1": fragment}, {"j1": 0.0}
            )
        else:
            identity = self._fleet()._checkpoint_identity()
            _write_checkpoint(ckpt, identity, {"0": [[0.0] * 7, [1.0] * 7]}, {})

    @pytest.mark.parametrize("runner", ["results", "fleet"])
    @pytest.mark.parametrize("damage", ["truncated", "version", "other_runner"])
    def test_damaged_checkpoint_refused_and_kept(
        self, tiny_jobs, tmp_path, medium, runner, damage
    ):
        from repro.experiments.runner import ResultsError

        ckpt = str(tmp_path / "run.ckpt")
        other = "fleet" if runner == "results" else "results"
        self._write(other if damage == "other_runner" else runner, ckpt)
        with open(ckpt) as fh:
            text = fh.read()
        if damage == "truncated":
            text = text[: len(text) // 2]
        elif damage == "version":
            payload = json.loads(text)
            payload["version"] += 1
            text = json.dumps(payload)
        with open(ckpt, "w") as fh:
            fh.write(text)

        with pytest.raises(ResultsError) as exc:
            if runner == "results":
                collect_results(
                    medium, seed=7, quick=True, checkpoint=ckpt, resume=True
                )
            else:
                self._fleet().run(checkpoint=ckpt, resume=True)
        assert ckpt in str(exc.value)
        assert os.path.exists(ckpt)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unwritable_checkpoint_is_a_results_error(
        self, tiny_jobs, tmp_path, medium, jobs
    ):
        """A checkpoint that cannot be written stops the run by name; it
        is not charged to the job as a failed attempt."""
        from repro.experiments.runner import ResultsError

        ckpt = str(tmp_path / "missing" / "run.ckpt")
        with pytest.raises(ResultsError, match="cannot write checkpoint"):
            collect_results(
                medium, seed=7, quick=True, jobs=jobs, checkpoint=ckpt,
                max_retries=3,
            )


class TestProfiledExecution:
    def test_profiled_execute_dumps_pstats(self, tmp_path):
        import pstats

        from repro.experiments.runner import _experiment, _profiled_execute

        args = ("table2", None, 0, True)
        plain = _profiled_execute("table2", _experiment, args, False, None)
        profiled = _profiled_execute(
            "table2", _experiment, args, False, str(tmp_path)
        )
        assert profiled == plain  # profiling must not perturb the result
        dump = tmp_path / "table2.pstats"
        assert dump.exists()
        assert len(pstats.Stats(str(dump)).stats) > 0

    def test_no_profile_dir_writes_nothing(self, tmp_path):
        from repro.experiments.runner import _experiment, _profiled_execute

        _profiled_execute(
            "table2", _experiment, ("table2", None, 0, True), False, None
        )
        assert list(tmp_path.iterdir()) == []

    def test_collect_results_threads_profile_dir(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        seen = []
        real = runner_mod._profiled_execute

        def spy(key, fn, args, with_telemetry, profile_dir):
            seen.append(profile_dir)
            return real(key, fn, args, with_telemetry, profile_dir)

        monkeypatch.setattr(runner_mod, "_profiled_execute", spy)
        collect_results(seed=0, quick=True, jobs=1,
                        profile_dir=str(tmp_path))
        assert seen and all(p == str(tmp_path) for p in seen)
        assert any(f.suffix == ".pstats" for f in tmp_path.iterdir())
