"""Tests for the command-line experiment runner."""

import os

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_every_experiment_is_a_choice(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(["fig15", "--trials", "3", "--seed", "9"])
        assert args.trials == 3
        assert args.seed == 9

    def test_profile_flag(self):
        args = build_parser().parse_args(["results", "--profile"])
        assert args.profile is True
        assert build_parser().parse_args(["results"]).profile is False

    def test_fleet_shm_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fleet", "--shm"])
        assert exc.value.code == 2
        assert "--shm" in capsys.readouterr().err


class TestExecution:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "table2" in out

    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "slot" in out

    def test_table2_output(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "24.8" in out and "51.0" in out

    def test_fig11_output(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "tag11" in out

    def test_appc_output(self, capsys):
        assert main(["appc"]) == 0
        out = capsys.readouterr().out
        assert "absorbing=True" in out

    def test_fig16_respects_seed(self, capsys):
        assert main(["fig16", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "non-empty ratio" in out

    def test_fleet_writes_document(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "fleet.json"
        assert (
            main(
                [
                    "fleet",
                    "--fleet-size",
                    "6",
                    "--slots",
                    "80",
                    "--shard-size",
                    "4",
                    "--serial",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        assert "fleet sweep: 6 networks x 80 slots" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "fleet-sweep/1"
        assert document["n_networks"] == 6
        assert len(document["networks"]) == 6

    def test_fleet_stdout_and_parser_defaults(self, capsys):
        args = build_parser().parse_args(["fleet"])
        assert args.fleet_size == 256
        assert args.shard_size == 64
        assert not hasattr(args, "shm")
        assert main(["fleet", "--fleet-size", "2", "--slots", "40", "--serial"]) == 0
        out = capsys.readouterr().out
        assert '"schema": "fleet-sweep/1"' in out

    def test_fleet_bad_sweep_size_is_an_error_line(self):
        with pytest.raises(SystemExit, match="^error: fleet sweep needs"):
            main(["fleet", "--fleet-size", "0", "--serial"])

    def test_fleet_mismatched_checkpoint_is_an_error_line(self, tmp_path):
        """A refused fleet checkpoint exits with ``error: ...`` (no
        traceback), as 'results' does, and stays on disk."""
        from repro.experiments.runner import FleetRunner, _write_checkpoint
        from repro.faults.scenarios import SCENARIO_PERIODS

        ckpt = str(tmp_path / "fleet.ckpt")
        other = FleetRunner(SCENARIO_PERIODS, [0, 1], 41)
        _write_checkpoint(ckpt, other._checkpoint_identity(), {}, {})
        argv = ["fleet", "--fleet-size", "2", "--slots", "40", "--serial"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--checkpoint", ckpt, "--resume"])
        message = str(exc.value)
        assert message.startswith(f"error: checkpoint {ckpt} ")
        assert "refusing to mix" in message
        assert os.path.exists(ckpt)
