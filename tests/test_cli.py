"""Tests for the experiment-runner CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_case_defaults(self):
        args = build_parser().parse_args(["run-case"])
        assert args.case == "case1"
        assert args.policy == "corec"

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-case", "--policy", "raid6"])

    def test_failure_plan_args(self):
        args = build_parser().parse_args(
            ["run-case", "--fail", "4:0", "--replace", "8:0"]
        )
        assert args.fail == ["4:0"]
        assert args.replace == ["8:0"]


class TestRunCase:
    def test_small_run_json(self, capsys):
        rc = main(
            [
                "--json",
                "run-case",
                "--case",
                "case1",
                "--policy",
                "replicate",
                "--writers",
                "8",
                "--readers",
                "4",
                "--timesteps",
                "2",
                "--domain",
                "32",
                "32",
                "32",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["policy"] == "replicate"
        assert out["put_n"] == 16
        assert out["read_errors"] == 0
        assert out["storage_efficiency"] == pytest.approx(0.5)

    def test_failure_schedule(self, capsys):
        rc = main(
            [
                "--json",
                "run-case",
                "--case",
                "case5",
                "--policy",
                "corec",
                "--writers",
                "8",
                "--readers",
                "4",
                "--timesteps",
                "6",
                "--domain",
                "32",
                "32",
                "32",
                "--fail",
                "2:1",
                "--replace",
                "4:1",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["read_errors"] == 0
        assert len(out["step_get_ms"]) == 6

    def test_text_output(self, capsys):
        rc = main(
            [
                "run-case",
                "--case",
                "case1",
                "--policy",
                "none",
                "--writers",
                "8",
                "--readers",
                "1",
                "--timesteps",
                "1",
                "--domain",
                "32",
                "32",
                "32",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "put_mean_s" in text


class TestRunS3D:
    def test_small_s3d(self, capsys):
        rc = main(
            [
                "--json",
                "run-s3d",
                "--scale",
                "0",
                "--shrink",
                "8",
                "--subdomain",
                "8",
                "--timesteps",
                "3",
                "--object-bytes",
                "512",
                "--policy",
                "corec",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["writers"] == 8
        assert out["cumulative_write_s"] > 0
        assert out["read_errors"] == 0


class TestModel:
    def test_model_json(self, capsys):
        rc = main(["--json", "model", "--s", "0.67", "--miss", "0.0", "0.2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.2 < out["p_r_star"] < 0.3
        assert "corec_rm=0" in out["curves"]
        assert len(out["curves"]["p_h"]) == 11


class TestReport:
    def write_results(self, tmp_path):
        series = {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]}
        (tmp_path / "series.json").write_text(json.dumps(series))
        rows = [
            {"policy": "corec", "put_mean_ms": 1.0, "read_errors": 0},
            {"policy": "erasure", "put_mean_ms": 2.0, "read_errors": 0},
        ]
        (tmp_path / "rows.json").write_text(json.dumps(rows))

    def test_list(self, tmp_path, capsys):
        self.write_results(tmp_path)
        rc = main(["report", "--list", "--results-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "series" in out and "rows" in out

    def test_series_plot(self, tmp_path, capsys):
        self.write_results(tmp_path)
        rc = main(["report", "--name", "series", "--results-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "*=a" in out and "o=b" in out

    def test_rows_bars(self, tmp_path, capsys):
        self.write_results(tmp_path)
        rc = main(["report", "--name", "rows", "--results-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corec" in out and "#" in out

    def test_missing_name(self, tmp_path, capsys):
        rc = main(["report", "--results-dir", str(tmp_path)])
        assert rc == 2

    def test_json_passthrough(self, tmp_path, capsys):
        self.write_results(tmp_path)
        rc = main(["--json", "report", "--name", "rows", "--results-dir", str(tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["policy"] == "corec"


class TestScale:
    def test_small_sweep_json(self, capsys):
        rc = main(
            ["--json", "scale", "--servers", "4",
             "--blocks-per-server", "4", "--timesteps", "2"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["sweep"]) == 1
        row = out["sweep"][0]
        assert row["n_servers"] == 4
        assert row["full_scans_during_failure"] == 0
        assert out["bound_violations"] == []

    def test_rejects_bad_server_count(self):
        with pytest.raises(ValueError):
            main(["scale", "--servers", "5"])


class TestDurabilityCommand:
    def test_durability_json(self, capsys):
        rc = main([
            "--json", "durability",
            "--mtbf", "1000000", "--mttr", "1000",
            "--group-size", "4", "--tolerance", "1", "--groups", "8",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["group_mttdl_s"] > 0
        assert 0.0 <= out["annual_loss_probability"] <= 1.0
        assert len(out["deadline_sweep"]) == 5


class TestTraceReport:
    def test_trace_and_live_trace_are_one_report(self, tmp_path, capsys):
        out_dir = str(tmp_path / "trace")
        rc = main([
            "--json", "trace", "--case", "case5", "--timesteps", "2",
            "--writers", "8", "--readers", "4", "--out", out_dir,
        ])
        assert rc == 0
        artifacts = json.loads(capsys.readouterr().out)["artifacts"]
        assert set(artifacts) == {
            "chrome_trace", "spans", "events", "metrics", "prometheus"
        }
        assert main(["report", "--trace", artifacts["spans"]]) == 0
        by_file = capsys.readouterr().out
        assert main(["report", "--live-trace", out_dir]) == 0
        assert capsys.readouterr().out == by_file
        assert by_file.startswith("span ") and "events dropped: 0" in by_file
        assert main(["--json", "report", "--live-trace", out_dir]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"] > 0 and summary["traces"] == 0
        assert summary["by_span"][0]["total"] >= summary["by_span"][-1]["total"]


class TestLiveClusterCommand:
    def test_sharded_smoke_json(self, capsys):
        rc = main(["--json", "live", "--shards", "2", "--smoke"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["endpoints"]) == 2
        assert out["blocks_read"] > 0
        assert out["shards"] == 2
        assert out["unrecoverable"] == []
        assert out["invariant_violations"] == []

    def test_single_process_smoke_runs_the_same_body(self, capsys):
        rc = main(["--json", "live", "--smoke"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["port"] > 0
        assert out["blocks_read"] > 0
        assert out["unrecoverable"] == []
        assert out["invariant_violations"] == []

    def test_sharded_rejects_unshippable_policy(self, capsys):
        rc = main(["live", "--shards", "2", "--policy", "hybrid", "--smoke"])
        assert rc == 2
        assert "process-shippable" in capsys.readouterr().err


class TestLoadReplayCommands:
    def test_load_capture_then_replay_sim(self, tmp_path, capsys):
        tape_path = str(tmp_path / "cli.tape.jsonl")
        rc = main([
            "--json", "load", "--rate", "40", "--duration", "0.8",
            "--flows", "1", "--capture", tape_path,
            "--slo-put-p99", "5000", "--slo-get-p99", "5000",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ops"] > 0
        assert out["errors"] == 0
        assert out["slo_gate"] == "pass"
        assert out["tape"] == tape_path

        rc = main(["--json", "replay", "--tape", tape_path, "--backend", "sim"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert not out["mismatches"]
        assert out["digest_checks"] > 0
        # Streamed captures carry no projection hash (background
        # batching is timing-dependent); the check reports that.
        assert out["projection_check"] == "not-checked"

    def test_replay_amplified(self, tmp_path, capsys):
        tape_path = str(tmp_path / "amp.tape.jsonl")
        rc = main([
            "--json", "load", "--rate", "40", "--duration", "0.6",
            "--flows", "1", "--capture", tape_path,
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "--json", "replay", "--tape", tape_path, "--backend", "sim",
            "--amplify", "flow0=2",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["amplified_ops"] > 0

    def test_replay_rejects_tape_without_deployment_meta(
        self, tmp_path, capsys
    ):
        from repro.workloads.capture import Tape

        tape = Tape()
        tape.record(0.0, "step", "w")
        path = str(tmp_path / "bare.tape.jsonl")
        tape.save(path)
        rc = main(["--json", "replay", "--tape", path, "--backend", "sim"])
        assert rc == 2
        assert "config" in capsys.readouterr().err

    def test_load_slo_failure_exits_nonzero(self, capsys):
        rc = main([
            "--json", "load", "--rate", "40", "--duration", "0.5",
            "--flows", "1", "--slo-put-p99", "0.000001",
        ])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        assert out["slo_gate"] == "fail"
        assert out["slo_violations"]

    def test_load_report_only_keeps_exit_zero(self, capsys):
        rc = main([
            "--json", "load", "--rate", "40", "--duration", "0.5",
            "--flows", "1", "--slo-put-p99", "0.000001", "--report-only",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["slo_gate"] == "report-only"
