"""Self-test of the benchmark driver (``python -m pytest benchmarks/e2e``).

Not part of the tier-1 ``testpaths``: it checks the ruler, not the repo.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

import pytest

import compare
import run

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def invoke(capsys, *argv) -> tuple[int, dict, str]:
    code = run.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def assert_nothing_left_running():
    assert [t for t in threading.enumerate() if t is not threading.main_thread()] == []
    assert multiprocessing.active_children() == []


def test_benchmark_json_names_the_driver():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert WORKLOADS == list(run.WORKLOADS)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_smoke_runs_every_workload_and_reports_every_metric(capsys):
    t0 = time.perf_counter()
    for workload in WORKLOADS:
        code, result, out = invoke(capsys, "--workload", workload, "--seconds", "1", "--smoke")
        assert code == 0, out
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0, metric["name"]
        assert_nothing_left_running()
    assert time.perf_counter() - t0 < 30


@pytest.mark.parametrize("workload", ["small_put_hot", "sim_s3d"])
def test_traced_run_reports_every_layer_metric(capsys, workload):
    code, result, out = invoke(capsys, "--workload", workload, "--trace", "1", "--smoke")
    assert code == 0, out
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["live.protocol.payload_copies"] == 0 and values["staging.metadata.full_scans"] == 0
    live = [v for name, v in values.items() if name.startswith(("live.", "client."))]
    if workload == "sim_s3d":
        assert not any(live) and values["sim.engine.sim_time_s"] > 0
    else:
        assert values["live.server.ping_rtt_p50_us"] > 0 and values["sim.engine.sim_time_s"] == 0
    with open(os.path.join(HERE, "out", "trace.jsonl"), encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans and all(s["t1"] >= s["t0"] for s in spans)
    assert_nothing_left_running()


def test_same_seed_same_tape_other_seed_other_tape():
    run.import_repro()
    from tape import SMOKE_SPECS, build_tape

    spec = SMOKE_SPECS["small_put_hot"]
    assert build_tape(spec, 3).sha256 == build_tape(spec, 3).sha256
    assert build_tape(spec, 3).sha256 != build_tape(spec, 4).sha256


def test_wrong_expected_bytes_fail_the_run(capsys):
    code, result, _ = invoke(capsys, "--workload", "small_put_hot", "--seconds", "1", "--smoke",
                             "--corrupt-expected")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert_nothing_left_running()


def test_compare_verdicts(tmp_path, capsys):
    def rows(path, put_values):
        with open(path, "w", encoding="utf-8") as fh:
            for value in put_values:
                metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
                metrics["put_p50_us"]["value"] = value
                fh.write(json.dumps({"workload": "small_put_hot", "seed": 1, "trace": 0,
                                     "correct": True, "metrics": metrics}) + "\n")
        return str(path)

    base = rows(tmp_path / "a.jsonl", [100.0, 101.0, 99.0, 100.5])
    assert compare.main([base, rows(tmp_path / "same.jsonl", [101.0, 100.0, 102.0, 99.5])]) == 0
    assert compare.main([base, rows(tmp_path / "slow.jsonl", [200.0, 201.0, 199.0, 200.5])]) == 1
    noisy = rows(tmp_path / "noisy.jsonl", [120.0, 300.0, 180.0, 260.0])
    assert compare.main([base, noisy]) == 0
    out = capsys.readouterr().out
    assert "worse" in out and "unresolved" in out
