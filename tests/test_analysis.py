"""Tests for the analysis/reporting helpers."""

import json

import numpy as np
import pytest

from repro.analysis import (
    ascii_bars,
    ascii_series,
    list_results,
    load_results,
)


class TestResultsStore:
    def test_roundtrip(self, tmp_path):
        payload = {"a": [1, 2, 3]}
        (tmp_path / "exp1.json").write_text(json.dumps(payload))
        assert list_results(str(tmp_path)) == ["exp1"]
        assert load_results("exp1", str(tmp_path)) == payload

    def test_missing_dir(self, tmp_path):
        assert list_results(str(tmp_path / "nope")) == []

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_results("nope", str(tmp_path))


class TestAsciiPlots:
    def test_series_contains_markers_and_legend(self):
        plot = ascii_series({"x": [1, 2, 3], "y": [3, 2, 1]}, height=5, title="T")
        assert plot.startswith("T")
        assert "*" in plot and "o" in plot
        assert "*=x" in plot and "o=y" in plot

    def test_series_flat_line(self):
        plot = ascii_series({"flat": [1.0, 1.0, 1.0]}, height=4)
        grid = "\n".join(plot.splitlines()[:-1])  # strip the legend line
        assert grid.count("*") == 3

    def test_series_handles_nan(self):
        plot = ascii_series({"x": [1.0, float("nan"), 2.0]}, height=4)
        grid = "\n".join(plot.splitlines()[:-1])
        assert grid.count("*") == 2

    def test_bars(self):
        out = ascii_bars({"corec": 1.0, "erasure": 2.0}, width=10, title="B")
        lines = out.splitlines()
        assert lines[0] == "B"
        assert lines[2].count("#") == 10      # peak fills the width
        assert 4 <= lines[1].count("#") <= 6  # half-scale bar

    def test_bars_empty(self):
        assert ascii_bars({}, title="E") == "E"


class TestEndToEndReport:
    def test_report_from_live_metrics(self):
        """The helpers compose into a small report from a real run."""
        from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig
        from tests.conftest import make_service

        series = {}
        for policy in ("replication", "corec"):
            svc = make_service(policy)
            wl = SyntheticWorkload(
                svc,
                SyntheticWorkloadConfig(case="case1", n_writers=8, timesteps=4),
            )
            svc.run_workflow(wl.run())
            svc.run()
            series[policy] = wl.step_put.values
        report = ascii_series(series, title="write response per step")
        assert "write response per step" in report
