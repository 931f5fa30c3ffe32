"""Tests for the Chrome-trace / JSONL / metrics exporters."""

import json
import os

import pytest

from repro.core.metrics import Metrics
from repro.obs.export import (
    chrome_trace,
    span_rows,
    span_summary,
    spans_to_breakdown,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_json,
    write_spans_jsonl,
    write_trace_dir,
)
from repro.obs.tracer import Tracer
from repro.obs.wallclock import WallClockTracer
from repro.util.eventlog import EventLog


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def build_sample_tracer():
    """root[0,10] > child[1,4] + child2[5,9]; sibling[2,8] overlaps child."""
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.begin("put", category="request")
    clock.t = 1.0
    child = tracer.begin("transport", category="transport", parent=root, nbytes=64)
    clock.t = 2.0
    sibling = tracer.begin("other", category="request", parent=root)
    clock.t = 4.0
    tracer.end(child, booked=3.0)
    clock.t = 5.0
    child2 = tracer.begin("cpu", category="encode", parent=root)
    clock.t = 9.0
    tracer.end(child2, booked=4.0)
    clock.t = 8.0  # close sibling "late" relative to child2's open (overlap)
    tracer.end(sibling)
    clock.t = 9.5
    tracer.instant("failure.detect", category="failure", server=1)
    clock.t = 10.0
    tracer.end(root)
    return tracer


class TestChromeTrace:
    def test_structure(self):
        trace = chrome_trace(build_sample_tracer(), process_name="unit-test")
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        meta = events[0]
        assert meta["ph"] == "M" and meta["args"]["name"] == "unit-test"
        assert trace["otherData"]["spans"] == len(events) - 1

    def test_complete_vs_instant_events(self):
        events = chrome_trace(build_sample_tracer())["traceEvents"][1:]
        by_name = {e["name"]: e for e in events}
        put = by_name["put"]
        assert put["ph"] == "X"
        assert put["ts"] == 0.0 and put["dur"] == 10.0 * 1e6  # microseconds
        inst = by_name["failure.detect"]
        assert inst["ph"] == "i" and inst["s"] == "t"
        assert "dur" not in inst

    def test_args_carry_ids_and_attrs(self):
        events = chrome_trace(build_sample_tracer())["traceEvents"][1:]
        transport = next(e for e in events if e["name"] == "transport")
        assert transport["args"]["nbytes"] == 64
        assert transport["args"]["parent_id"] == 1
        put = next(e for e in events if e["name"] == "put")
        assert "parent_id" not in put["args"]

    def test_tids_nest_properly(self):
        """Every tid must hold a laminar family (Perfetto flame charts)."""
        events = [e for e in chrome_trace(build_sample_tracer())["traceEvents"] if e["ph"] == "X"]
        stacks = {}
        for ev in sorted(events, key=lambda e: (e["ts"], -e["dur"])):
            stack = stacks.setdefault(ev["tid"], [])
            while stack and stack[-1] <= ev["ts"]:
                stack.pop()
            assert not stack or stack[-1] >= ev["ts"] + ev["dur"]
            stack.append(ev["ts"] + ev["dur"])

    def test_overlapping_sibling_gets_own_tid(self):
        trace = chrome_trace(build_sample_tracer())
        by_name = {e["name"]: e for e in trace["traceEvents"][1:]}
        # transport [1,4] nests in put [0,10] — same tid; other [2,8]
        # overlaps cpu [5,9], so one of them must spill to a new tid
        assert by_name["transport"]["tid"] == by_name["put"]["tid"]
        assert by_name["other"]["tid"] != by_name["cpu"]["tid"]


class TestBreakdownReconciliation:
    def test_spans_to_breakdown_sums_booked(self):
        tracer = build_sample_tracer()
        assert spans_to_breakdown(tracer.spans) == {"transport": 3.0, "encode": 4.0}

    def test_unbooked_and_uncategorized_spans_ignored(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.begin("bare")  # no category
        tracer.end(span, booked=1.0)
        span2 = tracer.begin("nocost", category="request")  # no booked attr
        tracer.end(span2)
        assert spans_to_breakdown(tracer.spans) == {}


class TestSpanSummary:
    def test_groups_by_name(self):
        summary = span_summary(span_rows(build_sample_tracer()))
        by_name = {r["name"]: r for r in summary["by_span"]}
        assert by_name["put"]["n"] == 1
        assert by_name["put"]["max"] == 10.0
        assert by_name["failure.detect"]["max"] == 0.0
        assert set(by_name["transport"]) >= {"n", "mean", "p50", "p95", "p99", "max"}
        totals = [r["total"] for r in summary["by_span"]]
        assert totals == sorted(totals, reverse=True)
        # A simulator trace carries no trace ids and no request breakdowns.
        assert (summary["spans"], summary["traces"], summary["requests"]) == (5, 0, 0)
        assert summary["attribution"] == []

    def test_live_rows_count_traces_and_fold_breakdowns(self):
        tracer = WallClockTracer()
        for cost in (1e-3, 3e-3):
            span = tracer.begin("rpc.put", category="rpc")
            tracer.end(span, breakdown={"codec": cost, "socket": 1e-4})
        summary = span_summary(span_rows(tracer))
        assert (summary["traces"], summary["requests"]) == (2, 2)
        codec, socket = summary["attribution"]  # largest total first
        assert (codec["name"], codec["n"], socket["name"]) == ("codec", 2, "socket")
        assert codec["total"] == pytest.approx(4e-3)


class TestWriters:
    def test_chrome_trace_round_trip(self, tmp_path):
        path = write_chrome_trace(str(tmp_path / "trace.json"), build_sample_tracer())
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        assert len(trace["traceEvents"]) == 6  # 1 metadata + 5 spans

    def test_spans_jsonl_round_trip(self, tmp_path):
        tracer = build_sample_tracer()
        path = write_spans_jsonl(str(tmp_path / "spans.jsonl"), tracer)
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows == span_rows(tracer)
        assert [r["span_id"] for r in rows] == [1, 2, 3, 4, 5]

    def test_events_jsonl(self, tmp_path):
        log = EventLog()
        log.emit(1.0, "put", source="s0", nbytes=10)
        log.emit(2.0, "fail", source="s1")
        path = write_events_jsonl(str(tmp_path / "events.jsonl"), log)
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows[0] == {"t": 1.0, "kind": "put", "source": "s0", "data": {"nbytes": 10}}
        assert rows[1]["kind"] == "fail"

    def test_metrics_json(self, tmp_path):
        m = Metrics()
        m.record_put(0.25)
        m.count("encodes", 2)
        path = write_metrics_json(str(tmp_path / "metrics.json"), m)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["summary"]["put_n"] == 1
        assert payload["summary"]["counters"]["encodes"] == 2
        assert payload["registry"]["encodes"] == 2
        assert payload["registry"]["put_response_s"]["n"] == 1


class TestWriteTraceDir:
    ARTIFACTS = {
        "chrome_trace": "trace.json",
        "spans": "spans.jsonl",
        "events": "events.jsonl",
        "metrics": "metrics.json",
        "prometheus": "metrics.prom",
    }

    @pytest.mark.parametrize(
        "make_tracer, clock",
        [(build_sample_tracer, "simulated seconds"), (WallClockTracer, "wall-clock seconds")],
        ids=["sim", "wallclock"],
    )
    def test_writes_exactly_the_five_artifacts(self, tmp_path, make_tracer, clock):
        tracer = make_tracer()
        tracer.end(tracer.begin("rpc.put", category="rpc"))
        m = Metrics()
        m.record_put(0.25)
        out = tmp_path / "nested" / "dir"  # created on demand
        artifacts = write_trace_dir(
            str(out), tracer, EventLog(), m, process_name="unit", clock=clock
        )
        assert artifacts == {k: str(out / name) for k, name in self.ARTIFACTS.items()}
        assert sorted(os.listdir(out)) == sorted(self.ARTIFACTS.values())
        with open(artifacts["chrome_trace"], encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["otherData"]["clock"] == clock
        assert trace["traceEvents"][0]["args"]["name"] == "unit"
        assert "put_response_s_count 1" in (out / "metrics.prom").read_text()

    def test_summary_of_written_spans_equals_summary_of_the_tracer(self, tmp_path):
        tracer = build_sample_tracer()
        artifacts = write_trace_dir(str(tmp_path), tracer, EventLog(), Metrics())
        with open(artifacts["spans"], encoding="utf-8") as fh:
            read_back = [json.loads(line) for line in fh]
        assert span_summary(read_back) == span_summary(span_rows(tracer))
