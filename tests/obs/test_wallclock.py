"""Tests for the wall-clock tracer: contextvar scoping, distributed
trace ids, per-request latency attribution and the thread-safe stat
counters/Prometheus export that back the live metrics plane."""

import asyncio
import contextvars
import threading

import pytest

from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry, StatCounters
from repro.obs.tracer import Span
from repro.obs.wallclock import WAIT_CATEGORIES, WallClockTracer


class TestSpansAndTraceIds:
    def test_begin_end_stamps_wall_clock(self):
        tracer = WallClockTracer()
        span = tracer.begin("op", category="rpc")
        tracer.end(span)
        assert type(span) is Span
        assert 0.0 <= span.t0 <= span.t1

    def test_root_opens_fresh_trace_child_inherits(self):
        tracer = WallClockTracer()
        root = tracer.begin("root")
        child = tracer.begin("child", parent=root)
        other = tracer.begin("other-root")
        assert root.trace_id
        assert child.trace_id == root.trace_id
        assert other.trace_id != root.trace_id

    def test_explicit_trace_id_pins_the_trace(self):
        tracer = WallClockTracer()
        span = tracer.begin("dispatch", trace_id="abcd-0001")
        assert span.trace_id == "abcd-0001"
        child = tracer.begin("flow", parent=span)
        assert child.trace_id == "abcd-0001"

    def test_t0_backdates_the_start(self):
        tracer = WallClockTracer()
        span = tracer.begin("rpc", t0=0.125)
        assert span.t0 == 0.125

    def test_to_dict_carries_trace_id_and_clock(self):
        tracer = WallClockTracer()
        span = tracer.begin("op")
        tracer.end(span)
        row = span.to_dict()
        assert row["trace_id"] == span.trace_id
        assert row["clock"] == "wall"

    def test_span_ids_unique_and_ordered_across_threads(self):
        tracer = WallClockTracer()

        def open_some():
            for _ in range(200):
                tracer.end(tracer.begin("t"))

        threads = [threading.Thread(target=open_some) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == 800
        assert ids == sorted(ids)
        assert len(set(ids)) == 800


class TestContextScope:
    def test_activate_sets_current_parent(self):
        tracer = WallClockTracer()
        outer = tracer.begin("outer")
        token = tracer.activate(outer)
        try:
            assert tracer.current is outer
            child = tracer.begin("child")
            assert child.parent_id == outer.span_id
        finally:
            tracer.deactivate(token)
        assert tracer.current is None

    def test_asyncio_tasks_do_not_leak_scopes(self):
        """Concurrent tasks each see their own activated span as parent."""
        tracer = WallClockTracer()

        async def one_request(name):
            span = tracer.begin(name)
            token = tracer.activate(span)
            try:
                await asyncio.sleep(0.01)
                child = tracer.begin(f"{name}.child")
                await asyncio.sleep(0.01)
                tracer.end(child)
                return span, child
            finally:
                tracer.deactivate(token)
                tracer.end(span)

        async def run():
            return await asyncio.gather(one_request("a"), one_request("b"))

        (a, a_child), (b, b_child) = asyncio.run(run())
        assert a_child.parent_id == a.span_id
        assert b_child.parent_id == b.span_id
        assert a_child.trace_id == a.trace_id
        assert b_child.trace_id == b.trace_id
        assert a.trace_id != b.trace_id

    def test_worker_thread_inherits_scope_via_copy_context(self):
        """Snapshot the context, run work under it on another thread: spans
        still parent correctly."""
        tracer = WallClockTracer()
        parent = tracer.begin("request")
        token = tracer.activate(parent)
        ctx = contextvars.copy_context()
        tracer.deactivate(token)

        out = {}

        def work():
            span = tracer.begin("codec")
            tracer.end(span)
            out["span"] = span

        t = threading.Thread(target=lambda: ctx.run(work))
        t.start()
        t.join()
        assert out["span"].parent_id == parent.span_id
        assert out["span"].trace_id == parent.trace_id


def _waits_on(*events):
    for ev in events:
        yield ev
    return "done"


class _FakeEvent:
    def __init__(self, charge=None, delay=None):
        if charge is not None:
            self.charge = charge
        if delay is not None:
            self.delay = delay


class TestAttribution:
    def test_charge_goes_to_installed_sink(self):
        tracer = WallClockTracer()
        sink = {}
        token = tracer.push_attribution(sink)
        tracer.charge("codec", 0.5)
        tracer.charge("codec", 0.25)
        tracer.pop_attribution(token)
        tracer.charge("codec", 99.0)  # no sink installed: dropped
        assert sink == {"codec": pytest.approx({"codec": 0.75}["codec"])}

    def test_wait_category_classification(self):
        wc = WallClockTracer.wait_category
        assert wc(_FakeEvent(charge="lock_wait")) == "lock_wait"
        assert wc(_FakeEvent(delay=0.01)) == "queue_wait"  # a modeled delay takes no wall time
        assert wc(_FakeEvent(delay=0.0)) == "queue_wait"

        class Cond:
            events = ()

        assert wc(Cond()) == "fanout_wait"
        assert wc(object()) == "event_wait"
        for cat in ("lock_wait", "queue_wait", "fanout_wait", "event_wait"):
            assert cat in WAIT_CATEGORIES
        assert "transfer" not in WAIT_CATEGORIES

    def test_traced_charges_each_wait(self):
        tracer = WallClockTracer()
        sink = {}
        token = tracer.push_attribution(sink)
        flow = tracer.traced(
            "f", _waits_on(_FakeEvent(charge="lock_wait"), _FakeEvent(delay=0.01))
        )
        for item in flow:
            pass  # drive to completion; resume timestamps bracket each yield
        tracer.pop_attribution(token)
        assert set(sink) == {"lock_wait", "queue_wait"}
        assert all(v >= 0.0 for v in sink.values())

    def test_nested_traced_charges_exactly_once(self):
        """An outer flow `yield from` an inner traced flow: the shared
        waits must be charged by the outermost wrapper only."""
        tracer = WallClockTracer()
        ev = _FakeEvent(charge="lock_wait")

        def inner():
            yield ev
            return "inner-done"

        def outer(inner_flow):
            result = yield from inner_flow
            assert result == "inner-done"
            return "outer-done"

        sink = {}
        token = tracer.push_attribution(sink)
        flow = tracer.traced("outer", outer(tracer.traced("inner", inner())))
        for item in flow:
            assert item is ev
        tracer.pop_attribution(token)
        # One wait happened; two wrappers observed it; one charge landed.
        spans = {s.name for s in tracer.spans}
        assert {"outer", "inner"} <= spans
        assert list(sink) == ["lock_wait"]

    def test_traced_ends_span_on_error(self):
        tracer = WallClockTracer()

        def boom():
            raise RuntimeError("nope")
            yield  # pragma: no cover

        flow = tracer.traced("f", boom())
        with pytest.raises(RuntimeError):
            next(flow)
        (span,) = [s for s in tracer.spans if s.name == "f"]
        assert span.t1 is not None


class TestStatCounters:
    def test_mapping_interface(self):
        stats = StatCounters(("frames", "copies"))
        stats.inc("frames")
        stats.inc("copies", 5)
        assert stats["frames"] == 1
        assert dict(stats) == {"frames": 1, "copies": 5}
        assert len(stats) == 2
        assert set(stats) == {"frames", "copies"}

    def test_concurrent_increments_do_not_lose_updates(self):
        stats = StatCounters(("n",))

        def bump():
            for _ in range(5000):
                stats.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats["n"] == 40000

    def test_register_gauges_reads_live_values(self):
        stats = StatCounters(("passes",))
        reg = MetricsRegistry()
        stats.register_gauges(reg, "codec.parallel")
        assert reg.snapshot()["codec.parallel.passes"] == 0
        stats.inc("passes", 3)
        assert reg.snapshot()["codec.parallel.passes"] == 3


class TestPrometheusText:
    def test_renders_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("live.rpc.put").inc(7)
        reg.gauge("live.microqueue.depth", lambda: 3)
        hist = reg.histogram("live.rpc.put.e2e_s")
        for v in (0.001, 0.002, 0.003):
            hist.observe(v)
        text = prometheus_text(reg)
        assert "# TYPE live_rpc_put counter" in text
        assert "live_rpc_put 7" in text
        assert "live_microqueue_depth 3" in text
        assert 'live_rpc_put_e2e_s{quantile="0.99"}' in text
        assert "live_rpc_put_e2e_s_count 3" in text

    def test_non_numeric_gauges_are_skipped(self):
        reg = MetricsRegistry()
        reg.gauge("status", lambda: "green")
        reg.gauge("flag", lambda: True)
        reg.gauge("depth", lambda: 2)
        text = prometheus_text(reg)
        assert "status" not in text
        assert "flag" not in text
        assert "depth 2" in text

    def test_registry_creation_is_thread_safe(self):
        reg = MetricsRegistry()

        def create_many(base):
            for i in range(200):
                reg.counter(f"c.{base}.{i}").inc()

        threads = [threading.Thread(target=create_many, args=(b,)) for b in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(reg.names()) == 800
