"""End-to-end tracing: span trees, reconciliation, and zero perturbation.

Three contracts, tested against full simulated workloads:

1. a traced run produces the documented span hierarchy
   (``put -> put.block -> transport/cpu/...``, degraded reads under
   ``get``, recovery phases around repair tasks), with every span closed;
2. summing the ``booked`` attribute of cost-charging spans reproduces
   ``Metrics.breakdown`` to float round-off — the trace can never
   disagree with the aggregate numbers;
3. tracing is *observationally free*: runs with tracing on and off
   execute the identical event timeline, counters and final clock, and a
   tracing-off service carries the shared ``NULL_TRACER``.
"""

import pytest

from repro.obs.export import chrome_trace, spans_to_breakdown
from repro.obs.tracer import NULL_TRACER
from tests.conftest import make_service


def run_workload(tracing: bool, with_failure: bool = True):
    svc = make_service("corec", tracing=tracing)

    def wf():
        for step in range(3):
            for b in range(8):
                yield from svc.put("w0", "v", svc.domain.block_bbox(b))
            yield from svc.end_step()
        yield from svc.flush()
        _, payloads = yield from svc.get("r0", "v", svc.domain.bbox)
        assert len(payloads) == svc.domain.n_blocks
        if with_failure:
            # fail/replace after the read, so the lazy sweep (not
            # repair-on-access) performs the repairs and traces its tasks
            svc.fail_server(2)
            svc.replace_server(2)

    svc.run_workflow(wf())
    svc.run()
    assert svc.read_errors == 0
    return svc


@pytest.fixture(scope="module")
def traced_service():
    return run_workload(tracing=True)


class TestSpanHierarchy:
    def test_put_roots_contain_blocks_and_leaves(self, traced_service):
        tracer = traced_service.tracer
        puts = [s for s in tracer.roots() if s.name == "put"]
        assert len(puts) == 24  # 3 steps x 8 blocks, one root per put call
        for root in puts:
            blocks = tracer.children(root)
            assert blocks and all(b.name == "put.block" for b in blocks)
        # every put tree bottoms out in cost leaves
        leaf_names = {
            s.name for root in puts for s in tracer.iter_tree(root)
        }
        assert {"transport", "cpu", "metadata.send"} <= leaf_names

    def test_get_tree(self, traced_service):
        tracer = traced_service.tracer
        gets = [s for s in tracer.roots() if s.name == "get"]
        assert len(gets) == 1
        tree_names = {s.name for s in tracer.iter_tree(gets[0])}
        assert "get.block" in tree_names and "get.fetch" in tree_names

    def test_failure_and_recovery_spans(self, traced_service):
        tracer = traced_service.tracer
        assert tracer.find("failure.detect") and tracer.find("failure.replace")
        # corec on replace runs a lazy sweep; repair work nests under it
        sweeps = tracer.find("recovery.sweep")
        assert sweeps
        sweep_tree = {s.name for s in tracer.iter_tree(sweeps[0])}
        assert "recovery.task" in sweep_tree

    def test_stripe_form_kernel_attrs(self, traced_service):
        forms = traced_service.tracer.find("stripe.form")
        assert forms
        for span in forms:
            assert span.attrs["kernel_calls"] >= 0
            assert span.attrs["shard_len"] > 0
            assert span.attrs["members"] > 0

    def test_all_spans_closed(self, traced_service):
        open_spans = [s for s in traced_service.tracer.spans if s.t1 is None]
        assert open_spans == []

    def test_span_times_within_run(self, traced_service):
        end = traced_service.sim.now
        for s in traced_service.tracer.spans:
            assert 0.0 <= s.t0 <= s.t1 <= end


class TestReconciliation:
    def test_booked_spans_reproduce_breakdown(self, traced_service):
        recon = spans_to_breakdown(traced_service.tracer.spans)
        breakdown = traced_service.metrics.breakdown
        for category, value in breakdown.items():
            assert recon.get(category, 0.0) == pytest.approx(value, abs=1e-9), category
        # and nothing was booked into a category the metrics don't know
        assert set(recon) <= set(breakdown)

    def test_recovery_phase_categories_registered(self, traced_service):
        assert "recovery_sweep" in traced_service.metrics.breakdown

    def test_chrome_trace_exports_laminar_tids(self, traced_service):
        events = [
            e for e in chrome_trace(traced_service.tracer)["traceEvents"] if e["ph"] == "X"
        ]
        stacks = {}
        for ev in events:  # already in start order
            stack = stacks.setdefault(ev["tid"], [])
            while stack and stack[-1] <= ev["ts"] + 1e-6:
                stack.pop()
            assert not stack or stack[-1] >= ev["ts"] + ev["dur"] - 1e-6
            stack.append(ev["ts"] + ev["dur"])


class TestZeroPerturbation:
    def test_tracing_off_uses_null_tracer(self):
        svc = make_service("corec")
        assert svc.tracer is NULL_TRACER

    def test_traced_and_untraced_runs_identical(self):
        def fingerprint(svc):
            return (
                svc.projection(),
                dict(svc.metrics.counters),
                round(svc.sim.now, 12),
                {c: round(v, 12) for c, v in svc.metrics.breakdown.items()
                 if c in ("transport", "metadata", "encode", "classify",
                          "decode", "recovery", "store")},
            )

        traced = run_workload(tracing=True)
        plain = run_workload(tracing=False)
        assert fingerprint(traced) == fingerprint(plain)
        assert plain.tracer.spans == [] and len(traced.tracer.spans) > 0

    def test_default_breakdown_shape_preserved(self):
        # extra recovery categories appear only when tracing is on, so
        # golden benchmark JSON shapes are untouched by default
        plain = run_workload(tracing=False)
        assert "recovery_sweep" not in plain.metrics.breakdown
