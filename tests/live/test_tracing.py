"""End-to-end wall-clock tracing over the live data plane.

The contract under test: one traced client request produces ONE linked
span tree spanning the client's rpc span, the server's dispatch span
(linked cross-process via trace-id equality + ``remote_parent``), the
put/get flow spans and the digest/codec compute under them — and the
dispatch span's latency breakdown reconciles against end-to-end wall
time.  With tracing off, the protocol must be byte-identical to the
untraced build: no header fields, no response fields, no spans.
"""

from __future__ import annotations

import importlib.util
import json
import os
import struct
import threading

import numpy as np
import pytest

from repro.core.corec import CoRECPolicy
from repro.live import LiveClient, serve_in_thread
from repro.live.protocol import frame_parts, header_preamble
from repro.staging.service import StagingConfig

REGION = ((0, 0, 0), (32, 32, 32))  # exactly one 32 KiB block


def one_block_config() -> StagingConfig:
    return StagingConfig(
        n_servers=8,
        domain_shape=(64, 64, 32),
        element_bytes=1,
        object_max_bytes=32768,
        seed=7,
    )


def traced_handle(**kwargs):
    return serve_in_thread(one_block_config(), CoRECPolicy, tracing=True, **kwargs)


def dispatch_spans(spans, op):
    """Server-side dispatch spans for ``op`` (they carry the breakdown)."""
    return [s for s in spans if s.name == f"rpc.{op}" and "breakdown" in s.attrs]


def client_spans(spans, op):
    return [s for s in spans if s.name == f"rpc.{op}" and "breakdown" not in s.attrs]


def traced_put_tree(config: StagingConfig, region, nbytes: int):
    """One traced put of ``nbytes``; returns (all spans, client rpc span,
    dispatch span, the spans of the put's trace)."""
    handle = serve_in_thread(config, CoRECPolicy, tracing=True)
    tracer = handle.live.tracer
    try:
        data = np.arange(nbytes, dtype=np.uint8)
        with LiveClient(handle.host, handle.port, name="t", tracer=tracer) as cli:
            cli.put("var0", *region, data)
            cli.quiesce()
    finally:
        handle.stop()
    spans = tracer.spans
    (cli_rpc,) = client_spans(spans, "put")
    (dispatch,) = dispatch_spans(spans, "put")
    tree = [s for s in spans if s.trace_id == cli_rpc.trace_id]
    return spans, cli_rpc, dispatch, tree


class TestLinkedSpanTree:
    def test_one_put_yields_one_linked_tree(self):
        """Client rpc -> server dispatch -> put flow -> digest: one trace.

        The digest runs on the loop, and shows as a ``digest`` span under
        the flow that asked for it, booked to the request's ``digest``
        bucket.
        """
        _, cli_rpc, dispatch, tree = traced_put_tree(one_block_config(), REGION, 32768)
        # Cross-process link: same trace, remote parent recorded, but the
        # dispatch span stays a *local* root.
        assert dispatch.trace_id == cli_rpc.trace_id
        assert dispatch.parent_id is None
        assert dispatch.attrs["remote_parent"] == cli_rpc.span_id
        assert cli_rpc.attrs["srv_span"] == dispatch.span_id

        # Every span of the trace parents back to the dispatch root.
        by_id = {s.span_id: s for s in tree}
        roots = set()
        for span in tree:
            node = span
            while node.parent_id is not None:
                assert node.parent_id in by_id, (
                    f"{node.name}: parent {node.parent_id} not in its own trace"
                )
                node = by_id[node.parent_id]
            roots.add(node.span_id)
        assert roots <= {cli_rpc.span_id, dispatch.span_id}

        tree_names = {s.name for s in tree}
        assert "put" in tree_names
        assert "put.block" in tree_names
        (digest,) = [s for s in tree if s.category == "digest"]
        assert digest.name == "inline.digest"
        assert by_id[digest.parent_id].name == "put.block"
        assert dispatch.attrs["breakdown"]["digest"] == pytest.approx(
            digest.t1 - digest.t0, abs=1e-9
        )

    def test_breakdown_reconciles_with_wall_time(self):
        """Categories are non-negative and sum exactly to e2e (``other`` is
        the residual that closes the sum, so its share of a request is
        scheduler luck, not a property to pin)."""
        handle = traced_handle()
        tracer = handle.live.tracer
        try:
            data = np.zeros(32 * 32 * 32, dtype=np.uint8)
            with LiveClient(handle.host, handle.port, name="t", tracer=tracer) as cli:
                for _ in range(3):
                    cli.put("var0", *REGION, data)
                cli.get("var0", *REGION)
                cli.quiesce()
        finally:
            handle.stop()
        spans = tracer.spans
        checked = 0
        for op in ("put", "get"):
            for span in dispatch_spans(spans, op):
                bd = span.attrs["breakdown"]
                e2e = span.attrs["e2e_s"]
                assert all(v >= -1e-12 for v in bd.values()), (span.name, bd)
                assert sum(bd.values()) == pytest.approx(e2e, abs=1e-9)
                # The span itself covers the same interval.
                assert span.t1 - span.t0 == pytest.approx(e2e, abs=1e-9)
                assert span.attrs["wait_overlap"] >= 0.0
                checked += 1
        assert checked == 4


class TestConcurrentTraces:
    def test_pipelined_requests_get_distinct_traces(self):
        """Sequential requests on one connection are separate traces."""
        handle = traced_handle()
        tracer = handle.live.tracer
        try:
            data = np.zeros(32 * 32 * 32, dtype=np.uint8)
            with LiveClient(handle.host, handle.port, name="t", tracer=tracer) as cli:
                for _ in range(3):
                    cli.put("var0", *REGION, data)
                cli.quiesce()
        finally:
            handle.stop()
        spans = tracer.spans
        cli_ids = [s.trace_id for s in client_spans(spans, "put")]
        srv_ids = [s.trace_id for s in dispatch_spans(spans, "put")]
        assert len(cli_ids) == 3 and len(set(cli_ids)) == 3
        assert sorted(srv_ids) == sorted(cli_ids)

    def test_concurrent_clients_get_disjoint_trees(self):
        """Two clients hammering one server: no span leaks across traces."""
        handle = traced_handle()
        tracer = handle.live.tracer
        errors: list[BaseException] = []
        try:
            data = np.zeros(32 * 32 * 32, dtype=np.uint8)

            def client(idx: int) -> None:
                try:
                    with LiveClient(
                        handle.host, handle.port, name=f"c{idx}", tracer=tracer
                    ) as cli:
                        for _ in range(5):
                            cli.put(f"var{idx}", *REGION, data)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            with LiveClient(handle.host, handle.port, name="ctl", tracer=tracer) as ctl:
                ctl.quiesce()
        finally:
            handle.stop()
        assert not errors, errors
        spans = tracer.spans
        cli_rpc = client_spans(spans, "put")
        dispatches = dispatch_spans(spans, "put")
        assert len(cli_rpc) == 10 and len(dispatches) == 10
        assert len({s.trace_id for s in cli_rpc}) == 10
        # Each dispatch links to exactly the client span of its own trace.
        link = {s.trace_id: s.span_id for s in cli_rpc}
        for d in dispatches:
            assert d.attrs["remote_parent"] == link[d.trace_id]
            # Attribution sinks stayed per-request: every breakdown closes.
            assert sum(d.attrs["breakdown"].values()) == pytest.approx(
                d.attrs["e2e_s"], abs=1e-9
            )


class TestTracingOffByteIdentity:
    def test_frame_bytes_identical_without_extras(self):
        """frame_parts(extra=None) must equal the hand-built reference —
        tracing-off frames carry zero additional header bytes."""
        header = {"op": "put", "client": "c", "var": "v", "lb": [0, 0, 0],
                  "ub": [8, 8, 8], "dtype": "uint8"}
        payload = np.arange(512, dtype=np.uint8)
        parts = frame_parts(header, memoryview(payload).cast("B"))
        ref = json.dumps(
            {**header, "payload_len": 512}, separators=(",", ":")
        ).encode("utf-8")
        assert bytes(parts[0]) == struct.pack("<I", len(ref)) + ref
        # And the cached-preamble path produces the same bytes.
        pre = header_preamble(header)
        parts2 = frame_parts(None, memoryview(payload).cast("B"), preamble=pre)
        assert bytes(parts2[0]) == bytes(parts[0])

    def test_trace_extras_splice_after_payload_len(self):
        header = {"op": "ping"}
        parts = frame_parts(header, b"", extra={"trace": "ab-01", "span": 7})
        ref = json.dumps(
            {"op": "ping", "payload_len": 0, "trace": "ab-01", "span": 7},
            separators=(",", ":"),
        ).encode("utf-8")
        assert bytes(parts[0]) == struct.pack("<I", len(ref)) + ref

    def test_untraced_server_adds_no_response_fields_or_spans(self):
        handle = serve_in_thread(one_block_config(), CoRECPolicy)
        try:
            assert not handle.live.tracing
            assert not handle.live.tracer.enabled
            data = np.zeros(32 * 32 * 32, dtype=np.uint8)
            with LiveClient(handle.host, handle.port, name="t") as cli:
                cli.put("var0", *REGION, data)
                assert cli.last_attr is None
                resp, _ = cli.request({"op": "ping"})
                assert "attr" not in resp
                assert "srv_span" not in resp
                cli.quiesce()
        finally:
            handle.stop()
        assert len(handle.live.tracer.spans) == 0


class TestExportedTraceValidates:
    def test_live_trace_dir_passes_the_schema_validator(self, tmp_path):
        handle = traced_handle()
        tracer = handle.live.tracer
        try:
            data = np.zeros(32 * 32 * 32, dtype=np.uint8)
            with LiveClient(handle.host, handle.port, name="t", tracer=tracer) as cli:
                cli.put("var0", *REGION, data)
                cli.get("var0", *REGION)
                cli.quiesce()
        finally:
            handle.stop()
        from repro.obs.export import write_trace_dir

        service = handle.live.service
        artifacts = write_trace_dir(
            str(tmp_path), tracer, service.metrics,
            process_name="repro-live", clock="wall-clock seconds",
        )
        assert set(artifacts) == {"chrome_trace", "spans", "metrics", "prometheus"}
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        spec = importlib.util.spec_from_file_location(
            "validate_trace", os.path.join(root, "benchmarks", "validate_trace.py")
        )
        validate_trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validate_trace)
        errors = validate_trace.validate_dir(
            str(tmp_path), os.path.join(root, "docs", "schemas", "trace_schema.json")
        )
        assert errors == []
        # The Prometheus dump includes the request histograms and the
        # satellite gauges (protocol stats).
        prom = (tmp_path / "metrics.prom").read_text()
        assert "live_rpc_put_e2e_s" in prom
        assert "protocol_frames_in" in prom
