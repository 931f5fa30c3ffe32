"""The fixed cost of one small live request, pinned as counts.

``test_put_cost.py`` pins what a request schedules and computes; this file
pins the objects a request used to build whatever it did: a ``Process``
per flow that never waits, a JSON decode per repeated header, a ``BBox``
per request.  Each count repeats exactly, so each is pinned exactly.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro import CoRECPolicy
from repro.live import LiveClient, serve_in_thread
from repro.live import server as live_server
from repro.sim.engine import Process
from repro.staging.objects import ResilienceState
from repro.staging.service import StagingConfig

from tests.live.test_put_cost import run


def test_uncontended_get_and_replicated_refresh_put_construct_no_process(monkeypatch):
    """A flow that never blocks runs to completion in its caller's frame;
    only a flow that blocks is wrapped in a ``Process``."""
    built = []
    init = Process.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("name") or args[-1])
        init(self, *args, **kwargs)

    async def body(dep):
        state = lambda b: dep.live.directory.get("v", b).state  # noqa: E731
        hot = [b for b in range(len(dep.boxes)) if state(b) == ResilienceState.REPLICATED]
        assert len(hot) >= 4
        monkeypatch.setattr(Process, "__init__", counting)
        for b in hot[:4]:
            for op in (dep.live.get("r", "v", dep.boxes[b], True),
                       dep.live.put("w", "v", dep.boxes[b], dep.data)):
                # Each op with the whole ``soon_batch`` budget, as after a loop
                # callback of the engine's: one that spends it takes the
                # deferred path, whatever it does.
                dep.engine._budget = dep.engine.soon_batch
                await op
        assert built == []
        # A flow that does block still gets one, and completes through it.
        lock = dep.live.runtime.entity_lock(("v", hot[0]))
        held = lock.request()
        put = asyncio.ensure_future(dep.live.put("w", "v", dep.boxes[hot[0]], dep.data))
        while not lock.queued:
            await asyncio.sleep(0)
        lock.release(held)
        await put
        assert len(built) == 2  # the block flow parked on the lock, and the put over it

    run(body)


def _config() -> StagingConfig:
    return StagingConfig(n_servers=8, domain_shape=(32, 32, 32), element_bytes=1, seed=3)


def test_identical_request_frames_are_json_decoded_once(monkeypatch):
    decoded = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        decoded.append(text)
        return loads(text, *args, **kwargs)

    data = np.arange(16 * 16 * 16, dtype=np.uint8)
    with serve_in_thread(_config(), CoRECPolicy) as handle:
        with LiveClient(handle.host, handle.port, name="c", timeout=10.0) as cli:
            cli.put("v", (0, 0, 0), (16, 16, 16), data)  # every first use is behind us
            monkeypatch.setattr(json, "loads", counting)
            for _ in range(20):
                cli.put("v", (0, 0, 0), (16, 16, 16), data)
                cli.get("v", (0, 0, 0), (16, 16, 16))
            monkeypatch.setattr(json, "loads", loads)
    requests = [text for text in decoded if '"op":' in text]
    responses = [text for text in decoded if '"op":' not in text]
    assert len(responses) == 40  # the client decodes every ack it reads
    # The put's header was seen before the count began; the get's once, here.
    assert len(requests) == 1 and '"op":"get"' in requests[0]


def test_bbox_is_built_once_per_distinct_region(monkeypatch):
    built = []
    make = live_server.BBox

    def counting(lb, ub):
        built.append((lb, ub))
        return make(lb, ub)

    monkeypatch.setattr(live_server, "BBox", counting)
    regions = [((0, 0, 0), (16, 16, 16)), ((16, 0, 0), (32, 16, 16)), ((0, 0, 0), (8, 8, 8))]
    with serve_in_thread(_config(), CoRECPolicy) as handle:
        for name in ("a", "b"):  # a second client sends other header bytes
            with LiveClient(handle.host, handle.port, name=name, timeout=10.0) as cli:
                for _ in range(3):
                    for lb, ub in regions:
                        cli.put("v", lb, ub)
                        cli.get("v", lb, ub)
                        cli.query("v", lb, ub)
    assert sorted(built) == sorted(regions)


def test_a_traced_clients_headers_are_decoded_each_time_and_not_kept():
    from repro.obs.wallclock import WallClockTracer

    with serve_in_thread(_config(), CoRECPolicy) as handle:
        with LiveClient(handle.host, handle.port, name="t", timeout=10.0,
                        tracer=WallClockTracer()) as cli:
            for _ in range(5):
                cli.put("v", (0, 0, 0), (16, 16, 16))
        with LiveClient(handle.host, handle.port, name="u", timeout=10.0) as cli:
            cli.put("v", (0, 0, 0), (16, 16, 16))
        kept = list(handle._server._headers)
    assert len(kept) == 1 and b'"span"' not in kept[0]


def test_a_long_header_is_decoded_for_its_request_and_not_kept(monkeypatch):
    """Only a short header is kept: a region list or a long name is decoded
    each time it arrives and is freed with its request."""
    decoded = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        decoded.append(text)
        return loads(text, *args, **kwargs)

    corners = [(x, y, z) for x in (0, 8, 16, 24) for y in (0, 8, 16, 24) for z in (0, 8)]
    regions = [(c, tuple(v + 8 for v in c)) for c in corners]
    long_var = "v" * 600
    with serve_in_thread(_config(), CoRECPolicy) as handle:
        with LiveClient(handle.host, handle.port, name="c", timeout=10.0) as cli:
            cli.put("v", (0, 0, 0), (32, 32, 32))
            monkeypatch.setattr(json, "loads", counting)
            for _ in range(3):
                _, blocks = cli.mget("v", regions)
                assert blocks
                cli.put(long_var, (0, 0, 0), (16, 16, 16))
            monkeypatch.setattr(json, "loads", loads)
        kept = list(handle._server._headers)
    requests = [text for text in decoded if '"op":' in text]
    assert len(requests) == 6
    assert all(len(text) > live_server._MEMO_HEADER_BYTES for text in requests)
    assert kept and all(len(raw) <= live_server._MEMO_HEADER_BYTES for raw in kept)
    assert not any(b'"mget"' in raw or long_var.encode() in raw for raw in kept)
