"""One request path whether tracing is on or off.

``LiveServer._serve_one`` and ``protocol.read_frame`` have one body each;
tracing rides along as an observer.  Every case here runs twice - against
an untraced and a traced ``serve_in_thread`` - and must see the same
bytes, the same counts and the same connection fate.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import numpy as np
import pytest

from repro.core.corec import CoRECPolicy
from repro.live import LiveClient, RemoteOpError, serve_in_thread
from repro.live.protocol import ProtocolError, read_frame
from repro.obs.wallclock import WAIT_CATEGORIES
from repro.staging.service import StagingConfig

BLOCK = 16 * 16 * 16
B0 = ((0, 0, 0), (16, 16, 16))
B1 = ((16, 0, 0), (32, 16, 16))
B2 = ((0, 16, 0), (16, 32, 16))

#: What the traced server measures itself; wait categories join these when
#: a flow actually waited (an uncontended request charges none).
HANDLER_CATEGORIES = {"socket_read", "serialization", "loop_cpu"}
#: benchmarks/e2e/layers.py's ATTR_CATEGORIES (a frozen file the tests
#: cannot import: it resolves its siblings through sys.path).
E2E_ATTR_CATEGORIES = {
    "socket_read", "serialization", "lock_wait", "transfer", "digest", "codec", "loop_cpu",
}


def config() -> StagingConfig:
    return StagingConfig(
        n_servers=8,
        domain_shape=(32, 32, 32),
        element_bytes=1,
        object_max_bytes=BLOCK,
        seed=1,
    )


@pytest.fixture(params=[False, True], ids=["untraced", "traced"])
def handle(request):
    h = serve_in_thread(config(), CoRECPolicy, tracing=request.param)
    yield h
    h.stop()


def assert_idle(handle) -> None:
    """Every request that began has ended.  The last response reaches the
    client a moment before its handler books the request out, hence the
    bounded wait (on the server's own loop) rather than a bare read."""
    server = handle._server
    asyncio.run_coroutine_threadsafe(
        asyncio.wait_for(server._idle.wait(), 5.0), handle._loop
    ).result(10.0)
    assert server._inflight == 0


# ---------------------------------------------------------------------------
# (a) + (c): the same tape, the same answers
# ---------------------------------------------------------------------------
def tape() -> list[tuple[dict, bytes]]:
    def data(seed: int) -> bytes:
        return np.random.default_rng(seed).integers(0, 256, BLOCK, dtype=np.uint8).tobytes()

    def box(region) -> dict:
        return {"lb": list(region[0]), "ub": list(region[1])}

    return [
        ({"op": "put", "client": "w", "var": "v", **box(B0)}, data(0)),
        ({"op": "get", "client": "w", "var": "v", **box(B0)}, b""),
        (
            {"op": "mput", "client": "w", "var": "v",
             "puts": [[*box(B1).values(), BLOCK], [*box(B2).values(), BLOCK]]},
            data(1) + data(2),
        ),
        ({"op": "mget", "client": "w", "var": "v",
          "regions": [list(box(B1).values()), list(box(B2).values())]}, b""),
        ({"op": "query", "var": "v", **box(B0)}, b""),
        ({"op": "get", "client": "w", "var": "never-written", **box(B0)}, b""),  # raises
        ({"op": "no-such-op"}, b""),  # protocol error: the connection is dropped
    ]


def play(handle) -> tuple[list, list[dict], int]:
    """Replay :func:`tape`; returns (timing-free answers, attrs, requests_served)."""
    answers, attrs = [], []
    with LiveClient(handle.host, handle.port, name="w") as client:
        for header, payload in tape():
            try:
                resp, body = client.request(header, payload)
            except RemoteOpError as exc:
                answers.append(("remote-error", exc.error_type, str(exc)))
            except ConnectionError:
                answers.append(("dropped",))
            else:
                if "attr" in resp:
                    attrs.append(resp["attr"])
                # attr / srv_span are what tracing adds; duration is a
                # wall-clock reading that differs run to run.
                stable = {
                    k: v for k, v in resp.items() if k not in ("attr", "srv_span", "duration")
                }
                answers.append((stable, bytes(body)))
    assert_idle(handle)
    return answers, attrs, handle._server.requests_served


def test_same_tape_same_answers_with_tracing_off_and_on():
    results = {}
    for tracing in (False, True):
        handle = serve_in_thread(config(), CoRECPolicy, tracing=tracing)
        try:
            results[tracing] = play(handle)
            with LiveClient(handle.host, handle.port) as fresh:
                assert fresh.ping() >= 0.0
        finally:
            handle.stop()
    (plain, plain_attrs, plain_served), (traced, traced_attrs, traced_served) = (
        results[False], results[True]
    )
    assert plain == traced
    assert [a[0] for a in plain[-2:]] == ["remote-error", "dropped"]
    # Five answered ops + the one that raised; the dropped one never counts.
    assert plain_served == traced_served == 6
    assert plain_attrs == [] and len(traced_attrs) == 5


def test_traced_responses_carry_the_attribution_and_it_closes():
    handle = serve_in_thread(config(), CoRECPolicy, tracing=True)
    try:
        _, attrs, _ = play(handle)
    finally:
        handle.stop()
    assert E2E_ATTR_CATEGORIES <= HANDLER_CATEGORIES | set(WAIT_CATEGORIES)
    for attr in attrs:
        assert HANDLER_CATEGORIES <= attr.keys() <= HANDLER_CATEGORIES | set(WAIT_CATEGORIES)
        assert all(v >= 0.0 for v in attr.values())
    dispatched = [s for s in handle.live.tracer.spans if "breakdown" in s.attrs]
    assert [s.name for s in dispatched] == [
        "rpc.put", "rpc.get", "rpc.mput", "rpc.mget", "rpc.query", "rpc.get",
    ]
    for span in dispatched:
        breakdown, e2e = span.attrs["breakdown"], span.attrs["e2e_s"]
        assert breakdown.keys() >= HANDLER_CATEGORIES | {"socket_write", "other"}
        # "other" absorbs the residual, so the sum is e2e to the last bit
        # float addition keeps.
        assert sum(breakdown.values()) == pytest.approx(e2e, rel=0, abs=1e-12)
        assert span.t1 - span.t0 == pytest.approx(e2e, rel=0, abs=1e-12)
    assert dispatched[-1].attrs["error"].startswith("KeyError")
    (dropped,) = [s for s in handle.live.tracer.spans if s.name == "rpc.no-such-op"]
    assert dropped.attrs["error"] == "ProtocolError" and dropped.t1 is not None


# ---------------------------------------------------------------------------
# (b): a frame cut short is not a clean close
# ---------------------------------------------------------------------------
def _frame(header: dict, payload: bytes) -> bytes:
    raw = json.dumps({**header, "payload_len": len(payload)}).encode()
    return struct.pack("<I", len(raw)) + raw + payload


_PUT = _frame({"op": "put", "client": "w", "var": "v", "lb": B0[0], "ub": B0[1]}, bytes(BLOCK))
_HEADER_END = len(_PUT) - BLOCK

CUTS = {
    "nothing": 0,
    "inside-length-word": 2,
    "inside-header": 4 + 10,
    "inside-payload": _HEADER_END + 100,
}


@pytest.mark.parametrize("cut", CUTS)
def test_truncated_frame_drops_the_connection_and_nothing_else(handle, cut):
    with socket.create_connection((handle.host, handle.port), timeout=10.0) as sock:
        sock.sendall(_PUT[: CUTS[cut]])
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(1) == b""  # no response; the server hung up
    with LiveClient(handle.host, handle.port) as fresh:
        assert fresh.ping() >= 0.0
        assert fresh.query("v", *B0) == [{"block": 0, "version": -1}]  # the cut put never ran
    assert_idle(handle)
    assert handle._server.requests_served == 2


@pytest.mark.parametrize("stamped", [False, True], ids=["plain", "stamped"])
@pytest.mark.parametrize("cut", CUTS)
def test_read_frame_types_the_cut(cut, stamped):
    """EOF at a frame boundary is ``EOFError``; one byte in, it is a
    truncated frame - and never ``asyncio.IncompleteReadError`` (itself an
    ``EOFError``) leaking out as if the close had been clean."""
    async def read() -> None:
        reader = asyncio.StreamReader()
        reader.feed_data(_PUT[: CUTS[cut]])
        reader.feed_eof()
        await (read_frame(reader, lambda: None) if stamped else read_frame(reader))

    if cut == "nothing":
        with pytest.raises(EOFError) as err:
            asyncio.run(read())
        assert type(err.value) is EOFError
    else:
        with pytest.raises(ProtocolError, match="truncated frame"):
            asyncio.run(read())
