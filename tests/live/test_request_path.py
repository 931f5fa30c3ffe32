"""One request path whether tracing is on or off.

``LiveServer._serve_one`` and ``protocol.read_frame`` have one body each;
tracing rides along as an observer.  Every case here runs twice - against
an untraced and a traced ``serve_in_thread`` - and must see the same
bytes, the same counts and the same connection fate.
"""

from __future__ import annotations

import asyncio
import json
import resource
import socket
import struct
import tracemalloc

import numpy as np
import pytest

from repro.core.corec import CoRECPolicy
from repro.live import LiveClient, RemoteOpError, serve_in_thread
from repro.live.protocol import MAX_PAYLOAD_BYTES, ProtocolError, read_frame
from repro.live.server import _SocketStream
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
def _frame(header: dict, payload: bytes, declared: int | None = None) -> bytes:
    """A frame; ``declared`` overrides the ``payload_len`` the header claims."""
    plen = len(payload) if declared is None else declared
    raw = json.dumps({**header, "payload_len": plen}).encode()
    return struct.pack("<I", len(raw)) + raw + payload


_PUT_HEADER = {"op": "put", "client": "w", "var": "v", "lb": B0[0], "ub": B0[1]}
_PUT = _frame(_PUT_HEADER, bytes(BLOCK))
#: A put that claims the largest payload the protocol admits and sends ten bytes of it.
_GIGABYTE_LIE = _frame(_PUT_HEADER, b"only these", declared=MAX_PAYLOAD_BYTES)
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


# ---------------------------------------------------------------------------
# (d): the connection stream lands a frame once, and fails closed
# ---------------------------------------------------------------------------
def test_declared_gigabyte_never_sent_costs_a_connection_and_no_memory(handle):
    """The payload buffer is sized from the header before a byte of it
    arrives: a peer that lies about a gigabyte and leaves must cost the
    server that connection, not a gigabyte of resident pages."""
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with socket.create_connection((handle.host, handle.port), timeout=10.0) as sock:
        sock.sendall(_GIGABYTE_LIE)
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(1) == b""  # no response; the server hung up
    with LiveClient(handle.host, handle.port) as fresh:
        assert fresh.query("v", *B0) == [{"block": 0, "version": -1}]
    assert_idle(handle)
    assert handle._server.requests_served == 1
    grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
    assert grown_kb < 8 * 1024


def _over_a_socketpair(sender) -> tuple[dict, memoryview]:
    """``read_frame`` on a :class:`_SocketStream`; ``sender(sock)`` feeds it."""
    async def read():
        ours, theirs = socket.socketpair()
        ours.setblocking(False)
        loop = asyncio.get_running_loop()
        feeding = loop.run_in_executor(None, sender, theirs)
        try:
            return await read_frame(_SocketStream(loop, ours))
        finally:
            await feeding
            ours.close()
            theirs.close()

    return asyncio.run(read())


@pytest.mark.parametrize("cut", [*CUTS, "declared-gigabyte"])
def test_socket_stream_types_the_cut(cut):
    """The truncation mapping of :func:`read_frame` holds on the socket
    stream as on a ``StreamReader``: the stream's EOF is the
    ``IncompleteReadError`` the mapping is written against."""
    sent = _GIGABYTE_LIE if cut == "declared-gigabyte" else _PUT[: CUTS[cut]]

    def sender(sock):
        sock.sendall(sent)
        sock.shutdown(socket.SHUT_WR)

    if cut == "nothing":
        with pytest.raises(EOFError) as err:
            _over_a_socketpair(sender)
        assert type(err.value) is EOFError
    else:
        with pytest.raises(ProtocolError, match="truncated frame"):
            _over_a_socketpair(sender)


def test_byte_at_a_time_writer_still_yields_one_frame():
    payload = np.random.default_rng(5).integers(0, 256, BLOCK, dtype=np.uint8).tobytes()
    frame = _frame(_PUT_HEADER, payload)

    def sender(sock):
        for i in range(len(frame)):
            sock.sendall(frame[i:i + 1])

    header, body = _over_a_socketpair(sender)
    assert header["op"] == "put" and header["payload_len"] == BLOCK
    assert bytes(body) == payload
    assert body.readonly  # as the bytes object it replaces was


def test_a_mebibyte_put_frame_is_landed_once(handle):
    """From the first byte on the socket to the dispatch, the server
    allocates the payload's own buffer and small change: no chunk list, no
    join, no ``bytes`` copy out of a stream buffer."""
    peaks = []

    async def at_dispatch(header, payload):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return {"ok": True, "duration": 0.0, "got": len(payload)}, b""

    data = np.zeros(1 << 20, dtype=np.uint8)
    with LiveClient(handle.host, handle.port) as client:
        client.ping()  # connection, handler task and first-use imports exist
        handle._server._dispatch = at_dispatch
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            resp, _ = client.request({"op": "put"}, memoryview(data))
        finally:
            tracemalloc.stop()
    assert resp["got"] == 1 << 20
    assert peaks[-1] - base < (1 << 20) + 64 * 1024
