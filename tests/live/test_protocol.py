"""Wire protocol framing and end-to-end TCP server tests."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.corec import CoRECPolicy
from repro.live.protocol import (
    LiveClient,
    ProtocolError,
    RemoteOpError,
    _ack_preamble,
    _decode_header,
    frame_parts,
    header_preamble,
    write_frame,
)
from repro.live.server import serve_in_thread
from repro.staging.service import StagingConfig


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def test_frame_roundtrip():
    frame = b"".join(frame_parts({"op": "put", "var": "x"}, b"\x01\x02\x03"))
    hlen = int.from_bytes(frame[:4], "little")
    header = _decode_header(frame[4 : 4 + hlen])
    assert header["op"] == "put"
    assert header["payload_len"] == 3
    assert frame[4 + hlen :] == b"\x01\x02\x03"


def test_bad_header_is_rejected():
    with pytest.raises(ProtocolError):
        _decode_header(b"not json at all")
    with pytest.raises(ProtocolError):
        _decode_header(b'"a bare string"')
    with pytest.raises(ProtocolError):
        _decode_header(b'{"op": "x", "payload_len": -4}')


# ---------------------------------------------------------------------------
# put/get ack templates
# ---------------------------------------------------------------------------
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EDGES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 1e16, 1e308, 1.7976931348623157e308)
_BLOCKS = st.lists(st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=2,
                            max_size=2), max_size=40)


async def _written(header, payload=b""):
    """The bytes ``write_frame`` sends for ``header``."""
    out = []

    class Writer:
        def writelines(self, parts):
            out.extend(bytes(part) for part in parts)

        async def drain(self):
            pass

    await write_frame(Writer(), header, payload)
    return b"".join(out)


def _encoded(header, payload=b""):
    """The same frame through ``json.dumps`` alone."""
    return b"".join(bytes(part) for part in frame_parts(header, payload))


@settings(max_examples=300, deadline=None)
@given(duration=st.one_of(_FINITE, st.sampled_from(_EDGES)), blocks=st.none() | _BLOCKS)
def test_ack_template_is_the_json_encoding(duration, blocks):
    header = {"ok": True, "duration": duration}
    if blocks is not None:
        header["blocks"] = blocks
    template = _ack_preamble(header)
    assert template is not None
    assert template == header_preamble(header)
    body = [np.zeros(3, dtype=np.uint8)] if blocks else b""
    assert asyncio.run(_written(header, body)) == _encoded(header, body)


@pytest.mark.parametrize(
    "header",
    [
        {"ok": True, "duration": float("nan")},
        {"ok": True, "duration": float("inf"), "blocks": []},
        {"ok": True, "duration": -float("inf")},
        {"ok": True, "duration": 0.5, "attr": {"loop_cpu": 1e-6}, "srv_span": 7},
        {"ok": True, "duration": 0.5, "blocks": [[0, 8]], "attr": {}, "srv_span": 3},
        {"duration": 0.5, "ok": True},  # another key order
        {"ok": True, "duration": 1},  # an int duration
        {"ok": True, "duration": np.float64(0.5)},
        {"ok": True, "duration": 0.5, "blocks": [[True, 8]]},
        {"ok": True, "duration": 0.5, "blocks": [(0, 8)]},
        {"ok": True, "duration": 0.5, "blocks": [[0, 8, 1]]},
        {"ok": 1, "duration": 0.5},
        {"ok": False, "error_type": "KeyError", "error": "gone"},
        {"ok": True, "now": 0.25},
    ],
)
def test_any_other_ack_shape_falls_back_to_the_encoder(header):
    assert _ack_preamble(header) is None
    assert asyncio.run(_written(header)) == _encoded(header)


# ---------------------------------------------------------------------------
# end-to-end over TCP
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    config = StagingConfig(
        n_servers=8,
        domain_shape=(32, 32, 32),
        element_bytes=1,
        object_max_bytes=4096,
        seed=1,
    )
    handle = serve_in_thread(config, CoRECPolicy)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    c = LiveClient(server.host, server.port)
    yield c
    c.close()


def test_ping(client):
    assert client.ping() >= 0.0


def test_put_get_roundtrip_exact_bytes(client):
    data = np.arange(16 * 16 * 16, dtype=np.uint8).reshape(16, 16, 16)
    dur = client.put("rt", (0, 0, 0), (16, 16, 16), data.ravel())
    assert dur >= 0.0
    _, blocks = client.get("rt", (0, 0, 0), (16, 16, 16))
    assert len(blocks) == 1
    (payload,) = blocks.values()
    assert payload == data.tobytes()


def test_synthetic_put_and_query(client):
    client.put("syn", (0, 0, 0), (32, 32, 16))  # no payload: synthetic fill
    rows = client.query("syn", (0, 0, 0), (32, 32, 32))
    written = [r for r in rows if r["version"] >= 0]
    never = [r for r in rows if r["version"] < 0]
    assert len(written) == 4  # 2x2x1 blocks of the 16^3 grid
    assert len(never) == 4
    for r in written:
        assert r["nbytes"] == 4096
        assert 0 <= r["primary"] < 8


def test_step_flush_stats_verify(client):
    client.put("sfv", (0, 0, 0), (16, 16, 16))
    before = client.step()
    assert client.step() == before + 1
    client.flush()
    client.quiesce()
    stats = client.stats()
    assert stats["puts"] >= 1
    assert stats["alive_servers"] == list(range(8))
    audit = client.verify()
    assert audit["unrecoverable"] == []
    assert audit["verified"] >= 1


def test_fail_replace_and_degraded_read(client):
    client.put("deg", (0, 0, 0), (16, 16, 16))
    client.quiesce()
    (row,) = [r for r in client.query("deg", (0, 0, 0), (16, 16, 16)) if r["version"] >= 0]
    client.fail_server(row["primary"])
    _, blocks = client.get("deg", (0, 0, 0), (16, 16, 16), verify=True)
    assert len(blocks) == 1  # served from replica/parity despite the kill
    client.replace_server(row["primary"])
    client.quiesce()
    assert client.stats()["alive_servers"] == list(range(8))


def test_snapshot_is_quiesced_and_stable(client):
    client.put("snap", (0, 0, 0), (16, 16, 16))
    a = client.projection()
    b = client.projection()
    assert a == b
    assert "snap/0" in a["entities"]


def test_remote_error_propagates_as_exception(client):
    with pytest.raises(RemoteOpError) as err:
        client.get("never-written-var", (0, 0, 0), (16, 16, 16))
    assert err.value.error_type == "KeyError"
    # The connection survives a failed op.
    assert client.ping() >= 0.0


def test_unknown_op_drops_connection(server):
    with LiveClient(server.host, server.port) as bad:
        with pytest.raises((EOFError, ConnectionError, OSError)):
            bad.request({"op": "no-such-op"})
    # Server keeps serving other clients afterwards.
    with LiveClient(server.host, server.port) as ok:
        assert ok.ping() >= 0.0


def test_concurrent_clients_interleave(server):
    import threading

    errors = []

    def worker(n):
        try:
            with LiveClient(server.host, server.port, name=f"c{n}") as c:
                for i in range(5):
                    c.put(f"multi{n}", (0, 0, 0), (16, 16, 16))
                    _, blocks = c.get(f"multi{n}", (0, 0, 0), (16, 16, 16))
                    assert len(blocks) == 1
        except BaseException as exc:  # pragma: no cover - failure detail
            errors.append((n, exc))

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "client threads hung"
    assert errors == []


def test_shutdown_stops_the_server():
    config = StagingConfig(
        n_servers=4, domain_shape=(16, 16, 16), element_bytes=1,
        object_max_bytes=4096, seed=1,
    )
    handle = serve_in_thread(config, CoRECPolicy)
    with LiveClient(handle.host, handle.port) as c:
        c.put("bye", (0, 0, 0), (16, 16, 16))
        c.shutdown()
    handle._thread.join(timeout=30)
    assert not handle._thread.is_alive()
    handle.stop()  # idempotent after the wire-level shutdown


# ---------------------------------------------------------------------------
# zero-copy payload path
# ---------------------------------------------------------------------------
def test_frame_parts_alias_the_callers_buffer():
    payload = np.arange(256, dtype=np.uint8)
    prefix, view = frame_parts({"op": "x"}, payload)
    assert isinstance(view, memoryview)
    assert np.shares_memory(np.frombuffer(view, dtype=np.uint8), payload)
    payload[0] ^= 0xFF  # the view aliases the array: no bytes were copied
    assert view[0] == payload[0]
    hlen = int.from_bytes(prefix[:4], "little")
    assert _decode_header(prefix[4 : 4 + hlen])["payload_len"] == 256


def test_header_preamble_completes_to_full_header():
    from repro.live.protocol import frame_parts, header_preamble

    header = {"op": "put", "var": "x", "lb": [0, 0, 0], "ub": [8, 8, 8]}
    pre = header_preamble(header)
    (prefix,) = frame_parts(None, b"", preamble=pre)
    hlen = int.from_bytes(prefix[:4], "little")
    got = _decode_header(prefix[4 : 4 + hlen])
    want = dict(header, payload_len=0)
    assert got == want


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_live_put_get_path_makes_zero_payload_copies(server, traced, monkeypatch):
    """End-to-end over TCP: no frame assembly ever joins payload bytes.

    Every buffer the client hands to ``sendmsg`` is recorded: a put's
    payload goes out as one view of the caller's own array (no buffer is
    payload-sized but another, none larger: a joined header + payload
    would be), and a get's body comes back as a view of the one array it
    landed in - with tracing on too: trace context and the latency
    attribution ride the JSON header, never the payload.  The byte-level
    copy pins are the tracemalloc tests in ``tests/live/test_request_path.py``.
    """
    from repro.live import protocol

    sent: list[memoryview] = []

    def recording_send_some(sock, views):
        sent.extend(views[: protocol.IOV_MAX])
        return real_send_some(sock, views)

    real_send_some = protocol.send_some
    handle = serve_in_thread(server.live.config, CoRECPolicy, tracing=traced)
    # Sharing the server's tracer links client and dispatch spans per request.
    tracer = handle.live.tracer if traced else None
    data = np.arange(16 * 16 * 16, dtype=np.uint8)
    bodies = []
    try:
        with LiveClient(handle.host, handle.port, name="zc", tracer=tracer) as c:
            c.put("zc", (0, 0, 0), (16, 16, 16), data)  # warm entity + preamble
            c.get("zc", (0, 0, 0), (16, 16, 16))
            before = dict(protocol.PROTO_STATS)
            # The server's stream bound its own name at import: only the
            # client's sends are recorded.
            monkeypatch.setattr(protocol, "send_some", recording_send_some)
            for _ in range(3):
                c.put("zc", (0, 0, 0), (16, 16, 16), data)
                assert (c.last_attr is not None) == traced
                _, blocks = c.get("zc", (0, 0, 0), (16, 16, 16))
                (payload,) = blocks.values()
                assert isinstance(payload, memoryview)
                assert payload == data.tobytes()
                bodies.append(payload)
            after = dict(protocol.PROTO_STATS)
    finally:
        monkeypatch.undo()
        handle.stop()
    big = [v for v in sent if v.nbytes >= data.nbytes]
    assert len(big) == 3
    for view in big:
        assert view.nbytes == data.nbytes
        assert np.shares_memory(np.frombuffer(view, dtype=np.uint8), data)
    for body in bodies:
        assert isinstance(body.obj, np.ndarray) and body.obj.nbytes == data.nbytes
    assert len({id(b.obj) for b in bodies}) == 3  # one fresh array per get
    assert after["frames_out"] > before["frames_out"]
    # Repeated identical requests reuse the client's cached preambles.
    assert after["preamble_hits"] >= before["preamble_hits"] + 6


def test_a_mebibyte_get_body_lands_in_an_ndarray():
    """The client lands a response body as the server lands a request
    payload: in one uninitialised ndarray the kernel fills, with no
    zero-filled ``bytearray`` first, and the bytes come back exact."""
    mib = 1 << 20
    config = StagingConfig(
        n_servers=8, domain_shape=(128, 128, 64), element_bytes=1,
        object_max_bytes=mib, seed=1,
    )
    data = np.random.default_rng(29).integers(0, 256, mib, dtype=np.uint8)
    handle = serve_in_thread(config, CoRECPolicy)
    try:
        with LiveClient(handle.host, handle.port) as c:
            c.put("mib", (0, 0, 0), (128, 128, 64), data)
            _, blocks = c.get("mib", (0, 0, 0), (128, 128, 64), verify=True)
    finally:
        handle.stop()
    (payload,) = blocks.values()
    assert isinstance(payload.obj, np.ndarray) and payload.obj.size == mib
    assert bytes(payload) == data.tobytes()
