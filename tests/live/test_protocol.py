"""Wire protocol framing and end-to-end TCP server tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.corec import CoRECPolicy
from repro.live.protocol import (
    LiveClient,
    ProtocolError,
    RemoteOpError,
    _decode_header,
    _encode_frame,
)
from repro.live.server import serve_in_thread
from repro.staging.service import StagingConfig


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def test_frame_roundtrip():
    from repro.live.protocol import PROTO_STATS

    before = dict(PROTO_STATS)
    frame = _encode_frame({"op": "put", "var": "x"}, b"\x01\x02\x03")
    # The join is the one place the module copies a payload, and the only
    # thing the copy counters count.
    assert PROTO_STATS["payload_copies"] == before["payload_copies"] + 1
    assert PROTO_STATS["bytes_copied"] == before["bytes_copied"] + 3
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
    from repro.live.protocol import PROTO_STATS, frame_parts

    payload = np.arange(256, dtype=np.uint8)
    before = PROTO_STATS["payload_copies"]
    prefix, view = frame_parts({"op": "x"}, payload)
    assert PROTO_STATS["payload_copies"] == before
    assert isinstance(view, memoryview)
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
def test_live_put_get_path_makes_zero_payload_copies(server, traced):
    """End-to-end over TCP: no frame assembly ever joins payload bytes.

    ``PROTO_STATS["payload_copies"]`` counts every place the protocol
    module materializes payload bytes it already held (only the legacy
    ``_encode_frame`` join does); the scatter/gather send and recv_into
    receive paths used by the live data plane must keep it flat — with
    tracing on too: trace context and the latency attribution ride the
    JSON header, never the payload.
    """
    from repro.live import protocol

    handle = serve_in_thread(server.live.config, CoRECPolicy, tracing=traced)
    # Sharing the server's tracer links client and dispatch spans per request.
    tracer = handle.live.tracer if traced else None
    data = np.arange(16 * 16 * 16, dtype=np.uint8)
    try:
        with LiveClient(handle.host, handle.port, name="zc", tracer=tracer) as c:
            c.put("zc", (0, 0, 0), (16, 16, 16), data)  # warm entity + preamble
            c.get("zc", (0, 0, 0), (16, 16, 16))
            before = dict(protocol.PROTO_STATS)
            for _ in range(3):
                c.put("zc", (0, 0, 0), (16, 16, 16), data)
                assert (c.last_attr is not None) == traced
                _, blocks = c.get("zc", (0, 0, 0), (16, 16, 16))
                (payload,) = blocks.values()
                assert isinstance(payload, memoryview)
                assert payload == data.tobytes()
            after = dict(protocol.PROTO_STATS)
    finally:
        handle.stop()
    assert after["payload_copies"] == before["payload_copies"]
    assert after["bytes_copied"] == before["bytes_copied"]
    assert after["frames_out"] > before["frames_out"]
    # Repeated identical requests reuse the client's cached preambles.
    assert after["preamble_hits"] >= before["preamble_hits"] + 6
