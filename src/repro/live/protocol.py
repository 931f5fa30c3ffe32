"""Length-prefixed put/get/query wire protocol for the live backend.

Frame layout (both directions)::

    +----------------+---------------------+----------------------+
    | header_len: u32| header: JSON (utf-8)| payload: raw bytes   |
    | little-endian  | header_len bytes    | header["payload_len"]|
    +----------------+---------------------+----------------------+

The JSON header carries the operation and its metadata; bulk object
bytes ride behind it untouched (no base64, no JSON inflation).  Requests
carry ``op`` plus op-specific fields; responses carry ``ok`` plus result
fields, or ``ok: false`` with ``error``/``error_type`` on failure.

Zero-copy framing
-----------------
Payload bytes are never concatenated in this module: a frame is built as
a *list* of buffers (:func:`frame_parts`) — one small prefix holding the
length word plus the JSON header, then the payload buffers exactly as
the caller handed them over (``memoryview``\\ s over numpy arrays, block
slices, …).  Both ends hand the list to ``socket.sendmsg``
(:func:`send_some`: the blocking client directly, the server through its
connection stream's ``writelines``/``drain``) and both land bytes
directly into one buffer sized for them (``recv_into``) and return
``memoryview``\\ s of it.  :data:`PROTO_STATS` counts the payload copies
that do happen (only the legacy :func:`_encode_frame` join performs
one), so tests can assert the hot path stays at zero.

Hot-path header encoding: ``json.dumps`` of a per-request dict shows up
at GB/s payload rates, so stable header fields can be pre-serialized
once into a :func:`header_preamble` and reused — only the payload length
is appended per frame.  :class:`LiveClient` caches preambles per
(op, var, region) key.

Operations
----------
``ping``, ``put``, ``get``, ``mput``, ``mget``, ``query``, ``step``,
``flush``, ``quiesce``, ``fail``, ``replace``, ``projection``, ``stats``,
``metrics``, ``verify``, ``invariants``, ``shutdown`` — see
:class:`repro.live.server.LiveServer` for semantics.

Trace propagation
-----------------
When a client is built with a :class:`~repro.obs.wallclock.WallClockTracer`,
each request opens an ``rpc.<op>`` span and carries ``"trace"`` (trace id)
and ``"span"`` (parent span id) in the frame header, appended per frame
*after* ``payload_len`` so cached preambles stay valid.  A traced server
links its dispatch span to them and returns its own span id (``srv_span``)
plus the request's latency attribution (``attr``) in the response header.
With tracing off, no extra fields are encoded and frames are byte-for-byte
identical to the untraced protocol.

This module is transport-agnostic plumbing: async reader/writer framing
for the server side and a blocking-socket :class:`LiveClient` for load
generators and tests (usable from plain threads or subprocesses — no
asyncio needed on the client side).
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import struct
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.obs.registry import StatCounters

__all__ = [
    "ProtocolError",
    "RemoteOpError",
    "PROTO_STATS",
    "frame_parts",
    "header_preamble",
    "read_frame",
    "write_frame",
    "LiveClient",
]

_LEN = struct.Struct("<I")
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 1 << 30
#: Buffers one ``sendmsg`` takes (``EMSGSIZE`` beyond it): a response with
#: more block views than this goes out in several calls.
IOV_MAX = 1024

#: Copy accounting for the payload path.  ``payload_copies`` /
#: ``bytes_copied`` count every place this module materializes payload
#: bytes it already held in another buffer; the scatter/gather send and
#: recv_into receive paths never increment them.  Thread-safe: client
#: threads and the server loop thread increment concurrently.
PROTO_STATS = StatCounters(
    ("frames_out", "frames_in", "payload_copies", "bytes_copied", "preamble_hits")
)


class ProtocolError(RuntimeError):
    """Malformed frame on the wire."""


class RemoteOpError(RuntimeError):
    """The server reported a failure executing the requested operation."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


Buffer = Any  # bytes | bytearray | memoryview | numpy array view


def _payload_list(payload: Buffer | Sequence[Buffer]) -> list[memoryview]:
    """Normalize one buffer or a sequence of buffers to flat byte views.

    Only ``list``/``tuple`` are treated as scatter/gather part sequences;
    anything else exposing the buffer protocol (bytes, memoryview, numpy
    array, ...) is one buffer — iterating it element-wise would shred an
    array into thousands of scalar "parts".
    """
    parts = list(payload) if isinstance(payload, (list, tuple)) else [payload]
    views = []
    for part in parts:
        view = part if isinstance(part, memoryview) else memoryview(part)
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        if view.nbytes:
            views.append(view)
    return views


def send_some(sock: socket.socket, views: list[memoryview]) -> None:
    """One vectored ``sendmsg``; what it sent is dropped from the front of ``views``.

    The partial-send continuation of both ends of the wire: the blocking
    client calls it until ``views`` is empty, the server's connection
    stream does the same and waits for writability on ``BlockingIOError``.
    """
    sent = sock.sendmsg(views[:IOV_MAX])
    while sent:
        if sent >= views[0].nbytes:
            sent -= views[0].nbytes
            views.pop(0)
        else:
            views[0] = views[0][sent:]
            sent = 0


def header_preamble(header: dict[str, Any]) -> bytes:
    """Pre-serialize a header's stable fields, ready for length append.

    Returns the compact JSON encoding of ``header`` minus the closing
    brace, ending in ``,"payload_len":`` — a frame prefix is completed by
    appending the decimal payload length and ``}``.  Callers that send
    many frames with identical metadata serialize the dict once instead
    of per frame (:class:`LiveClient` keeps a small cache).
    """
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if raw == b"{}":
        return b'{"payload_len":'
    return raw[:-1] + b',"payload_len":'


def _extra_fields(extra: dict[str, Any] | None) -> bytes:
    """Encode per-frame header fields appended after ``payload_len``.

    Returns ``b""`` for no extras (the frame bytes are then identical to
    a build without the parameter), else ``,"k":v,...`` ready to splice
    before the closing brace.  This is how trace context rides along
    without invalidating cached preambles: the preamble covers the stable
    fields, the extras vary per frame like the payload length does.
    """
    if not extra:
        return b""
    raw = json.dumps(extra, separators=(",", ":")).encode("utf-8")
    return b"," + raw[1:-1]


def _prefix(preamble: bytes, payload_len: int, extra: bytes = b"") -> bytes:
    raw = preamble + str(payload_len).encode("ascii") + extra + b"}"
    if len(raw) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large ({len(raw)} bytes)")
    return _LEN.pack(len(raw)) + raw


def frame_parts(
    header: dict[str, Any] | None,
    payload: Buffer | Sequence[Buffer] = b"",
    preamble: bytes | None = None,
    extra: dict[str, Any] | None = None,
) -> list[Buffer]:
    """Build one frame as a buffer list — no payload bytes are copied.

    The first element is the length word + JSON header (one small bytes
    object); the rest are the payload buffers exactly as given.  Pass a
    cached ``preamble`` (from :func:`header_preamble`) to skip the JSON
    encoding of the stable header fields entirely.  ``extra`` fields
    (trace context) are encoded per frame after ``payload_len``; when
    ``extra`` is None the output is byte-identical to a call without it.
    """
    if preamble is None:
        preamble = header_preamble(header or {})
    else:
        PROTO_STATS.inc("preamble_hits")
    return _frame(preamble, _payload_list(payload), _extra_fields(extra))


def _frame(preamble: bytes, views: list[memoryview], extra: bytes = b"") -> list[Buffer]:
    plen = sum(v.nbytes for v in views)
    if plen > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload too large ({plen} bytes)")
    PROTO_STATS.inc("frames_out")
    return [_prefix(preamble, plen, extra), *views]


_PUT_ACK = ("ok", "duration")
_GET_ACK = ("ok", "duration", "blocks")


def _ack_preamble(header: dict[str, Any]) -> bytes | None:
    """A put/get ack's :func:`header_preamble`, written from a byte template.

    ``{"ok": True, "duration": d}`` and ``{"ok": True, "duration": d,
    "blocks": [[id, nbytes], ...]}``, keys in that order, ``d`` a finite
    ``float`` and every id and size an ``int``: the bytes ``json.dumps``
    would produce (``float.__repr__`` and ``int.__repr__`` are what it
    writes).  None for any other shape — a traced ack's ``attr`` /
    ``srv_span``, a non-finite duration, an error — which the caller
    encodes with ``json.dumps`` as before.
    """
    shape = tuple(header)
    if shape == _PUT_ACK:
        tail = b""
    elif shape == _GET_ACK:
        blocks = header["blocks"]
        if type(blocks) is not list:
            return None
        pairs = []
        for pair in blocks:
            if type(pair) is not list or len(pair) != 2:
                return None
            bid, nbytes = pair
            if type(bid) is not int or type(nbytes) is not int:
                return None
            pairs.append(b"[%d,%d]" % (bid, nbytes))
        tail = b',"blocks":[' + b",".join(pairs) + b"]"
    else:
        return None
    duration = header["duration"]
    if header["ok"] is not True or type(duration) is not float or not math.isfinite(duration):
        return None
    return b'{"ok":true,"duration":' + repr(duration).encode("ascii") + tail + b',"payload_len":'


def _encode_frame(header: dict[str, Any], payload: bytes | memoryview = b"") -> bytes:
    """Legacy single-buffer framing: joins the parts (copies the payload).

    Kept for tests and for callers that genuinely need one contiguous
    buffer; the data plane uses :func:`frame_parts` + scatter/gather
    sends instead.
    """
    parts = frame_parts(header, payload)
    plen = sum(memoryview(p).nbytes for p in parts[1:])
    if plen:
        PROTO_STATS.inc("payload_copies")
        PROTO_STATS.inc("bytes_copied", plen)
    return b"".join(bytes(p) if not isinstance(p, bytes) else p for p in parts)


def _decode_header(raw: bytes | bytearray | memoryview) -> dict[str, Any]:
    if isinstance(raw, memoryview):
        raw = bytes(raw)  # headers are small; payload never passes through here
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    plen = header.get("payload_len", 0)
    if not isinstance(plen, int) or plen < 0 or plen > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"bad payload_len {plen!r}")
    return header


def _frame_header(decode: Callable[[Any], dict[str, Any]] = _decode_header):
    """The header half of a frame, shared by both readers (sans-IO).

    A generator the reader drives with the bytes it fetched: it yields
    the size of the length word, is sent those bytes and yields the
    header's size, is sent the header bytes and yields the decoded
    header.  :func:`read_frame` (asyncio) and :class:`LiveClient`
    (blocking socket) differ only in how they fetch — the length check
    and the header decode are these statements for both.  ``decode``
    turns the header bytes into the header: :func:`_decode_header`, or a
    memo over it (the server's).
    """
    (hlen,) = _LEN.unpack((yield _LEN.size))
    if hlen == 0 or hlen > MAX_HEADER_BYTES:
        raise ProtocolError(f"bad header length {hlen}")
    yield decode((yield hlen))


# ---------------------------------------------------------------------------
# asyncio framing (server side)
# ---------------------------------------------------------------------------
async def read_frame(
    reader,
    stamp: Callable[[], None] | None = None,
    decode: Callable[[Any], dict[str, Any]] = _decode_header,
) -> tuple[dict[str, Any], bytes]:
    """Read one frame; raises ``EOFError`` on clean connection close.

    Three reads: the length word, the header, the payload (when it has
    one).  The payload lands in the single buffer ``readexactly`` returns —
    that is its final resting place on this side (``np.frombuffer``
    wraps it without copying), so the receive path contributes no
    intermediate copies.  ``decode`` is as for :func:`_frame_header`:
    the server passes its memo, so a header it has seen before is not
    decoded again.

    A close is clean only at a frame boundary: EOF before the first byte
    is ``EOFError``, EOF anywhere inside the frame is a
    :class:`ProtocolError` (the peer died mid-request).

    ``stamp``, when given, is called with no arguments at four points —
    the length word arrived (the earliest this process can observe the
    request), the header bytes arrived, the header is decoded, the
    payload arrived — so a traced caller can read its clock there.  The
    bytes take the same statements either way.
    """
    steps = _frame_header(decode)
    part = "length word"
    try:
        head = await reader.readexactly(next(steps))
        if stamp is not None:
            stamp()
        part = "header"
        raw = await reader.readexactly(steps.send(head))
        if stamp is not None:
            stamp()
        header = steps.send(raw)
        if stamp is not None:
            stamp()
        part = "payload"
        payload = await reader.readexactly(header["payload_len"]) if header["payload_len"] else b""
        if stamp is not None:
            stamp()
    except asyncio.IncompleteReadError as exc:
        if part == "length word" and not exc.partial:
            raise EOFError("connection closed") from exc
        raise ProtocolError(
            f"truncated frame: connection closed {len(exc.partial)} of "
            f"{exc.expected} bytes into the {part}"
        ) from exc
    PROTO_STATS.inc("frames_in")
    return header, payload


async def write_frame(
    writer,
    header: dict[str, Any],
    payload: Buffer | Sequence[Buffer] = b"",
    extra: dict[str, Any] | None = None,
    stamp: Callable[[], None] | None = None,
) -> None:
    """Scatter/gather frame send: no payload concatenation in our code.

    ``payload`` may be one buffer or a list of buffers (e.g. a get
    response's block views); ``writelines`` hands the list to the
    transport as-is.  A put/get ack's header is written from its byte
    template (:func:`_ack_preamble`), any other through ``json.dumps``;
    the bytes are the same.  ``stamp`` as for :func:`read_frame`, called
    once: the frame is serialized, nothing is sent yet.
    """
    preamble = _ack_preamble(header) if extra is None else None
    if preamble is None:
        preamble = header_preamble(header)
    parts = _frame(preamble, _payload_list(payload), _extra_fields(extra))
    if stamp is not None:
        stamp()
    writer.writelines(parts)
    await writer.drain()


# ---------------------------------------------------------------------------
# blocking client
# ---------------------------------------------------------------------------
class LiveClient:
    """Synchronous client speaking the live protocol over one TCP connection.

    Not thread-safe: use one client per thread/process.  Ops raise
    :class:`RemoteOpError` when the server reports a failure.

    Payload discipline: requests are sent with ``socket.sendmsg`` (vectored,
    no join), responses land via ``recv_into`` one preallocated buffer and
    get/``request`` return ``memoryview`` slices of it — zero intermediate
    copies in either direction.  The views stay valid indefinitely (each
    response owns its buffer) but a new request allocates a new one, so
    hold ``bytes(view)`` if you need the data past the next call *and*
    want independence from the buffer's lifetime.
    """

    def __init__(
        self,
        host: str,
        port: int,
        name: str = "client",
        timeout: float | None = 60.0,
        tracer=None,
        connect_timeout: float | None = None,
        reconnect: bool = True,
        reconnect_backoff: float = 0.2,
    ):
        self.name = name
        self.host = host
        self.port = port
        # ``timeout`` is the per-op deadline: every request's socket I/O
        # must make progress within it or the op raises ``TimeoutError``.
        # A killed/hung server therefore surfaces as a bounded, typed
        # error instead of a caller blocked forever.
        self.timeout = timeout
        self._connect_timeout = connect_timeout if connect_timeout is not None else timeout
        # One bounded reconnect: after a connection failure is surfaced,
        # the *next* request attempts a fresh connection (with one backoff
        # retry) instead of failing forever on a dead socket.  The failed
        # op itself is never silently replayed — at-most-once semantics
        # are the caller's to reason about.
        self._reconnect = reconnect
        self._reconnect_backoff = reconnect_backoff
        self.sock: socket.socket | None = None
        self._connect()
        # op/var/region header preambles, serialized once per distinct key.
        self._preambles: dict[tuple, bytes] = {}
        # ``str(dtype)`` is Python-level numpy code (~4 us); a put needs the
        # name on every call and sees a handful of dtypes in its lifetime.
        self._dtype_names: dict[np.dtype, str] = {}
        # Optional WallClockTracer: every request gets an rpc span whose
        # trace context rides the frame header, and the server's latency
        # attribution (response "attr" field) is kept in ``last_attr``.
        # None (the default) adds zero work and zero header bytes.
        self.tracer = tracer
        self.last_attr: dict[str, float] | None = None

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self._connect_timeout
        )
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock

    def _mark_broken(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - best effort
                pass
            self.sock = None

    def _ensure_connected(self) -> None:
        if self.sock is not None:
            return
        if not self._reconnect:
            raise ConnectionError(
                f"connection to {self.host}:{self.port} is closed"
            )
        try:
            self._connect()
            return
        except OSError:
            time.sleep(self._reconnect_backoff)
        try:
            self._connect()
        except OSError as exc:
            raise ConnectionError(
                f"reconnect to {self.host}:{self.port} failed: {exc}"
            ) from exc

    # -- framing -------------------------------------------------------
    def _send_parts(self, parts: list[Buffer]) -> None:
        """Vectored send with partial-send continuation."""
        views = _payload_list(parts)
        while views:
            send_some(self.sock, views)

    def _recv_into(self, buf) -> memoryview:
        """Fill the fresh buffer ``buf`` from the socket (no joins)."""
        view = memoryview(buf)
        n, got = len(view), 0
        while got < n:
            nread = self.sock.recv_into(view[got:], n - got)
            if nread == 0:
                raise EOFError("server closed the connection")
            got += nread
        return view

    def _cached_preamble(self, key: tuple, header: dict[str, Any]) -> bytes:
        pre = self._preambles.get(key)
        if pre is None:
            pre = header_preamble(header)
            if len(self._preambles) >= 256:  # bound memory under key churn
                self._preambles.clear()
            self._preambles[key] = pre
        return pre

    def request(
        self,
        header: dict[str, Any],
        payload: Buffer | Sequence[Buffer] = b"",
        preamble: bytes | None = None,
    ) -> tuple[dict[str, Any], memoryview]:
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return self._request_raw(header, payload, preamble, None)
        span = tracer.begin(
            f"rpc.{header.get('op', '?')}", category="rpc", client=self.name
        )
        extra = {"trace": span.trace_id, "span": span.span_id}
        try:
            resp, body = self._request_raw(header, payload, preamble, extra)
        except BaseException as exc:
            tracer.end(span, error=repr(exc))
            raise
        attr = resp.get("attr")
        if attr is not None:
            self.last_attr = attr
            span.set(server_attr=attr)
        if resp.get("srv_span") is not None:
            span.set(srv_span=resp["srv_span"])
        tracer.end(span)
        return resp, body

    def _request_raw(
        self,
        header: dict[str, Any],
        payload: Buffer | Sequence[Buffer],
        preamble: bytes | None,
        extra: dict[str, Any] | None,
    ) -> tuple[dict[str, Any], memoryview]:
        self._ensure_connected()
        op = header.get("op", "?")
        try:
            self._send_parts(frame_parts(header, payload, preamble=preamble, extra=extra))
            steps = _frame_header()
            head = self._recv_into(bytearray(next(steps)))
            resp = steps.send(self._recv_into(bytearray(steps.send(head))))
            n = resp["payload_len"]
            # The body lands in uninitialised memory, as on the server
            # (``_SocketStream.readexactly``): the kernel writes every byte,
            # so zero-filling it first would be one more pass over it.
            body = self._recv_into(np.empty(n, dtype=np.uint8)) if n else memoryview(b"")
        except socket.timeout as exc:
            # The op blew its deadline: the connection's framing state is
            # unknown (a late response would desync the next request), so
            # the socket is condemned and the next op reconnects.
            self._mark_broken()
            raise TimeoutError(
                f"rpc {op!r} to {self.host}:{self.port} exceeded the "
                f"{self.timeout}s deadline"
            ) from exc
        except (EOFError, OSError) as exc:
            self._mark_broken()
            raise ConnectionError(
                f"connection to {self.host}:{self.port} lost during rpc {op!r}: {exc}"
            ) from exc
        PROTO_STATS.inc("frames_in")
        if not resp.get("ok", False):
            raise RemoteOpError(resp.get("error_type", "Error"), resp.get("error", "unknown"))
        return resp, body

    # -- operations ----------------------------------------------------
    def ping(self) -> float:
        resp, _ = self.request({"op": "ping"})
        return float(resp["now"])

    def put(self, var: str, lb, ub, data: np.ndarray | None = None) -> float:
        header = {"op": "put", "client": self.name, "var": var,
                  "lb": list(lb), "ub": list(ub)}
        payload: Buffer = b""
        key = ("put", var, tuple(lb), tuple(ub), None)
        if data is not None:
            arr = np.ascontiguousarray(data)
            dtype = self._dtype_names.get(arr.dtype)
            if dtype is None:
                dtype = self._dtype_names[arr.dtype] = str(arr.dtype)
            header["dtype"] = dtype
            payload = memoryview(arr).cast("B")  # zero-copy view of the array
            key = ("put", var, tuple(lb), tuple(ub), dtype)
        resp, _ = self.request(header, payload, preamble=self._cached_preamble(key, header))
        return float(resp["duration"])

    def get(
        self, var: str, lb, ub, verify: bool | None = None
    ) -> tuple[float, dict[int, memoryview]]:
        header = {"op": "get", "client": self.name, "var": var,
                  "lb": list(lb), "ub": list(ub)}
        if verify is not None:
            header["verify"] = bool(verify)
        key = ("get", var, tuple(lb), tuple(ub), verify)
        resp, body = self.request(header, preamble=self._cached_preamble(key, header))
        blocks: dict[int, memoryview] = {}
        off = 0
        for bid, nbytes in resp["blocks"]:
            blocks[int(bid)] = body[off:off + nbytes]  # zero-copy slice
            off += nbytes
        return float(resp["duration"]), blocks

    def mput(
        self,
        var: str,
        puts: Sequence[tuple],
        parts: Sequence[Buffer] = (),
        dtype: str | None = None,
    ) -> float:
        """Batched put: ``puts`` is ``[(lb, ub, nbytes), ...]``; ``parts``
        the matching payload buffers in order (scatter/gather, no join)."""
        header: dict[str, Any] = {
            "op": "mput", "client": self.name, "var": var,
            "puts": [[list(lb), list(ub), int(n)] for lb, ub, n in puts],
        }
        if dtype is not None:
            header["dtype"] = dtype
        resp, _ = self.request(header, list(parts))
        return float(resp["duration"])

    def mget(
        self, var: str, regions: Sequence[tuple], verify: bool | None = None
    ) -> tuple[float, dict[int, memoryview]]:
        """Batched get of several ``(lb, ub)`` regions of one variable."""
        header: dict[str, Any] = {
            "op": "mget", "client": self.name, "var": var,
            "regions": [[list(lb), list(ub)] for lb, ub in regions],
        }
        if verify is not None:
            header["verify"] = bool(verify)
        resp, body = self.request(header)
        blocks: dict[int, memoryview] = {}
        off = 0
        for bid, nbytes in resp["blocks"]:
            blocks[int(bid)] = body[off:off + nbytes]  # zero-copy slice
            off += nbytes
        return float(resp["duration"]), blocks

    def projection(self) -> dict[str, Any]:
        """Quiescent conformance projection of the server's deployment."""
        resp, _ = self.request({"op": "projection"})
        return resp["projection"]

    def query(self, var: str, lb, ub) -> list[dict[str, Any]]:
        resp, _ = self.request({"op": "query", "var": var, "lb": list(lb), "ub": list(ub)})
        return resp["blocks"]

    def step(self) -> int:
        resp, _ = self.request({"op": "step"})
        return int(resp["step"])

    def flush(self) -> None:
        self.request({"op": "flush"})

    def quiesce(self) -> None:
        self.request({"op": "quiesce"})

    def fail_server(self, sid: int) -> None:
        self.request({"op": "fail", "server": int(sid)})

    def replace_server(self, sid: int) -> None:
        self.request({"op": "replace", "server": int(sid)})

    def stats(self) -> dict[str, Any]:
        resp, _ = self.request({"op": "stats"})
        return resp["stats"]

    def metrics_text(self) -> str:
        """Fetch the server's Prometheus text exposition (``/metrics`` dump)."""
        _, body = self.request({"op": "metrics"})
        return bytes(body).decode("utf-8")

    def verify(self) -> dict[str, Any]:
        resp, _ = self.request({"op": "verify"})
        return resp["result"]

    def invariants(self) -> list[str]:
        """Quiescent invariant sweep on the server; returns violations."""
        resp, _ = self.request({"op": "invariants"})
        return resp["violations"]

    def shutdown(self) -> None:
        try:
            self.request({"op": "shutdown"})
        except (EOFError, OSError):  # server may close before replying
            pass

    def close(self) -> None:
        if self.sock is None:
            return
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - best effort
            pass
        self.sock = None

    def __enter__(self) -> "LiveClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
