"""Asyncio TCP server for the live staging backend.

One :class:`LiveServer` fronts one :class:`~repro.live.service.LiveStagingService`:
each accepted connection gets a handler coroutine that reads
length-prefixed frames (:mod:`repro.live.protocol`) straight off its
socket (:class:`_SocketStream`: every part of a frame is received into
the one buffer it stays in), dispatches them on the shared service, and
sends the response back with vectored ``sendmsg``.  Frames on one
connection execute in order (a client's pipeline is FIFO); different
connections run concurrently on the event loop: while one request waits
(a lock grant, a background stripe), the loop serves other clients.

``serve_in_thread`` runs the whole stack (loop + service + server) on a
dedicated thread and hands back a handle with the bound port — the shape
load generators, the CLI and tests use to run real-socket traffic from
plain blocking clients.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Callable

import numpy as np

from repro.live.protocol import ProtocolError, read_frame, send_some, write_frame
from repro.live.service import LiveStagingService
from repro.staging.domain import BBox
from repro.staging.service import StagingConfig

__all__ = ["LiveServer", "ServerHandle", "serve_in_thread"]


class _SocketStream:
    """One accepted connection, as :func:`read_frame` / :func:`write_frame` see it.

    ``readexactly(n)`` receives into one buffer sized ``n`` — for a
    payload, the buffer ``np.frombuffer`` wraps and the store keeps — so a
    frame is landed once, by the kernel.  The buffer is uninitialised
    memory (``np.empty``), which is what makes a declared-but-never-sent
    gigabyte cost address space and no resident pages.  The non-blocking
    socket is tried first; the loop is asked to wait only when it has
    nothing, so a connection yields whenever its socket runs dry.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, sock: socket.socket):
        self._loop = loop
        self._sock = sock
        self._out: list[memoryview] = []

    async def readexactly(self, n: int) -> memoryview:
        view = memoryview(np.empty(n, dtype=np.uint8))
        got = 0
        while got < n:
            try:
                nread = self._sock.recv_into(view[got:])
            except BlockingIOError:
                nread = await self._loop.sock_recv_into(self._sock, view[got:])
            if nread == 0:
                raise asyncio.IncompleteReadError(view[:got], n)
            got += nread
        return view.toreadonly()

    def writelines(self, parts) -> None:
        # ``frame_parts`` output: a bytes prefix, then flat non-empty byte views.
        self._out = [memoryview(part) for part in parts]

    async def drain(self) -> None:
        views = self._out
        while views:
            try:
                send_some(self._sock, views)
            except BlockingIOError:
                await self._loop.sock_sendall(self._sock, views.pop(0))

    def close(self) -> None:
        self._sock.close()


class LiveServer:
    """Protocol frontend over one live staging service."""

    def __init__(self, live: LiveStagingService, drain_timeout: float = 30.0):
        self.live = live
        self._listener: socket.socket | None = None
        self._acceptor: asyncio.Task | None = None
        self._connections: set[asyncio.Task] = set()
        self._shutdown = asyncio.Event()
        # In-flight dispatch accounting for graceful shutdown: the drain
        # waits until every request that had started dispatching has sent
        # its response, so a `shutdown` frame on one connection cannot
        # yank the service out from under another connection's put.
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.drain_timeout = drain_timeout
        self.connections_served = 0
        self.requests_served = 0

    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start accepting; returns the (host, port) actually bound."""
        self._listener = socket.create_server((host, port), backlog=100)
        self._listener.setblocking(False)
        self._acceptor = asyncio.get_running_loop().create_task(self._accept_loop())
        sockname = self._listener.getsockname()
        return sockname[0], sockname[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` frame (or :meth:`stop`), then drain and close.

        Teardown order: stop accepting, wait for in-flight requests to
        finish responding (bounded by ``drain_timeout``), then quiesce and
        close the engine.  Requests that outlive the drain deadline are
        abandoned: every connection still open — idle, mid-frame or
        mid-request — is cancelled and its socket closed before this
        returns.
        """
        if self._listener is None:
            raise RuntimeError("start() first")
        try:
            await self._shutdown.wait()
        finally:
            await self._cancel([self._acceptor])
            self._listener.close()
        try:
            if self._inflight:
                try:
                    await asyncio.wait_for(self._idle.wait(), timeout=self.drain_timeout)
                except asyncio.TimeoutError:  # pragma: no cover - pathological op
                    pass
            await self.live.close()
        finally:
            await self._cancel(list(self._connections))

    @staticmethod
    async def _cancel(tasks: list[asyncio.Task]) -> None:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def stop(self) -> None:
        """Schedule a graceful stop (same path as the ``shutdown`` wire op)."""
        self._shutdown.set()

    # ------------------------------------------------------------------
    async def _accept_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                sock, _ = await loop.sock_accept(self._listener)
            except ConnectionAbortedError:
                continue  # the peer gave up between SYN and accept
            except OSError:
                # Out of descriptors or buffers: keep the listener, retry
                # once something may have been released.
                await asyncio.sleep(1.0)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            task = loop.create_task(self._handle(_SocketStream(loop, sock)))
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)

    async def _handle(self, stream: _SocketStream) -> None:
        self.connections_served += 1
        try:
            while True:
                op = await self._serve_one(stream, stream)
                if op is None:  # clean EOF
                    break
                if op == "shutdown":
                    self._shutdown.set()
                    break
        except (ProtocolError, ConnectionResetError, BrokenPipeError):
            pass  # drop the misbehaving/vanished connection
        finally:
            stream.close()

    async def _serve_one(self, reader, writer) -> str | None:
        """Read-dispatch-respond for one frame; returns the op (None on EOF).

        The one request path.  With tracing on a :class:`_RequestTrace`
        rides along and observes these same statements; the frame, the
        dispatch and the response bytes do not know it is there.
        """
        tracer = self.live.tracer
        trace = _RequestTrace(tracer) if tracer.enabled else None
        try:
            header, payload = await read_frame(reader, trace and trace.stamp)
        except EOFError:
            return None
        op = header.get("op", "?")
        self._begin_request()
        try:
            if trace:
                trace.enter(op, header)
            try:
                resp, body = await self._dispatch(header, payload)
            except ProtocolError:
                if trace:
                    trace.leave(None)
                raise
            except Exception as exc:
                resp = {
                    "ok": False,
                    "error_type": type(exc).__name__,
                    "error": str(exc),
                }
                body = b""
            if trace:
                trace.leave(resp)
            self.requests_served += 1
            await write_frame(writer, resp, body, stamp=trace and trace.stamp)
            if trace:
                self.live.observe_request(*trace.finish())
        finally:
            self._end_request()
        return op

    def _begin_request(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _end_request(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    def _bbox(self, header: dict[str, Any]) -> BBox:
        return BBox(tuple(header["lb"]), tuple(header["ub"]))

    @staticmethod
    def _blocks_response(duration: float, payloads: dict[int, np.ndarray]) -> tuple[dict, list]:
        """The ``get`` / ``mget`` response: ``blocks`` = [[id, nbytes], ...]
        in block order, body = one memoryview per block's array — zero-copy,
        the scatter/gather ``write_frame`` sends the list without joining."""
        blocks = []
        chunks = []
        for bid in sorted(payloads):
            buf = np.ascontiguousarray(payloads[bid], dtype=np.uint8)
            blocks.append([int(bid), int(buf.size)])
            chunks.append(memoryview(buf).cast("B"))
        return {"ok": True, "duration": duration, "blocks": blocks}, chunks

    async def _dispatch(
        self, header: dict[str, Any], payload: bytes | memoryview
    ) -> tuple[dict, Any]:
        op = header.get("op")
        live = self.live
        if op == "ping":
            return {"ok": True, "now": live.engine.now}, b""
        if op == "put":
            data = None
            if payload:
                data = np.frombuffer(payload, dtype=header.get("dtype", "uint8"))
            duration = await live.put(
                header.get("client", "client"), header["var"], self._bbox(header), data
            )
            return {"ok": True, "duration": duration}, b""
        if op == "get":
            duration, payloads = await live.get(
                header.get("client", "client"),
                header["var"],
                self._bbox(header),
                header.get("verify"),
            )
            return self._blocks_response(duration, payloads)
        if op == "mput":
            # Batched put: one shard's sub-regions of a routed client put.
            # Header: "puts" = [[lb, ub, nbytes], ...]; payload = the
            # sub-regions' bytes concatenated in list order (empty nbytes
            # means synthetic payload, like a put without data).
            dtype = np.dtype(header.get("dtype", "uint8"))
            subputs: list[tuple[BBox, Any]] = []
            off = 0
            for lb, ub, nbytes in header["puts"]:
                data = None
                if nbytes:
                    data = np.frombuffer(
                        payload, dtype=dtype, count=nbytes // dtype.itemsize, offset=off
                    )
                    off += nbytes
                subputs.append((BBox(tuple(lb), tuple(ub)), data))
            duration = await live.put_blocks(
                header.get("client", "client"), header["var"], subputs
            )
            return {"ok": True, "duration": duration}, b""
        if op == "mget":
            regions = [BBox(tuple(lb), tuple(ub)) for lb, ub in header["regions"]]
            duration, payloads = await live.get_blocks(
                header.get("client", "client"), header["var"], regions,
                header.get("verify"),
            )
            return self._blocks_response(duration, payloads)
        if op == "query":
            region = self._bbox(header)
            out = []
            for bid in live.domain.blocks_overlapping(region):
                ent = live.directory.get(header["var"], bid)
                if ent is None:
                    out.append({"block": bid, "version": -1})
                    continue
                out.append(
                    {
                        "block": bid,
                        "version": ent.version,
                        "state": ent.state.value,
                        "primary": ent.primary,
                        "replicas": list(ent.replicas),
                        "stripe": None if ent.stripe is None else ent.stripe.stripe_id,
                        "nbytes": ent.nbytes,
                    }
                )
            return {"ok": True, "blocks": out}, b""
        if op == "step":
            await live.end_step()
            return {"ok": True, "step": live.step}, b""
        if op == "flush":
            await live.flush()
            return {"ok": True}, b""
        if op == "quiesce":
            await live.quiesce()
            return {"ok": True}, b""
        if op == "fail":
            live.fail_server(int(header["server"]))
            return {"ok": True}, b""
        if op == "replace":
            live.replace_server(int(header["server"]))
            return {"ok": True}, b""
        if op == "projection":
            # Quiescent timing-free state — what the sharded differential
            # harness merges across shards and diffs against a
            # single-process run.
            await live.quiesce()
            return {"ok": True, "projection": live.service.projection()}, b""
        if op == "stats":
            return {"ok": True, "stats": live.stats()}, b""
        if op == "metrics":
            # Prometheus text exposition as the response payload — the
            # live protocol's /metrics endpoint.
            return {"ok": True}, live.metrics_text().encode("utf-8")
        if op == "verify":
            return {"ok": True, "result": await live.verify_all()}, b""
        if op == "invariants":
            # Quiescent invariant sweep over this deployment's state —
            # what chaos campaigns run in-process, exposed on the wire so
            # a cluster coordinator can audit every shard after a fault.
            # The digest audit runs through the live async read paths
            # (its sim checker would call the engine's forbidden run()).
            from repro.chaos.invariants import (
                INVARIANTS,
                QUIESCENT,
                Violation,
                audit_violations,
                run_invariants,
            )

            await live.quiesce()
            state_checks = [i.name for i in INVARIANTS if i.name != "digest_audit"]
            violations = run_invariants(live.service, tier=QUIESCENT, names=state_checks)
            audit = await live.verify_all()
            now = live.engine.now
            violations.extend(
                Violation("digest_audit", detail, now)
                for detail in audit_violations(live.service, audit)
            )
            return {"ok": True, "violations": [str(v) for v in violations]}, b""
        if op == "shutdown":
            # Schedule the graceful stop *here*, not as a side effect of
            # the connection loop: serve_until_shutdown stops accepting,
            # drains in-flight requests (this response included) and then
            # closes the engine — the teardown the cluster coordinator
            # relies on for clean shard shutdown.
            await self.stop()
            return {"ok": True}, b""
        raise ProtocolError(f"unknown op {op!r}")


class _RequestTrace:
    """What tracing adds to one request of :meth:`LiveServer._serve_one`.

    The dispatch span is a *local* root backdated to frame arrival; a
    propagated client trace context pins its ``trace_id`` and lands as
    ``attrs["remote_parent"]`` (remote span ids never masquerade as
    local parent links).  The span is installed as the handler task's
    current scope, so every flow span the dispatch spawns — put/get
    roots, digest and codec spans — parents under it through the
    contextvar, forming one tree per request.

    Attribution: flow waits charge the request sink (classified by the
    tracer) and are normalized to the dispatch wall interval when
    concurrent flows overlap their waits; handler-side
    socket/serialization costs are measured directly, ``loop_cpu`` is
    the dispatch residual, and ``other`` closes the sum to end-to-end
    exactly.  The partial breakdown (everything but the response
    serialize/send, which cannot observe itself) returns to the client
    as ``attr`` + ``srv_span``.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        # Clock readings outside the dispatch: read_frame's four (length
        # word in, header in, header decoded, payload in), then the
        # response serialization's start and end.
        self.stamps: list[float] = []

    def stamp(self) -> None:
        self.stamps.append(self.tracer.now)

    def enter(self, op: str, header: dict[str, Any]) -> None:
        """Open the dispatch span and the attribution sink."""
        tracer = self.tracer
        self.op = op
        self.span = tracer.begin(
            f"rpc.{op}",
            category="rpc",
            parent=None,
            trace_id=header.get("trace"),
            t0=self.stamps[0],
            client=header.get("client"),
        )
        if header.get("span") is not None:
            self.span.set(remote_parent=header["span"])
        self.sink: dict[str, float] = {}
        self._scope_token = tracer.activate(self.span)
        self._attr_token = tracer.push_attribution(self.sink)
        self._t_svc0 = tracer.now

    def leave(self, resp: dict[str, Any] | None) -> None:
        """Close the sink; put ``attr`` / ``srv_span`` on the response.

        ``resp`` is None when the dispatch died on a protocol error and
        there is no response to annotate.
        """
        tracer = self.tracer
        service_s = tracer.now - self._t_svc0
        tracer.pop_attribution(self._attr_token)
        tracer.deactivate(self._scope_token)
        if resp is None:
            tracer.end(self.span, error="ProtocolError")
            return
        if not resp["ok"]:
            self.span.set(error=f"{resp['error_type']}: {resp['error']}")
        # Concurrent flows (block fan-out, background protection) overlap
        # their waits, so charged seconds can exceed the dispatch wall
        # interval.  Reconcile by scaling the categories down to the
        # interval — ratios are preserved, the sum closes against wall
        # time, and the raw overlap factor lands on the span.
        sink = self.sink
        sink_total = sum(sink.values())
        self.wait_overlap = sink_total / service_s if service_s > 0.0 else 0.0
        if sink_total > service_s > 0.0:
            scale = service_s / sink_total
            sink = {k: v * scale for k, v in sink.items()}
            loop_cpu = 0.0
        else:
            loop_cpu = max(0.0, service_s - sink_total)
        t_arrival, t_head, t_decoded, t_body = self.stamps
        self.attr = resp["attr"] = {
            "socket_read": (t_head - t_arrival) + (t_body - t_decoded),
            "serialization": t_decoded - t_head,
            **sink,
            "loop_cpu": loop_cpu,
        }
        resp["srv_span"] = self.span.span_id
        self.stamp()

    def finish(self) -> tuple[str, float, dict[str, float]]:
        """Close the span once the response is sent: ``(op, e2e_s, breakdown)``."""
        t_end = self.tracer.now
        t_arrival, _, _, _, t_ser0, t_ser1 = self.stamps
        breakdown = dict(self.attr)
        breakdown["serialization"] += t_ser1 - t_ser0
        breakdown["socket_write"] = t_end - t_ser1
        e2e = t_end - t_arrival
        # Exact closure: "other" absorbs what no probe measured (handler
        # bookkeeping, clock skew between probes); near zero by design.
        breakdown["other"] = e2e - sum(breakdown.values())
        self.span.t1 = t_end
        self.span.set(
            op=self.op, e2e_s=e2e, breakdown=breakdown, wait_overlap=self.wait_overlap
        )
        return self.op, e2e, breakdown


class ServerHandle:
    """A live server running on its own thread + event loop.

    ``live`` exposes the underlying service for observability readers
    (tracer spans, metrics registry) — safe to inspect from the launching
    thread once the server has stopped, or read-only while it runs.
    """

    def __init__(
        self,
        host: str,
        port: int,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        server: LiveServer,
        live: LiveStagingService | None = None,
        box: dict[str, Any] | None = None,
    ):
        self.host = host
        self.port = port
        self._thread = thread
        self._loop = loop
        self._server = server
        self.live = live
        self._box = box if box is not None else {}

    def stop(self, timeout: float = 30.0) -> None:
        """Request shutdown, surface its outcome, and join the server thread.

        The stop coroutine runs on the server's loop; its future is
        awaited with a deadline and any exception it raised is re-raised
        here instead of being dropped on the floor (a lost stop error
        used to surface only as an undiagnosed join timeout).  A crash of
        the server thread itself (recorded by the runner) is re-raised
        after the join for the same reason.
        """
        if self._thread.is_alive():
            try:
                future = asyncio.run_coroutine_threadsafe(self._server.stop(), self._loop)
            except RuntimeError:
                # The loop wound down between the aliveness check and the
                # submit — the thread is exiting; fall through to join.
                future = None
            if future is not None:
                try:
                    future.result(timeout)
                except FuturesTimeoutError:
                    future.cancel()
                    raise RuntimeError(
                        f"live server stop() did not complete within {timeout}s"
                    ) from None
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - watchdog
            raise RuntimeError("live server thread did not stop")
        err = self._box.get("error")
        if err is not None and not self._box.get("error_raised"):
            self._box["error_raised"] = True
            raise RuntimeError(f"live server thread failed: {err!r}") from err

    def join(self, timeout: float | None = None) -> None:
        """Block until the server thread exits (e.g. after a ``shutdown``
        frame drains it) — how a shard process waits out its lifetime."""
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    config: StagingConfig,
    policy_factory: Callable[[], Any],
    host: str = "127.0.0.1",
    port: int = 0,
    **live_kwargs: Any,
) -> ServerHandle:
    """Run a live staging server on a dedicated thread; returns its handle.

    ``live_kwargs`` (``time_scale``, ``tracing``) go unchanged to
    :class:`LiveStagingService`.  ``tracing=True`` gives the service a
    wall-clock tracer (distributed span trees, per-request
    attribution, loop-lag watchdog); read the results through
    ``handle.live`` after ``handle.stop()``.
    """
    started = threading.Event()
    box: dict[str, Any] = {}

    def runner() -> None:
        async def main() -> None:
            live = LiveStagingService(config, policy_factory(), **live_kwargs)
            server = LiveServer(live)
            bound_host, bound_port = await server.start(host, port)
            box["host"], box["port"] = bound_host, bound_port
            box["loop"] = asyncio.get_running_loop()
            box["server"] = server
            box["live"] = live
            started.set()
            await server.serve_until_shutdown()

        try:
            asyncio.run(main())
        except BaseException as exc:
            # Before start(): surfaced by serve_in_thread below.  After:
            # surfaced by ServerHandle.stop() once the thread is joined.
            box["error"] = exc
            started.set()
            raise

    thread = threading.Thread(target=runner, name="repro-live-server", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):  # pragma: no cover - watchdog
        raise RuntimeError("live server failed to start within 30s")
    if "error" in box:
        raise RuntimeError(f"live server failed to start: {box['error']!r}")
    return ServerHandle(
        box["host"], box["port"], thread, box["loop"], box["server"], box["live"],
        box=box,
    )
