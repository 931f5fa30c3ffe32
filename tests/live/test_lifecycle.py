"""Client/server lifecycle pins: the bugs that blocked clean sharding.

Three fixes, each with a regression test here:

- ``ServerHandle.stop()`` awaits the stop future with a deadline and
  re-raises the server thread's failure instead of dropping it (a lost
  stop error used to surface only as an undiagnosed join timeout);
- the ``shutdown`` wire op schedules a *graceful* stop — in-flight
  requests on other connections drain before the engine closes;
- ``LiveClient`` turns a dead or hung server into typed
  ``ConnectionError``/``TimeoutError`` within its per-op deadline and
  reconnects (bounded, one backoff retry) on the next op.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.policies import ReplicationPolicy
from repro.live.protocol import LiveClient
from repro.live.server import serve_in_thread
from repro.staging.service import StagingConfig


def small_config(**overrides) -> StagingConfig:
    defaults = dict(
        n_servers=8,
        domain_shape=(64, 64, 32),
        element_bytes=1,
        object_max_bytes=4096,
        seed=1,
    )
    defaults.update(overrides)
    return StagingConfig(**defaults)


# ---------------------------------------------------------------------------
# ServerHandle.stop()
# ---------------------------------------------------------------------------
@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_stop_reraises_server_thread_failure():
    """A teardown crash on the server thread must surface in stop().

    Injection: make the service's ``close()`` blow up — the server
    thread's ``serve_until_shutdown`` raises after the drain, the runner
    records it, and ``stop()`` re-raises instead of returning success.
    """
    handle = serve_in_thread(small_config(), ReplicationPolicy)

    async def failing_close() -> None:
        raise RuntimeError("injected close failure")

    handle.live.close = failing_close
    with pytest.raises(RuntimeError, match="injected close failure"):
        handle.stop()
    # Idempotent: a second stop() does not re-raise the same error.
    handle.stop()


def test_stop_deadline_surfaces_hung_shutdown():
    """A stop() that cannot complete raises within its deadline."""
    handle = serve_in_thread(small_config(), ReplicationPolicy)
    orig_stop = handle._server.stop

    async def hung_stop() -> None:
        await asyncio.sleep(3600)

    handle._server.stop = hung_stop
    try:
        with pytest.raises(RuntimeError, match="did not complete within"):
            handle.stop(timeout=0.5)
    finally:
        handle._server.stop = orig_stop
        handle.stop()


# ---------------------------------------------------------------------------
# graceful shutdown drain
# ---------------------------------------------------------------------------
def test_shutdown_op_drains_inflight_requests():
    """A ``shutdown`` frame must not yank the service from under a put.

    One connection issues a deliberately slowed put; while it is in
    flight a second connection sends ``shutdown``.  The put must still
    complete successfully (drain), and the server thread must then exit
    on its own (graceful stop reached the engine close).
    """
    handle = serve_in_thread(small_config(), ReplicationPolicy)
    orig_put = handle.live.put
    started = threading.Event()

    async def slow_put(*args, **kwargs):
        started.set()
        await asyncio.sleep(0.5)
        return await orig_put(*args, **kwargs)

    handle.live.put = slow_put

    result: dict = {}

    def writer() -> None:
        with LiveClient(handle.host, handle.port, name="w") as cli:
            try:
                result["duration"] = cli.put("var", (0, 0, 0), (16, 16, 16))
            except BaseException as exc:  # pragma: no cover - the regression
                result["error"] = exc

    t = threading.Thread(target=writer)
    t.start()
    assert started.wait(10.0), "put never reached the service"
    with LiveClient(handle.host, handle.port, name="ctl") as ctl:
        ctl.shutdown()
    t.join(30.0)
    assert not t.is_alive()
    assert "error" not in result, f"in-flight put was dropped: {result.get('error')!r}"
    assert result["duration"] >= 0.0
    handle.join(30.0)
    handle.stop()  # thread already exited; surfaces any recorded error


def test_request_outliving_the_drain_is_cancelled():
    """A request still running when the drain expires is abandoned for real.

    The cancellation must reach the dispatch and unwind the handler: an
    error *response* to it would leave the connection's task waiting for
    the next frame with nobody left to cancel it again, and ``stop()``
    would never return while the peer keeps its socket open.
    """
    handle = serve_in_thread(small_config(), ReplicationPolicy)
    server = handle._server
    server.drain_timeout = 0.2
    started = threading.Event()
    cancelled = threading.Event()

    async def stuck_put(*args, **kwargs):
        started.set()
        try:
            await asyncio.sleep(3600)
        except asyncio.CancelledError:
            cancelled.set()
            raise

    handle.live.put = stuck_put
    result: dict = {}
    cli = LiveClient(handle.host, handle.port, name="w", timeout=30.0)

    def writer() -> None:
        try:
            result["duration"] = cli.put("var", (0, 0, 0), (16, 16, 16))
        except BaseException as exc:
            result["error"] = exc

    t = threading.Thread(target=writer)
    t.start()
    try:
        assert started.wait(10.0), "put never reached the service"
        handle.stop(timeout=10.0)
        assert not handle._thread.is_alive()
        assert cancelled.is_set()
        assert server._inflight == 0
        assert server._connections == set()
        # The peer sees its connection die, not a reply to the dead request.
        t.join(10.0)
        assert not t.is_alive()
        assert isinstance(result.get("error"), ConnectionError), result
    finally:
        cli.close()
        t.join(10.0)


# ---------------------------------------------------------------------------
# client deadline + typed errors + bounded reconnect
# ---------------------------------------------------------------------------
def test_client_deadline_on_unresponsive_server():
    """An accepted-but-silent server trips the per-op deadline."""
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        host, port = listener.getsockname()
        cli = LiveClient(host, port, timeout=0.4)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="deadline"):
            cli.ping()
        assert time.monotonic() - t0 < 5.0
        assert cli.sock is None  # socket condemned, not reused
        cli.close()
    finally:
        listener.close()


def test_client_connection_error_and_bounded_reconnect():
    """Kill-mid-session: typed ConnectionError, then reconnect once up again."""
    config = small_config()
    handle = serve_in_thread(config, ReplicationPolicy)
    port = handle.port
    cli = LiveClient(handle.host, port, timeout=5.0)
    try:
        cli.ping()
        handle.stop()
        # The established socket is dead: the in-flight rpc surfaces a
        # typed error instead of hanging or raising raw OSError.
        with pytest.raises((ConnectionError, TimeoutError)):
            cli.ping()
        # Server still down: reconnect is attempted (with one backoff
        # retry) and fails cleanly — bounded, not an infinite loop.
        with pytest.raises(ConnectionError, match="reconnect"):
            cli.ping()
        # Server back on the same port: the next op reconnects and works.
        handle2 = serve_in_thread(config, ReplicationPolicy, port=port)
        try:
            assert cli.ping() >= 0.0
        finally:
            cli.close()
            handle2.stop()
    finally:
        cli.close()


def test_client_without_reconnect_stays_closed():
    handle = serve_in_thread(small_config(), ReplicationPolicy)
    try:
        cli = LiveClient(handle.host, handle.port, timeout=5.0, reconnect=False)
        cli.ping()
        cli._mark_broken()
        with pytest.raises(ConnectionError, match="closed"):
            cli.ping()
        cli.close()
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# open connections at shutdown
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("how", ["stop", "shutdown-op"])
def test_shutdown_closes_idle_and_mid_frame_connections(how):
    """The server owns every socket it accepted: a stop with an idle
    connection and one stalled inside a frame still joins the thread, and
    both peers see the close instead of hanging on a half-dead server."""
    handle = serve_in_thread(small_config(), ReplicationPolicy)
    idle = socket.create_connection((handle.host, handle.port), timeout=10.0)
    mid_frame = socket.create_connection((handle.host, handle.port), timeout=10.0)
    try:
        mid_frame.sendall(b"\x40\x00\x00\x00" + b'{"op": "put"')  # 64-byte header, 12 sent
        with LiveClient(handle.host, handle.port) as ctl:
            ctl.ping()  # both sockets above were accepted before this one
            if how == "shutdown-op":
                ctl.shutdown()
        if how == "shutdown-op":
            handle.join(30.0)
        handle.stop()
        assert not handle._thread.is_alive()
        assert handle._server.connections_served == 3
        assert handle._server._connections == set()
        for sock in (idle, mid_frame):
            assert sock.recv(1) == b""
    finally:
        idle.close()
        mid_frame.close()
