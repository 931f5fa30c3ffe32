"""A connection's reader registration: present only while a read waits,
gone from the loop's selector whenever the connection ends.

``_SocketStream`` asks the loop to watch its socket only when a read finds
it empty.  The selector is level-triggered, so the two ways a registration
goes wrong are one that outlives its socket (a stale selector key for a
recycled fd) and one that fires on every loop iteration while bytes sit
unread behind a request that is itself waiting (a spinning loop).
"""

from __future__ import annotations

import json
import socket
import struct
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro import CoRECPolicy
from repro.live import LiveClient, serve_in_thread
from repro.live.protocol import frame_parts
from repro.live.server import _SocketStream
from repro.staging.service import StagingConfig


def _config() -> StagingConfig:
    return StagingConfig(
        n_servers=8, domain_shape=(32, 32, 32), element_bytes=1, object_max_bytes=4096, seed=3
    )


def _frame(header: dict, payload=b"") -> bytes:
    return b"".join(bytes(part) for part in frame_parts(header, payload))


PING = _frame({"op": "ping"})


def _put(lb, ub, data) -> bytes:
    header = {"op": "put", "client": "raw", "var": "v", "lb": list(lb), "ub": list(ub)}
    return _frame(header, memoryview(data))


def _read_ack(sock: socket.socket) -> dict:
    def exactly(n: int) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            assert chunk, "server closed the connection"
            buf += chunk
        return bytes(buf)

    header = json.loads(exactly(int.from_bytes(exactly(4), "little")))
    exactly(header["payload_len"])
    return header


def _on_loop(loop, fn):
    """Run ``fn()`` on the server's loop thread; its result."""
    done: Future = Future()

    def call() -> None:
        try:
            done.set_result(fn())
        except BaseException as exc:  # pragma: no cover - surfaced below
            done.set_exception(exc)

    loop.call_soon_threadsafe(call)
    return done.result(10.0)


def _wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


@pytest.fixture
def registered_after_close(monkeypatch):
    """For each stream the server closes: is its fd still in the selector?"""
    seen: list[bool] = []
    close = _SocketStream.close

    def watched(self) -> None:
        fd = self._sock.fileno()
        close(self)
        seen.append(fd in self._loop._selector.get_map())

    monkeypatch.setattr(_SocketStream, "close", watched)
    return seen


BLOCK = np.arange(4096, dtype=np.uint8)


@pytest.mark.parametrize("ending", ["clean EOF", "truncated frame", "reset"])
def test_the_fd_leaves_the_selector_when_the_peer_ends_the_connection(
    registered_after_close, ending
):
    with serve_in_thread(_config(), CoRECPolicy) as handle:
        sock = socket.create_connection((handle.host, handle.port), timeout=10.0)
        sock.sendall(PING)
        assert "now" in _read_ack(sock)
        time.sleep(0.05)  # the handler waits on its socket, registered
        if ending != "clean EOF":
            sock.sendall(_put((0, 0, 0), (16, 16, 16), BLOCK)[:60])
        if ending == "truncated frame":
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b""  # no response; the server hung up
        elif ending == "reset":
            time.sleep(0.05)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        _wait_for(lambda: registered_after_close)
        assert registered_after_close == [False]
        with LiveClient(handle.host, handle.port, timeout=10.0) as cli:
            cli.ping()  # a recycled fd is watched afresh
    assert registered_after_close == [False, False]


def test_the_fd_leaves_the_selector_when_shutdown_cancels_a_connection_mid_frame(
    registered_after_close,
):
    handle = serve_in_thread(_config(), CoRECPolicy)
    sock = socket.create_connection((handle.host, handle.port), timeout=10.0)
    try:
        sock.sendall(_put((0, 0, 0), (16, 16, 16), BLOCK)[:60])
        _wait_for(lambda: handle._server.connections_served == 1)
        time.sleep(0.05)  # parked mid-header
        handle.stop()
    finally:
        sock.close()
    assert registered_after_close == [False]


def test_a_frame_pipelined_behind_a_waiting_put_does_not_spin_the_loop():
    """The put waits on a held entity lock; the ping behind it is readable
    the whole time and nobody reads it.  A registration left in place while
    nobody waits would wake the selector on every iteration."""
    with serve_in_thread(_config(), CoRECPolicy) as handle:
        live, loop = handle.live, handle._loop
        box = live.domain.block_bbox(0)
        with LiveClient(handle.host, handle.port, timeout=10.0) as cli:
            cli.put("v", box.lb, box.ub, BLOCK)  # the entity exists
        lock = live.runtime.entity_lock(("v", 0))
        held = _on_loop(loop, lock.request)
        assert held.processed
        selector = loop._selector
        select = selector.select
        selects: list[float | None] = []

        def counting(timeout=None):
            selects.append(timeout)
            return select(timeout)

        _on_loop(loop, lambda: setattr(selector, "select", counting))
        sock = socket.create_connection((handle.host, handle.port), timeout=10.0)
        try:
            sock.sendall(_put(box.lb, box.ub, BLOCK) + PING)
            _wait_for(lambda: _on_loop(loop, lambda: lock.queued) == 1)
            before = len(selects)
            time.sleep(0.3)
            iterations = len(selects) - before
            _on_loop(loop, lambda: lock.release(held))
            assert _read_ack(sock)["ok"] is True
            assert "now" in _read_ack(sock)
            sock.sendall(PING)  # the next wait registers the socket again
            assert "now" in _read_ack(sock)
        finally:
            sock.close()
            _on_loop(loop, lambda: delattr(selector, "select"))
        assert iterations <= 10, iterations
