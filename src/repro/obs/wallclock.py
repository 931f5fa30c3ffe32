"""The wall-clock :class:`~repro.obs.tracer.Tracer` of the live backend.

:class:`WallClockTracer` is the simulator's tracer — one span type, one
``traced`` driver, one contextvar scope — with what a live deployment
adds: timestamps from ``time.monotonic_ns`` (seconds since the tracer's
epoch), distributed trace ids, a lock around span-id allocation, and the
per-request attribution sink.

Distributed traces
------------------
Every root span opens a new **trace**: a process-unique hex ``trace_id``
that all descendants inherit.  The live protocol carries
``trace_id``/``parent span_id`` in its frame headers, so a server can
open its dispatch span as a *local* root (``parent_id = None``) that
still links to the client's RPC span via ``attrs["remote_parent"]`` and
trace-id equality — one logical span tree crossing the process boundary
without pretending remote span ids resolve locally.

Per-request latency attribution
-------------------------------
:meth:`push_attribution` installs the current request's sink, and
:meth:`~repro.obs.tracer.Tracer.charge` adds durations to it.
``traced`` charges every wait a flow performs (``queue_wait`` for
scheduling through the engine's microqueue, ``lock_wait`` for resource
grants — events carry a ``charge`` tag where the default classification
is wrong); host compute (``codec``, ``digest``) is no wait and is charged
by :meth:`LiveEngine.inline` from its own span.  A request's charges are
non-overlapping segments of its wall time whenever its flows do not fan
out internally.

Thread discipline: ``begin``/``end``/``instant`` may be called from any
thread (span-id allocation and the span list are lock-protected; ids
stay in start order).  ``traced`` flows and ``charge`` run wherever the
engine executes them; the sink dict is only mutated on the event-loop
thread in practice.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any

from repro.obs.tracer import Span, Tracer

__all__ = ["WallClockTracer", "WAIT_CATEGORIES"]

#: Wait categories ``traced`` can charge, plus the handler-level
#: categories the live server adds around a dispatch (documented in
#: docs/OBSERVABILITY.md).
WAIT_CATEGORIES = (
    "queue_wait",   # scheduling through the engine microqueue
    "lock_wait",    # entity/stripe resource grants
    "codec",        # GF(2^8) kernel passes (LiveEngine.inline's span)
    "digest",       # payload hashing (LiveEngine.inline's span)
    "fanout_wait",  # condition events (AllOf/AnyOf)
    "event_wait",   # any other event
)


class WallClockTracer(Tracer):
    """Thread-safe tracer on ``time.monotonic_ns`` with trace ids."""

    def __init__(self):
        epoch = time.monotonic_ns()
        super().__init__(lambda: (time.monotonic_ns() - epoch) / 1e9)
        self._lock = threading.Lock()
        # Process-unique trace-id prefix: bench clients are subprocesses
        # and their ids must not collide with the server's.
        self._trace_prefix = f"{os.getpid() & 0xFFFFFFFF:08x}"
        self._trace_counter = itertools.count(1)

    @property
    def now(self) -> float:
        """The tracer's clock reading (seconds since its epoch)."""
        return self._clock()

    def new_trace_id(self) -> str:
        return f"{self._trace_prefix}-{next(self._trace_counter):08x}"

    def begin(
        self,
        name: str,
        category: str = "",
        parent: Span | None = None,
        trace_id: str | None = None,
        t0: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a wall-clock span.

        ``trace_id`` pins the trace explicitly (propagated requests);
        otherwise the parent's trace is inherited, and a parentless span
        opens a fresh trace.  ``t0`` backdates the start (the live server
        stamps request arrival before it knows the operation name).
        """
        if parent is None:
            parent = self._scope.get(None)
        if trace_id is None:
            trace_id = (parent.trace_id if parent is not None else None) or self.new_trace_id()
        start = self._clock() if t0 is None else t0
        with self._lock:
            return self._open(name, category, parent, start, attrs, trace_id)

    def push_attribution(self, sink: dict[str, float]):
        """Install ``sink`` as the current request's charge accumulator."""
        return self._sink.set(sink)

    def pop_attribution(self, token) -> None:
        self._sink.reset(token)
