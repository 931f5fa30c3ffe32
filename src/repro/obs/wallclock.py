"""Wall-clock spans for the live backend, sharing the sim tracer's schema.

:class:`WallClockTracer` is the :class:`~repro.obs.tracer.Tracer` of the
live data plane: same :class:`Span` tree, same exporters, but timestamps
come from ``time.monotonic_ns`` (as seconds since the tracer's epoch) and
the dynamic scope is tracked in a :mod:`contextvars` variable so parent
attribution stays correct across asyncio tasks *and* threads — the two
places the sim tracer's single "current span" attribute would
leak scopes between concurrent requests.

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
:meth:`charge` adds a duration to the *attribution sink* installed for
the current request (:meth:`push_attribution`).  :meth:`traced` charges
every wait a flow performs, classified by what it yielded on
(``queue_wait`` for scheduling through the engine's microqueue,
``lock_wait`` for resource grants — events carry a ``charge`` tag where
the default classification is wrong).  An event that is already complete
when the flow yields it is no wait — the live engine resumes the flow in
place — and is not timed; host compute (``codec``, ``digest``) is no wait
either and is charged by :meth:`LiveEngine.inline` from its own span.  Waits are
charged exactly once even when traced flows nest (the outermost wrapper
claims the item for the duration of the resume call-stack), so a
request's charges are non-overlapping segments of its wall time
whenever its flows do not fan out internally.

Thread discipline: ``begin``/``end``/``instant`` may be called from any
thread (span-id allocation and the span list are lock-protected; ids
stay in start order).  ``traced`` flows and ``charge`` run wherever the
engine executes them; the sink dict is only mutated on the event-loop
thread in practice.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from typing import Any, Callable, Generator

from repro.obs.tracer import Span, Tracer

__all__ = ["WallSpan", "WallClockTracer", "WAIT_CATEGORIES"]

#: Wait categories :meth:`WallClockTracer.traced` can charge, plus the
#: handler-level categories the live server adds around a dispatch
#: (documented in docs/OBSERVABILITY.md).
WAIT_CATEGORIES = (
    "queue_wait",   # scheduling through the engine microqueue
    "lock_wait",    # entity/stripe resource grants
    "codec",        # GF(2^8) kernel passes (LiveEngine.inline's span)
    "digest",       # payload hashing (LiveEngine.inline's span)
    "fanout_wait",  # condition events (AllOf/AnyOf)
    "event_wait",   # any other event
)

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("repro_wall_current")
_SINK: contextvars.ContextVar = contextvars.ContextVar("repro_wall_sink")


class WallSpan(Span):
    """A :class:`Span` stamped on the wall clock, tagged with its trace."""

    __slots__ = ("trace_id",)

    def __init__(self, span_id, parent_id, name, category, t0, attrs, trace_id):
        super().__init__(span_id, parent_id, name, category, t0, attrs)
        self.trace_id = trace_id

    def to_dict(self) -> dict[str, Any]:
        row = super().to_dict()
        row["trace_id"] = self.trace_id
        row["clock"] = "wall"
        return row


class WallClockTracer(Tracer):
    """Thread-safe, contextvar-scoped tracer on ``time.monotonic_ns``."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        if clock is None:
            epoch = time.monotonic_ns()
            clock = lambda: (time.monotonic_ns() - epoch) / 1e9  # noqa: E731
        super().__init__(clock)
        self._lock = threading.Lock()
        # Process-unique trace-id prefix: bench clients are subprocesses
        # and their ids must not collide with the server's.
        self._trace_prefix = f"{os.getpid() & 0xFFFFFFFF:08x}"
        self._trace_counter = itertools.count(1)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The tracer's clock reading (seconds since its epoch)."""
        return self._clock()

    @property
    def current(self) -> Span | None:
        return _CURRENT.get(None)

    def new_trace_id(self) -> str:
        return f"{self._trace_prefix}-{next(self._trace_counter):08x}"

    def activate(self, span: Span):
        """Install ``span`` as the current scope; returns a reset token."""
        return _CURRENT.set(span)

    def deactivate(self, token) -> None:
        _CURRENT.reset(token)

    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        category: str = "",
        parent: Span | None = None,
        trace_id: str | None = None,
        t0: float | None = None,
        **attrs: Any,
    ) -> WallSpan:
        """Open a wall-clock span.

        ``trace_id`` pins the trace explicitly (propagated requests);
        otherwise the parent's trace is inherited, and a parentless span
        opens a fresh trace.  ``t0`` backdates the start (the live server
        stamps request arrival before it knows the operation name).
        """
        if parent is None:
            parent = _CURRENT.get(None)
        if trace_id is None:
            trace_id = (
                getattr(parent, "trace_id", None) if parent is not None else None
            ) or self.new_trace_id()
        start = self._clock() if t0 is None else t0
        with self._lock:
            span = WallSpan(
                span_id=self._next_id,
                parent_id=parent.span_id if parent is not None else None,
                name=name,
                category=category,
                t0=start,
                attrs=attrs,
                trace_id=trace_id,
            )
            self._next_id += 1
            self.spans.append(span)
        return span

    def annotate(self, **attrs: Any) -> None:
        span = _CURRENT.get(None)
        if span is not None:
            span.attrs.update(attrs)

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self._next_id = 1

    # ------------------------------------------------------------------
    # per-request attribution
    # ------------------------------------------------------------------
    def push_attribution(self, sink: dict[str, float]):
        """Install ``sink`` as the current request's charge accumulator."""
        return _SINK.set(sink)

    def pop_attribution(self, token) -> None:
        _SINK.reset(token)

    def charge(self, category: str, dt: float) -> None:
        """Add ``dt`` seconds of ``category`` to the active sink (if any)."""
        sink = _SINK.get(None)
        if sink is not None:
            sink[category] = sink.get(category, 0.0) + dt

    @staticmethod
    def wait_category(event: Any) -> str:
        """Classify what a flow waited on into an attribution category."""
        tag = getattr(event, "charge", None)
        if tag:
            return tag
        if getattr(event, "delay", None) is not None:  # timeouts
            return "queue_wait"
        if getattr(event, "events", None) is not None:  # condition events
            return "fanout_wait"
        return "event_wait"

    # ------------------------------------------------------------------
    def traced(
        self,
        name: str,
        gen: Generator,
        category: str = "",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Generator:
        """Drive ``gen`` under a span, charging each wait it performs.

        Scope save/restore uses the contextvar, so interleaved flows on
        the loop thread and spans opened from other threads both see the
        right parent.  Wait charging claims the yielded item for the
        duration of the resume call-stack, so nested ``traced`` wrappers
        (outer flow ``yield from`` an inner traced flow) charge each wait
        exactly once — the outermost wrapper wins.
        """
        span: Span | None = None
        waited_on: Any = None
        wait_t0 = 0.0
        try:
            to_send: Any = None
            to_throw: BaseException | None = None
            while True:
                if waited_on is not None and waited_on is not self._charge_claimed:
                    self.charge(self.wait_category(waited_on), self._clock() - wait_t0)
                if span is None:
                    span = self.begin(name, category=category, parent=parent, **attrs)
                token = _CURRENT.set(span)
                claim = self._charge_claimed
                self._charge_claimed = waited_on
                try:
                    if to_throw is not None:
                        exc, to_throw = to_throw, None
                        item = gen.throw(exc)
                    else:
                        item = gen.send(to_send)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._charge_claimed = claim
                    _CURRENT.reset(token)
                if getattr(item, "processed", False):
                    # Complete already: the engine resumes the flow in
                    # place, there is no wait to time.
                    waited_on = None
                else:
                    waited_on = item
                    wait_t0 = self._clock()
                try:
                    to_send = yield item
                except BaseException as exc:  # forwarded into the flow
                    to_throw = exc
        finally:
            if span is not None and span.t1 is None:
                self.end(span)

    # The wait-claim: when an outer traced wrapper resumes, it charges
    # the wait and claims the item for the duration of the nested send()
    # call-stack, so an inner wrapper resuming on the same item skips the
    # (identical) charge.  Only touched on the thread driving the flow,
    # between yields, so no lock is needed.
    _charge_claimed: Any = None
