"""Hierarchical spans on one clock: simulated time or the wall clock.

A :class:`Span` is one named interval with a parent link, a category
(matching the execution-breakdown categories where it instruments a cost
charge) and free-form attributes.  The :class:`Tracer` assigns span ids in
execution order, so a deterministic simulation run produces a
deterministic trace.  The simulator's tracer reads ``sim.now``;
:class:`~repro.obs.wallclock.WallClockTracer` is the same tracer on
``time.monotonic_ns``, with trace ids and per-request attribution.

Parent attribution across interleaved flows
-------------------------------------------
Flows are generators that suspend at every ``yield``; a naive "current
span" global would leak spans between concurrently interleaved flows.
:meth:`Tracer.traced` solves this by *driving* the wrapped generator: the
wrapped flow's span is installed as the current span only while the flow's
own code is executing, and restored at every suspension point.  Nested
``traced`` wrappers therefore maintain a correct dynamic span stack per
logical flow, with zero simulator events added — traced and untraced runs
execute the identical event sequence.  The scope is a per-tracer
:mod:`contextvars` variable, so it stays right across asyncio tasks and
threads too (:meth:`Tracer.activate` installs a span for a whole request).

Wait charging
-------------
:meth:`Tracer.traced` also times every wait a flow performs and hands it
to :meth:`Tracer.charge`, classified by what the flow yielded on
(:meth:`Tracer.wait_category`).  ``charge`` adds to the attribution sink
pushed for the current request
(:meth:`~repro.obs.wallclock.WallClockTracer.push_attribution`); with none
pushed — always, on the simulator — it does nothing.  An event that is
already complete when the flow yields it is no wait (the engine resumes
the flow in place) and is not timed.  Waits are charged exactly once even
when traced flows nest: the outermost wrapper claims the item for the
duration of the resume call-stack.

Zero overhead by default
------------------------
Instrumentation points hold a tracer reference that defaults to
:data:`NULL_TRACER`.  Its ``traced`` returns the wrapped generator
unchanged (not even a generator frame is added), ``begin`` returns the
shared no-op :data:`NULL_SPAN`, and hot paths guard attribute-dict
construction with ``tracer.enabled``.
"""

from __future__ import annotations

import contextvars
from typing import Any, Callable, Generator, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "NULL_SPAN"]


class Span:
    """One named interval in the span tree.

    ``trace_id`` is set by the wall-clock tracer only; an exported row
    carries ``trace_id`` and ``clock`` exactly when it is set, so
    simulator rows keep their shape.
    """

    __slots__ = ("span_id", "parent_id", "name", "category", "t0", "t1", "attrs", "trace_id")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        category: str,
        t0: float,
        attrs: dict[str, Any],
        trace_id: str | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.t0 = t0
        self.t1: float | None = None  # None while the span is open
        self.attrs = attrs
        self.trace_id = trace_id

    @property
    def duration(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        row = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "t0": self.t0,
            "t1": self.t1 if self.t1 is not None else self.t0,
            "attrs": self.attrs,
        }
        if self.trace_id is not None:
            row["trace_id"] = self.trace_id
            row["clock"] = "wall"
        return row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Span {self.span_id} {self.name!r} [{self.t0:.6g}, "
            f"{self.t1 if self.t1 is not None else '...'}]>"
        )


class _NullSpan:
    """Shared do-nothing span handed out by the null tracer."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = ""
    category = ""
    t0 = 0.0
    t1 = 0.0
    duration = 0.0
    trace_id = None
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def to_dict(self) -> dict[str, Any]:  # pragma: no cover - never exported
        return {}


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a span tree stamped by ``clock`` (the simulator's ``now``)."""

    enabled = True

    #: The current request's attribution sink (one per context, shared by
    #: every tracer; only a wall-clock tracer pushes one).
    _sink: contextvars.ContextVar = contextvars.ContextVar("repro_attribution_sink")

    # The wait-claim: when an outer traced wrapper resumes, it charges
    # the wait and claims the item for the duration of the nested send()
    # call-stack, so an inner wrapper resuming on the same item skips the
    # (identical) charge.  Only touched on the thread driving the flow,
    # between yields, so no lock is needed.
    _charge_claimed: Any = None

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock
        self._next_id = 1
        self._scope: contextvars.ContextVar = contextvars.ContextVar(
            f"repro_span_scope_{id(self):x}"
        )
        self.spans: list[Span] = []  # in start order (== span_id order)

    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The span whose flow is executing right now (None at top level)."""
        return self._scope.get(None)

    def activate(self, span: Span) -> contextvars.Token:
        """Install ``span`` as the current scope; returns a reset token."""
        return self._scope.set(span)

    def deactivate(self, token: contextvars.Token) -> None:
        self._scope.reset(token)

    def begin(
        self,
        name: str,
        category: str = "",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; parent defaults to the current dynamic scope."""
        if parent is None:
            parent = self._scope.get(None)
        return self._open(name, category, parent, self._clock(), attrs, None)

    def _open(self, name, category, parent, t0, attrs, trace_id) -> Span:
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            name, category, t0, attrs, trace_id,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> Span:
        """Close a span at the current clock reading."""
        span.t1 = self._clock()
        if attrs:
            span.attrs.update(attrs)
        return span

    def instant(self, name: str, category: str = "", **attrs: Any) -> Span:
        """A zero-duration marker span (failure detection, get.locate...)."""
        span = self.begin(name, category=category, **attrs)
        span.t1 = span.t0
        return span

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the current span (no-op at top level)."""
        span = self._scope.get(None)
        if span is not None:
            span.attrs.update(attrs)

    # ------------------------------------------------------------------
    def charge(self, category: str, dt: float) -> None:
        """Add ``dt`` seconds of ``category`` to the active sink (if any)."""
        sink = self._sink.get(None)
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

    def traced(
        self,
        name: str,
        gen: Generator,
        category: str = "",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Generator:
        """Drive ``gen`` under a span, charging each wait it performs.

        The span is the tracer's current scope only while ``gen``'s own
        code runs; the previous scope is restored at every suspension, so
        concurrent flows never observe each other's spans.  ``parent`` pins
        the parent span explicitly (needed when the flow is handed to
        ``sim.process`` and starts outside the creator's dynamic scope); by
        default the parent is the scope at first resume.  The span closes
        when the flow completes, errors, or is closed by its engine.
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
                token = self._scope.set(span)
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
                    self._scope.reset(token)
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

    # ------------------------------------------------------------------
    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def iter_tree(self, root: Span) -> Iterator[Span]:
        """Depth-first iteration over ``root`` and its descendants."""
        yield root
        for child in self.children(root):
            yield from self.iter_tree(child)

    def clear(self) -> None:
        self.spans.clear()
        self._next_id = 1


class NullTracer:
    """Tracing disabled: every instrumentation point is a no-op.

    ``traced`` returns the wrapped generator *unchanged* — no wrapper
    frame, no span, no behaviour difference — so instrumented flows run
    exactly as they did before tracing existed.
    """

    enabled = False
    spans: list[Span] = []
    current: Span | None = None

    def begin(self, name: str, category: str = "", parent=None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def end(self, span, **attrs: Any):
        return span

    def instant(self, name: str, category: str = "", **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def annotate(self, **attrs: Any) -> None:
        return None

    def traced(self, name, gen: Generator, category: str = "", parent=None, **attrs) -> Generator:
        return gen

    def roots(self) -> list[Span]:
        return []

    def children(self, span) -> list[Span]:
        return []

    def find(self, name: str) -> list[Span]:
        return []

    def clear(self) -> None:
        return None


NULL_TRACER = NullTracer()
