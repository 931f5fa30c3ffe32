"""A deterministic discrete-event simulation core.

Processes are Python generators that ``yield`` events; the simulator resumes
a process when its awaited event fires.  The design follows SimPy's
vocabulary (``Event`` / ``Timeout`` / ``Process`` / ``Interrupt`` / condition
events) but is implemented from scratch and kept small enough to reason
about: one binary heap, one sequence counter for total ordering, no wall
clock anywhere.

Determinism contract
--------------------
Given the same initial processes and the same RNG streams, every run
produces the identical event order: ties in time are broken by a
monotonically increasing sequence number, never by object identity or
insertion hashing.  Tests assert on this property.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Generator, Iterable

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "ConditionEvent",
    "AnyOf",
    "AllOf",
]

_PENDING = object()


class Interrupt(Exception):
    """Thrown into a process that another process interrupts.

    ``cause`` carries arbitrary context (e.g. the failure event that killed
    a staging server mid-request).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* once (``succeed`` or ``fail``) and then has its
    callbacks run at the simulation time of triggering.  Waiting on an
    already-processed event resumes the waiter immediately (same timestamp,
    later sequence number).

    ``charge`` is the latency-attribution tag read by the wall-clock
    tracer: it names the category a flow's wait on this event is charged
    to ("lock_wait", "transfer", "codec", ...).  None means "classify by
    event type".

    The event classes are slotted: a put creates a few dozen of them, and
    a slot store is what each field costs.  ``__weakref__`` stays because
    the live engine tracks its processes in a ``WeakSet``.
    """

    __slots__ = ("sim", "callbacks", "_value", "ok", "_scheduled", "charge", "__weakref__")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self.ok: bool | None = None
        self._scheduled = False
        self.charge: str | None = None

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        self.ok = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _PENDING:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.ok = False
        self._value = exception
        self.sim._schedule_event(self)
        return self

    # ------------------------------------------------------------------
    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: schedule an immediate wake-up.
            self.sim._schedule_callback(partial(cb, self))
        else:
            self.callbacks.append(cb)

    def _remove_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.callbacks is not None and cb in self.callbacks:
            self.callbacks.remove(cb)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            last = callbacks.pop()
            if callbacks:  # siblings left to wake: nothing these trigger "runs next"
                self.sim._siblings = True
                for cb in callbacks:
                    cb(self)
                self.sim._siblings = False
            last(self)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which ``delay < 0`` lets through
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(sim)
        self.delay = delay = float(delay)
        self.ok = True
        self._value = value
        sim._schedule_event(self, delay)


class Process(Event):
    """A running generator coroutine; also an event that fires on completion.

    Yield protocol inside the generator:

    - ``yield event`` — suspend until the event fires; the ``yield``
      expression evaluates to the event's value (or raises its exception).
    - ``return value`` — completes the process; waiters receive ``value``.

    ``interrupt(cause)`` throws :class:`Interrupt` into the generator at the
    current simulation time, detaching it from whatever it was waiting on.
    """

    __slots__ = ("gen", "name", "_target")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {type(gen)!r}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Event | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    # ------------------------------------------------------------------
    def _start(self) -> None:
        self._step(None, None)

    def _resume(self, event: Event) -> None:
        self._target = None
        if event.ok:
            self._step(event._value, None)
        else:
            self._step(None, event._value)

    def _step(self, value: Any, exc: BaseException | None) -> None:
        """Advance the generator: send ``value``, or throw ``exc`` if given."""
        try:
            target = self.gen.send(value) if exc is None else self.gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as intr:
            # An uncaught interrupt terminates the process "successfully
            # killed" — the normal fate of a failed staging server process.
            self.succeed(intr)
            return
        except BaseException as crash:  # propagate real errors to waiters
            if not self.callbacks and not self.triggered:
                # No one is waiting: surface the crash instead of hiding it.
                self.fail(crash)
                raise
            self.fail(crash)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; processes may only yield Events"
            )
        self._target = target
        callbacks = target.callbacks
        if callbacks is None:
            target._add_callback(self._resume)  # processed: immediate wake-up
        else:
            callbacks.append(self._resume)

    # ------------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            return  # interrupting a finished process is a no-op
        def do_interrupt() -> None:
            if self.triggered:
                return
            if self._target is not None:
                self._target._remove_callback(self._resume)
                self._target = None
            self._step(None, Interrupt(cause))
        self.sim._schedule_callback(do_interrupt)


class ConditionEvent(Event):
    """Fires when ``count`` of the given events have succeeded.

    The value is a dict mapping each fired event to its value.  If any child
    fails, the condition fails with that exception.
    """

    __slots__ = ("events", "_needed", "_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event], count: int):
        super().__init__(sim)
        self.events = list(events)
        if count > len(self.events):
            raise ValueError("count exceeds number of events")
        self._needed = count
        self._fired: dict[Event, Any] = {}
        if count == 0:
            self.succeed({})
            return
        for ev in self.events:
            ev._add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            self._detach()
            return
        self._fired[ev] = ev.value
        if len(self._fired) >= self._needed:
            self.succeed(dict(self._fired))
            self._detach()

    def _detach(self) -> None:
        """Drop ``_on_child`` from every child once the condition settles.

        Without this, non-winning children (e.g. a long-lived event an
        ``AnyOf`` raced against a timeout) keep the dead callback forever:
        repeated waits accumulate unbounded callbacks that all run — as
        no-ops — when the event finally fires.
        """
        for ev in self.events:
            ev._remove_callback(self._on_child)


def AnyOf(sim: "Simulator", events: Iterable[Event]) -> ConditionEvent:
    """Condition that fires when any one of ``events`` succeeds."""
    evs = list(events)
    return ConditionEvent(sim, evs, count=min(1, len(evs)))


def AllOf(sim: "Simulator", events: Iterable[Event]) -> ConditionEvent:
    """Condition that fires when all of ``events`` have succeeded."""
    evs = list(events)
    return ConditionEvent(sim, evs, count=len(evs))


class Simulator:
    """The event loop: a time-ordered heap of (time, seq, action) entries."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._running = False
        # What, besides the heap, decides what runs next (runs_next / skip).
        self._stop_event: Event | None = None
        self._horizon = float("inf")
        self._siblings = False

    # ------------------------------------------------------------------
    # scheduling primitives (internal)
    # ------------------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        # Each event is scheduled exactly once: Timeouts at construction,
        # all other events via succeed()/fail() (which reject re-triggering).
        if event._scheduled:
            raise RuntimeError("event scheduled twice")
        event._scheduled = True
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, event._process))

    def _schedule_callback(self, cb: Callable[[], None], delay: float = 0.0) -> None:
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, cb))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event (manual trigger)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a process; returns its completion event."""
        proc = Process(self, gen, name=name)
        self._schedule_callback(proc._start)
        return proc

    def gather(self, flows: Iterable[Generator]) -> ConditionEvent:
        """Start ``flows`` as processes (``.events``); fires when all are done."""
        return AllOf(self, [self.process(flow) for flow in flows])

    def runs_next(self) -> bool:
        """Would an event triggered now, waited on by its trigger alone, run next?

        True only when nothing else is due at ``now``: the heap is empty or
        its top is *strictly* later (an entry at ``now`` has the smaller
        sequence number and goes first), the event being processed has no
        other waiter left to wake, and this ``run()`` has not met its
        ``until`` event.  Then pushing the event and yielding on it hands
        control straight back, so not pushing it reorders nothing.
        """
        heap, stop = self._heap, self._stop_event
        return (
            (not heap or heap[0][0] > self.now)
            and not self._siblings
            and (stop is None or stop.callbacks is not None)
        )

    def skip(self, delay: float) -> bool:
        """Advance to ``now + delay`` if a ``timeout(delay)`` would run next.

        An invalid delay is a "no": the timeout spelled out raises for it.
        """
        t = self.now + delay  # the sum the timeout's push would make
        heap = self._heap
        if not delay >= 0 or (heap and heap[0][0] <= t) or t > self._horizon:
            return False
        if not self.runs_next():
            return False
        self.now = t
        return True

    def run(self, until: float | Event | None = None, max_events: int | None = None) -> Any:
        """Run until the heap drains, time ``until``, or event ``until``.

        Returns the event's value when ``until`` is an event.
        ``max_events`` is a runaway guard: exceeding it raises
        RuntimeError instead of spinning forever on a livelocked model.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        if isinstance(until, Event):
            stop_event, horizon = until, float("inf")
        else:
            stop_event, horizon = None, float("inf") if until is None else float(until)
        self._stop_event, self._horizon = stop_event, horizon
        limit = float("inf") if max_events is None else max_events
        heap, pop = self._heap, heapq.heappop
        executed = 0
        try:
            while True:
                if stop_event is not None:
                    if stop_event.callbacks is None:  # processed
                        break
                    if not heap:
                        raise RuntimeError(
                            "simulation starved: awaited event can never fire"
                        )
                elif not heap or heap[0][0] > horizon:
                    break
                executed += 1
                if executed > limit:
                    raise RuntimeError(
                        f"simulation exceeded max_events={max_events}; "
                        "likely a livelock (zero-delay loop) in the model"
                    )
                t, _seq, action = pop(heap)
                if t < self.now:  # pragma: no cover - delays are validated >= 0
                    raise RuntimeError("time went backwards")
                self.now = t
                action()
            if stop_event is not None:
                if stop_event.ok:
                    return stop_event._value
                raise stop_event._value
            if until is not None and self.now < horizon:
                self.now = horizon
            return None
        finally:
            self._running = False
            self._stop_event, self._horizon, self._siblings = None, float("inf"), False

    def peek(self) -> float:
        """Time of the next scheduled action (inf if none)."""
        return self._heap[0][0] if self._heap else float("inf")
