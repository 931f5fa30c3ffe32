"""Wall-clock scheduling engine: the live backend's :class:`~repro.core.backend.Clock`.

The simulator's generator-process model (:mod:`repro.sim.engine`) touches
its scheduler through exactly three primitives — ``event()``,
``_schedule_event(event, delay)`` and ``_schedule_callback(cb, delay)`` —
plus ``now``.  :class:`LiveEngine` implements those primitives on top of a
running asyncio event loop, so the *same* ``Event`` / ``Timeout`` /
``Process`` / condition classes and the same ``Resource`` locks drive every
staging flow (replication, stripe formation, parity maintenance, recovery)
under real concurrency, with no second copy of the mechanics.

Key differences from the simulator:

- ``now`` is the wall clock (monotonic seconds since engine start).
- Modeled delays take no wall time: a cost-model timeout is due at once,
  so the engine runs the code as fast as the hardware allows.
- A flow runs until it really blocks.  A booking that needs no wait takes
  no event at all (``runs_next`` / ``skip`` answer from the ``soon_batch``
  budget); an event triggered with no waiter is *ready*, complete at
  once, and a flow that yields a complete event is resumed in the same
  call.  A request's flows run in their starter's frame (``gather``,
  ``run_process``) until they return or really block; only a flow that
  blocks, or raises, gets a :class:`Process`, which wraps its suspended
  generator (or its exception), and ``run_process`` returns the value
  directly when the flow returned and nothing is pending.  The deferred path — the
  microqueue — is what runs when an event has waiters, for detached
  process starts (background work must not re-enter the policy code that
  spawns it) and interrupts.
  The budget is refilled only by a loop callback of the engine's own, so
  a handler that never awaits still yields to the selector once per
  ``soon_batch`` units.
- ``inline(fn)`` runs host-side numeric work (payload digests, GF(2^8)
  kernel passes) on the loop and returns a ready event:
  :meth:`StagingRuntime.compute` yields on it in live mode.  A staging
  server is one process on one core; deployments scale by adding shard
  processes (:mod:`repro.live.cluster`), not threads inside one.
- ``quiesce()`` awaits full drain (no scheduled actions) — the live
  analogue of ``Simulator.run()`` running the heap dry — and re-raises
  any exception a detached background process died with instead of
  letting it vanish into the loop's exception handler.

Thread discipline: every engine method must be called on the loop thread,
so all scheduler and directory state stays single-threaded exactly like
the simulator.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
import weakref
from collections import deque
from typing import Any, Callable, Generator, Iterable

from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import AllOf, ConditionEvent, Event, Process, Timeout

__all__ = ["LiveEngine", "LiveProcessError"]


_UNSTARTED = object()


def _raising(exc: BaseException) -> Generator:
    """A process body that ends as its flow did: by raising ``exc``."""
    raise exc
    yield  # pragma: no cover - makes this a generator


class LiveProcessError(RuntimeError):
    """A detached background process crashed during a live run.

    Carries every exception collected since the last drain so a stress
    test failure shows all crashes, not just the first.
    """

    def __init__(self, errors: list[BaseException]):
        self.errors = list(errors)
        heads = ", ".join(f"{type(e).__name__}: {e}" for e in self.errors[:3])
        more = f" (+{len(self.errors) - 3} more)" if len(self.errors) > 3 else ""
        super().__init__(f"{len(self.errors)} live process(es) crashed: {heads}{more}")


class LiveEngine:
    """Asyncio-backed implementation of the :class:`repro.core.backend.Clock`."""

    def __init__(self):
        self.loop = asyncio.get_running_loop()
        self._t0 = time.monotonic()
        # Scheduled-but-not-yet-executed actions (the microqueue);
        # quiescence is this counter at zero.
        self._pending = 0
        # Zero-delay actions drain through one FIFO microqueue per loop
        # callback instead of one call_soon (and one selector round) each:
        # a put chains ~15 zero-delay events, and per-event loop iterations
        # were the dominant cost of the whole request path.  The batch cap
        # bounds how long the drain keeps the loop from its selector, so
        # socket I/O stays responsive under load.  Entries are
        # ``(action, context)``; the context is None with tracing off and
        # a per-action contextvars snapshot with tracing on, so the
        # wall-clock tracer's request scope survives the shared drain
        # callback (``add_done_callback`` captures context natively, the
        # batched microqueue must do it by hand).
        self._soon: deque[tuple[Callable[[], None], contextvars.Context | None]] = deque()
        self._drain_scheduled = False
        self.soon_batch = 128
        # What is left of ``soon_batch`` in the loop callback now running:
        # one unit per microqueue action and per inline resume.
        self._budget = self.soon_batch
        # The boundary this engine moves work across, as monotonic counts:
        # events complete at their trigger vs. actions deferred to the
        # microqueue; host compute calls (digests, kernel passes).
        self.events_ready = 0
        self.actions_scheduled = 0
        self.compute_calls = 0
        self._quiesce_waiters: list[asyncio.Future] = []
        self.errors: list[BaseException] = []
        self._processes: weakref.WeakSet[Process] = weakref.WeakSet()
        # Wall-clock observability (off by default; the live service
        # installs a WallClockTracer and starts the watchdog).
        self.tracer = NULL_TRACER
        self._watchdog_task: asyncio.Task | None = None
        self._watchdog_hist = None
        self.loop_lag_s = 0.0
        self.loop_lag_max_s = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        proc = Process(self, self._run_to_block(gen), name or getattr(gen, "__name__", "process"))
        self._processes.add(proc)
        self._schedule_callback(proc._start)
        return proc

    def _step_in(self, gen: Generator, name: str = "") -> tuple[Process | None, Any]:
        """Drive ``gen`` here, in this frame, until it returns or really blocks.

        ``(None, value)`` when it returned ``value``.  Otherwise a
        :class:`Process` takes the flow over — the generator where it
        blocked, or the exception that ended it — and decides its outcome
        as for any process.  A crash is the process's failure value,
        raised by whoever joins it; it is not raised into the spawner.
        """
        try:
            body = self._run_to_block(gen, self._advance(gen, None, None))
        except StopIteration as stop:
            return None, stop.value
        except BaseException as end:  # an Interrupt or a crash
            body = _raising(end)
        proc = Process(self, body, name or getattr(gen, "__name__", "process"))
        self._processes.add(proc)
        try:
            proc._start()
        except BaseException:
            if proc.ok is not False:
                raise
        return proc, None

    def gather(self, flows: Iterable[Generator]) -> ConditionEvent:
        """Drive each flow in place; an already-complete join if all finished.

        ``events`` holds each flow's :class:`Process` if it needed one, else
        its ready completion event.
        """
        events = []
        for flow in flows:
            proc, value = self._step_in(flow)
            events.append(Event(self).succeed(value) if proc is None else proc)
        if all(ev.ok and ev.callbacks is None for ev in events):
            done = ConditionEvent(self, (), 0)  # succeeds at once: ready
            done.events = events
            return done
        return AllOf(self, events)

    def runs_next(self) -> bool:
        """Spend one unit of the callback's budget on a booking taken in place."""
        if self._budget <= 0:
            return False
        self._budget -= 1
        self.events_ready += 1
        return True

    def skip(self, delay: float) -> bool:
        return delay >= 0 and self.runs_next()

    def _advance(self, gen: Generator, value: Any, exc: BaseException | None) -> Any:
        """Resume ``gen`` in place through every complete event it yields.

        Returns the first target that blocks it: an event that is still
        pending, or any event once the callback's ``soon_batch`` budget is
        spent.  The flow's return (``StopIteration``) and its exceptions
        propagate.
        """
        send, throw = gen.send, gen.throw
        while True:
            target = send(value) if exc is None else throw(exc)
            if getattr(target, "processed", False) and self._budget > 0:
                self._budget -= 1
                if target.ok:
                    value, exc = target._value, None
                else:
                    value, exc = None, target._value
                continue
            return target

    def _run_to_block(self, gen: Generator, target: Any = _UNSTARTED) -> Generator:
        """A :class:`Process` body: ``gen``, resumed in place between real waits.

        Only what :meth:`_advance` stops at is yielded on to the process,
        which waits on it through the deferred path.  ``target``, when
        given, is what ``gen`` is already suspended on.
        """
        try:
            if target is _UNSTARTED:
                target = self._advance(gen, None, None)
            while True:
                try:
                    value, exc = (yield target), None
                except BaseException as thrown:  # failed event or Interrupt
                    value, exc = None, thrown
                target = self._advance(gen, value, exc)
        except StopIteration as stop:  # from ``_advance``: the flow returned
            return stop.value

    def peek(self) -> float:
        """Time of the next scheduled action (inf when fully drained)."""
        if self._pending > 0:
            return self.now
        return float("inf")

    # ------------------------------------------------------------------
    # scheduling primitives (the contract the sim's Event classes use)
    # ------------------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise RuntimeError("event scheduled twice")
        event._scheduled = True
        if not event.callbacks:
            # Ready: nobody to wake.
            event._process()
            self.events_ready += 1
            return
        self._schedule_callback(event._process)

    def _schedule_callback(self, cb: Callable[[], None], delay: float = 0.0) -> None:
        # FIFO, matching the simulator's same-timestamp sequence-number
        # ordering; a modeled delay takes no wall time.
        self._pending += 1
        self.actions_scheduled += 1
        ctx = contextvars.copy_context() if self.tracer.enabled else None
        self._soon.append((cb, ctx))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.loop.call_soon(self._drain_soon)

    def _drain_soon(self) -> None:
        """Run queued zero-delay actions FIFO, up to the batch cap."""
        self._budget = self.soon_batch
        queue = self._soon
        while queue and self._budget > 0:
            self._budget -= 1
            action, ctx = queue.popleft()
            try:
                if ctx is not None:
                    ctx.run(action)
                else:
                    action()
            except BaseException as exc:  # detached crash: re-raised at drain
                self.errors.append(exc)
            finally:
                self._pending -= 1
        if queue:
            self.loop.call_soon(self._drain_soon)  # yield to the selector first
        else:
            self._drain_scheduled = False
        self._notify_if_drained()

    def _notify_if_drained(self) -> None:
        if self._pending == 0 and self._quiesce_waiters:
            waiters, self._quiesce_waiters = self._quiesce_waiters, []
            for fut in waiters:
                if not fut.done():
                    fut.set_result(None)

    # ------------------------------------------------------------------
    # live-only surface
    # ------------------------------------------------------------------
    def inline(self, fn: Callable[[], Any], charge: str) -> Event:
        """Run ``fn`` here, on the loop; the returned event is already complete.

        With tracing on the work gets a span of category ``charge`` under
        the requesting flow, and its time is charged to the request's
        ``charge`` bucket — the flow never waits, so nothing else would
        book it.
        """
        self.compute_calls += 1
        tracer = self.tracer
        if not tracer.enabled:
            return Event(self).succeed(fn())
        span = tracer.begin(f"inline.{charge}", category=charge)
        token = tracer.activate(span)
        try:
            result = fn()
        except BaseException as exc:
            span.set(error=repr(exc))
            raise
        finally:
            tracer.deactivate(token)
            tracer.end(span)
            tracer.charge(charge, span.duration)
        return Event(self).succeed(result)

    def wait(self, event: Event) -> asyncio.Future:
        """Bridge a process-model event to an awaitable."""
        fut = self.loop.create_future()

        def _fire(ev: Event) -> None:
            if fut.done():
                return
            if ev.ok:
                fut.set_result(ev.value)
            else:
                fut.set_exception(ev.value)

        event._add_callback(_fire)
        return fut

    async def run_process(self, gen: Generator, name: str = "") -> Any:
        """Drive ``gen`` in place and return its completion value.

        Directly — no process, no future, no loop iteration — only when it
        ran to completion *and* nothing is pending: a background process it
        spawned is in the microqueue, and must take its first step before
        the caller hears the ack, so the outcome then queues behind it.  A
        flow that blocks, or raises, runs on as a :class:`Process`, and is
        awaited.
        """
        proc, value = self._step_in(gen, name)
        if proc is None:
            if not self._pending and self.runs_next():
                return value
            proc = Event(self).succeed(value)
        return await self.wait(proc)

    async def quiesce(self) -> None:
        """Await full drain of scheduled work.

        Raises :class:`LiveProcessError` if any detached process crashed
        since the previous drain.
        """
        while self._pending:
            fut = self.loop.create_future()
            self._quiesce_waiters.append(fut)
            await fut
        if self.errors:
            errors, self.errors = list(self.errors), []
            raise LiveProcessError(errors)

    # ------------------------------------------------------------------
    # observability surface
    # ------------------------------------------------------------------
    @property
    def microqueue_depth(self) -> int:
        """Zero-delay actions waiting in the drain queue."""
        return len(self._soon)

    def start_watchdog(self, interval: float = 0.05, histogram=None) -> None:
        """Start the event-loop lag sampler (idempotent).

        A background task sleeps ``interval`` and measures how late it
        wakes — the classic loop-lag probe: any callback (or GIL-holding
        kernel pass) that blocks the loop shows up as lag.  The latest and
        max readings are published as attributes (gauges read them); an
        optional registry ``histogram`` accumulates the distribution.
        The task never touches ``_pending``, so it does not keep
        ``quiesce()`` from draining.
        """
        if self._watchdog_task is not None or self._closed:
            return
        self._watchdog_hist = histogram

        async def _watch() -> None:
            while True:
                t0 = time.monotonic()
                await asyncio.sleep(interval)
                lag = max(0.0, time.monotonic() - t0 - interval)
                self.loop_lag_s = lag
                if lag > self.loop_lag_max_s:
                    self.loop_lag_max_s = lag
                if self._watchdog_hist is not None:
                    self._watchdog_hist.observe(lag)

        self._watchdog_task = self.loop.create_task(_watch())

    def stop_watchdog(self) -> None:
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            self._watchdog_task = None

    def alive_processes(self) -> list[Process]:
        """Processes started on this engine that have not completed.

        After a clean ``quiesce()`` this must be empty; anything left is
        deadlocked (waiting on an event nothing will ever fire)."""
        return [p for p in self._processes if p.is_alive]

    def run(self, until: Any = None) -> None:  # pragma: no cover - guard rail
        raise RuntimeError(
            "LiveEngine has no synchronous run(); await quiesce() or wait(event)"
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.stop_watchdog()
