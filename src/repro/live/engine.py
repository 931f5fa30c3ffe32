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
- Modeled delays are scaled by ``time_scale`` (default ``0.0``: cost-model
  timeouts fire immediately, so the engine runs as fast as the hardware
  allows; a nonzero scale re-introduces modeled pacing for experiments).
- A flow runs until it really blocks.  A booking that needs no wait takes
  no event at all (``runs_next`` / ``skip`` answer from the ``soon_batch``
  budget); an event triggered with no waiter and no wall time to spend is
  *ready*, complete at once, and a process that yields a complete event
  is resumed in the same call.  A request's flows take their first step
  in their starter's frame (``gather``, ``run_process``), and
  ``run_process`` returns the value directly when the flow ran to
  completion and nothing is pending.  The deferred path — microqueue or
  timer — is what runs when an event has waiters or a positive scaled
  delay, for detached process starts (background work must not re-enter
  the policy code that spawns it), interrupts and offload completions.
  The budget is refilled only by a loop callback of the engine's own, so
  a handler that never awaits still yields to the selector once per
  ``soon_batch`` units.
- ``offload(fn)`` runs host-side numeric work (GF(2^8) encode/decode
  batches) on a :class:`~concurrent.futures.ThreadPoolExecutor` and
  returns an :class:`~repro.sim.engine.Event` that fires on the loop when
  the work completes; ``inline(fn)`` runs it on the loop and returns a
  ready event.  :meth:`StagingRuntime.compute` yields on one or the other
  in live mode, by size (see :mod:`repro.live.service`).
- ``quiesce()`` awaits full drain (no scheduled actions, no in-flight
  offloads) — the live analogue of ``Simulator.run()`` running the heap
  dry — and re-raises any exception a detached background process died
  with instead of letting it vanish into the loop's exception handler.

Thread discipline: every engine method must be called on the loop thread
(offload completion callbacks are marshalled back onto it), so all
scheduler and directory state stays single-threaded exactly like the
simulator; only the numeric payload work inside ``offload`` runs on
worker threads.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import os
import threading
import time
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Generator, Iterable

from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import AllOf, ConditionEvent, Event, Process, Timeout

__all__ = ["LiveEngine", "LiveProcessError"]


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

    def __init__(
        self,
        time_scale: float = 0.0,
        max_workers: int | None = None,
    ):
        self.loop = asyncio.get_running_loop()
        self.time_scale = float(time_scale)
        self._t0 = time.monotonic()
        # Scheduled-but-not-yet-executed actions (microqueue + timers) and
        # in-flight offloads; quiescence is both counters at zero.
        self._pending = 0
        self._offloads = 0
        # Zero-delay actions drain through one FIFO microqueue per loop
        # callback instead of one call_soon (and one selector round) each:
        # a put chains ~15 zero-delay events, and per-event loop iterations
        # were the dominant cost of the whole request path.  The batch cap
        # bounds how long the drain keeps the loop from its selector, so
        # socket I/O stays responsive under load.  Entries are
        # ``(action, context)``; the context is None with tracing off and
        # a per-action contextvars snapshot with tracing on, so the
        # wall-clock tracer's request scope survives the shared drain
        # callback (``call_later``/``add_done_callback`` capture context
        # natively, the batched microqueue must do it by hand).
        self._soon: deque[tuple[Callable[[], None], contextvars.Context | None]] = deque()
        self._drain_scheduled = False
        self.soon_batch = 128
        # What is left of ``soon_batch`` in the loop callback now running:
        # one unit per microqueue action and per inline resume.
        self._budget = self.soon_batch
        # The boundary this engine moves work across, as monotonic counts:
        # events complete at their trigger vs. actions deferred to the
        # microqueue or a timer; compute run on the loop vs. on a worker.
        self.events_ready = 0
        self.actions_scheduled = 0
        self.offloads_inlined = 0
        self.offloads_submitted = 0
        self._timer_deadlines: dict[int, float] = {}
        self._timer_seq = 0
        self._quiesce_waiters: list[asyncio.Future] = []
        self.errors: list[BaseException] = []
        self._processes: weakref.WeakSet[Process] = weakref.WeakSet()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-live"
        )
        # Separate pool for *leaf* codec tasks (column splits of one kernel
        # pass).  Offloaded passes run on ``_executor`` workers and fan
        # their splits out here; keeping the pools distinct means a pass
        # can never deadlock waiting for splits behind other whole passes.
        self.codec_workers = min(8, (os.cpu_count() or 1))
        self._codec_executor = ThreadPoolExecutor(
            max_workers=self.codec_workers, thread_name_prefix="repro-codec"
        )
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

    def _new_process(self, gen: Generator, name: str) -> Process:
        name = name or getattr(gen, "__name__", "process")
        proc = Process(self, self._run_to_block(gen), name=name)
        self._processes.add(proc)
        return proc

    def process(self, gen: Generator, name: str = "") -> Process:
        proc = self._new_process(gen, name)
        self._schedule_callback(proc._start)
        return proc

    def _step_in(self, gen: Generator, name: str = "") -> Process:
        """Start ``gen`` as a process whose first step runs here, in this frame.

        A crash in that step is the process's failure value, raised by
        whoever joins it; it is not raised into the spawner.
        """
        proc = self._new_process(gen, name)
        try:
            proc._start()
        except BaseException:
            if proc.ok is not False:
                raise
        return proc

    def gather(self, flows: Iterable[Generator]) -> ConditionEvent:
        """Step each flow in place; an already-complete join if all finished."""
        procs = [self._step_in(flow) for flow in flows]
        if all(proc.ok and proc.callbacks is None for proc in procs):
            done = ConditionEvent(self, (), 0)  # succeeds at once: ready
            done.events = procs
            return done
        return AllOf(self, procs)

    def runs_next(self) -> bool:
        """Spend one unit of the callback's budget on a booking taken in place."""
        if self._budget <= 0:
            return False
        self._budget -= 1
        self.events_ready += 1
        return True

    def skip(self, delay: float) -> bool:
        return delay >= 0 and delay * self.time_scale <= 0.0 and self.runs_next()

    def _run_to_block(self, gen: Generator) -> Generator:
        """Drive ``gen``, resuming it in place on every complete event it yields.

        Only an event that is still pending — or any event once the
        callback's ``soon_batch`` budget is spent — is yielded on to the
        :class:`Process`, which waits on it through the deferred path.
        """
        send, throw = gen.send, gen.throw
        value: Any = None
        exc: BaseException | None = None
        while True:
            try:
                target = send(value) if exc is None else throw(exc)
            except StopIteration as stop:
                return stop.value
            if getattr(target, "processed", False) and self._budget > 0:
                self._budget -= 1
                if target.ok:
                    value, exc = target.value, None
                else:
                    value, exc = None, target.value
                continue
            try:
                value, exc = (yield target), None
            except BaseException as thrown:  # failed event or Interrupt
                value, exc = None, thrown

    def peek(self) -> float:
        """Time of the next scheduled action (inf when fully drained).

        In-flight offloads count as imminent work: their completion event
        is scheduled the moment the worker finishes.
        """
        soon = self._pending - len(self._timer_deadlines)
        if soon > 0 or self._offloads > 0:
            return self.now
        if self._timer_deadlines:
            return min(self._timer_deadlines.values())
        return float("inf")

    # ------------------------------------------------------------------
    # scheduling primitives (the contract the sim's Event classes use)
    # ------------------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            raise RuntimeError("event scheduled twice")
        event._scheduled = True
        if not event.callbacks and delay * self.time_scale <= 0.0:
            # Ready: nobody to wake and no wall time to spend.
            event._process()
            self.events_ready += 1
            return
        self._schedule_action(delay, event._process)

    def _schedule_callback(self, cb: Callable[[], None], delay: float = 0.0) -> None:
        self._schedule_action(delay, cb)

    def _schedule_action(self, delay: float, action: Callable[[], None]) -> None:
        self._pending += 1
        self.actions_scheduled += 1
        wall = delay * self.time_scale
        if wall <= 0.0:
            # FIFO at zero delay, matching the simulator's same-timestamp
            # sequence-number ordering.
            ctx = contextvars.copy_context() if self.tracer.enabled else None
            self._soon.append((action, ctx))
            if not self._drain_scheduled:
                self._drain_scheduled = True
                self.loop.call_soon(self._drain_soon)
        else:
            self._timer_seq += 1
            key = self._timer_seq
            self._timer_deadlines[key] = self.now + wall
            self.loop.call_later(wall, self._run_action, action, key)

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

    def _run_action(self, action: Callable[[], None], timer_key: int | None) -> None:
        if timer_key is not None:
            self._timer_deadlines.pop(timer_key, None)
        self._budget = self.soon_batch
        try:
            action()
        except BaseException as exc:  # detached process crash: keep, re-raise at drain
            self.errors.append(exc)
        finally:
            self._pending -= 1
            self._notify_if_drained()

    def _notify_if_drained(self) -> None:
        if self._pending == 0 and self._offloads == 0 and self._quiesce_waiters:
            waiters, self._quiesce_waiters = self._quiesce_waiters, []
            for fut in waiters:
                if not fut.done():
                    fut.set_result(None)

    # ------------------------------------------------------------------
    # live-only surface
    # ------------------------------------------------------------------
    def offload(self, fn: Callable[[], Any], charge: str = "offload") -> Event:
        """Run ``fn`` on a worker thread; the returned event fires on the loop.

        ``charge`` names the attribution bucket the caller's wait on the
        returned event is charged to, and the category of the worker-side
        span when tracing is on.
        """
        if self._closed:
            raise RuntimeError("offload on a closed LiveEngine")
        ev = Event(self)
        if self.tracer.enabled:
            ev.charge = charge
            # Snapshot the caller's context so the worker-side span lands
            # under the flow span that requested the offload.
            ctx = contextvars.copy_context()
            work = fn

            def _traced_work():
                with self._compute_span(
                    f"offload.{charge}", charge, thread=threading.get_ident()
                ):
                    return work()

            fn = lambda: ctx.run(_traced_work)  # noqa: E731
        self._offloads += 1
        self.offloads_submitted += 1
        fut = self.loop.run_in_executor(self._executor, fn)

        def _done(f: asyncio.Future) -> None:
            self._offloads -= 1
            exc = f.exception()
            if exc is not None:
                ev.fail(exc)
            else:
                ev.succeed(f.result())

        fut.add_done_callback(_done)
        return ev

    def inline(self, fn: Callable[[], Any], charge: str = "offload") -> Event:
        """Run ``fn`` here, on the loop; the returned event is already complete.

        For work cheaper than the hop to a worker.  With tracing on the
        work still gets a span of category ``charge`` under the requesting
        flow, and its time is charged to the request's ``charge`` bucket —
        the flow never waits, so nothing else would book it.
        """
        self.offloads_inlined += 1
        if not self.tracer.enabled:
            return Event(self).succeed(fn())
        try:
            with self._compute_span(f"inline.{charge}", charge) as span:
                result = fn()
        finally:
            self.tracer.charge(charge, span.duration)
        return Event(self).succeed(result)

    @contextlib.contextmanager
    def _compute_span(self, name: str, charge: str, **attrs: Any):
        """A span of category ``charge`` around host compute, current while it runs."""
        tracer = self.tracer
        span = tracer.begin(name, category=charge, **attrs)
        token = tracer.activate(span)
        try:
            yield span
        except BaseException as exc:
            span.set(error=repr(exc))
            raise
        finally:
            tracer.deactivate(token)
            tracer.end(span)

    def codec_map(self, tasks: list[Callable[[], None]]) -> None:
        """Run one kernel pass's column-split tasks across the codec pool.

        This is the :attr:`RSCode.parallel_map` hook for live deployments:
        the codec layer hands over independent closures (each writing a
        disjoint byte range), and they execute concurrently — the native
        GF kernel releases the GIL for the duration of the C call, so the
        splits genuinely overlap.  The first task runs inline on the
        calling thread (usually an ``offload`` worker): only *leaf* tasks
        ever enter the codec pool, so nested submission deadlock is
        impossible, and a single-task pass costs no handoff at all.
        Exceptions propagate to the caller after every task has finished
        (no split is left half-written when a sibling fails).
        """
        tracer = self.tracer
        pass_span = None
        if tracer.enabled:
            # One pass span + one span per column-split task.  The task
            # spans carry explicit parents because codec-pool threads have
            # no inherited context, and close on the exception path too, so
            # a poisoned split never leaves an open span in the export.
            pass_span = tracer.begin(
                "codec.pass", category="codec", parent=tracer.current, tasks=len(tasks)
            )

            def run_task(index: int, task: Callable[[], None]) -> None:
                span = tracer.begin(
                    "codec.task",
                    category="codec",
                    parent=pass_span,
                    index=index,
                    thread=threading.get_ident(),
                )
                try:
                    task()
                except BaseException as exc:
                    span.set(error=repr(exc))
                    raise
                finally:
                    tracer.end(span)

            tasks = [
                lambda i=i, task=task: run_task(i, task) for i, task in enumerate(tasks)
            ]
        try:
            if len(tasks) <= 1 or self._closed:
                for task in tasks:
                    task()
                return
            futs = [self._codec_executor.submit(task) for task in tasks[1:]]
            first_exc: BaseException | None = None
            try:
                tasks[0]()
            except BaseException as exc:
                first_exc = exc
            for fut in futs:
                try:
                    fut.result()
                except BaseException as exc:
                    if first_exc is None:
                        first_exc = exc
            if first_exc is not None:
                raise first_exc
        except BaseException as exc:
            if pass_span is not None:
                pass_span.set(error=repr(exc))
            raise
        finally:
            if pass_span is not None:
                tracer.end(pass_span)

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
        """Step ``gen`` in place as a process and return its completion value.

        Directly — no future, no loop iteration — only when it ran to
        completion *and* nothing is pending: a background process it
        spawned is in the microqueue, and must take its first step before
        the caller hears the ack, as it does when the ack queues behind it.
        """
        proc = self._step_in(gen, name)
        if proc.callbacks is None and not self._pending and self.runs_next():
            if proc.ok:
                return proc._value
            raise proc._value
        return await self.wait(proc)

    async def quiesce(self, settle_rounds: int = 2) -> None:
        """Await full drain of scheduled work and offloads.

        ``settle_rounds`` extra no-op loop passes absorb completions that
        land exactly at the drain edge (an offload finishing between the
        counter check and the waiter registration).  Raises
        :class:`LiveProcessError` if any detached process crashed since
        the previous drain.
        """
        while True:
            if self._pending == 0 and self._offloads == 0:
                settled = True
                for _ in range(settle_rounds):
                    await asyncio.sleep(0)
                    if self._pending or self._offloads:
                        settled = False
                        break
                if settled:
                    break
            else:
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

    @property
    def pool_queue_depth(self) -> int:
        """Offload work items queued behind busy worker threads."""
        return self._executor._work_queue.qsize()

    @property
    def codec_queue_depth(self) -> int:
        """Column-split tasks queued behind busy codec-pool threads."""
        return self._codec_executor._work_queue.qsize()

    @property
    def offloads_inflight(self) -> int:
        return self._offloads

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
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._codec_executor.shutdown(wait=True, cancel_futures=True)
