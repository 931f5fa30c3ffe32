"""Unit tests for the asyncio-backed LiveEngine clock."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.live.engine import LiveEngine, LiveProcessError
from repro.sim.engine import AllOf, Interrupt
from repro.sim.resources import Resource


def run(coro):
    return asyncio.run(coro)


def test_timeout_fires_and_returns_value():
    async def main():
        eng = LiveEngine()
        try:
            def flow():
                got = yield eng.timeout(0.0, value="payload")
                return got

            assert await eng.run_process(flow()) == "payload"
        finally:
            eng.close()

    run(main())


def test_zero_delay_events_fire_in_fifo_order():
    async def main():
        eng = LiveEngine()
        try:
            order = []

            def flow(tag):
                yield eng.timeout(0.0)
                order.append(tag)

            procs = [eng.process(flow(i)) for i in range(8)]

            def barrier():
                yield AllOf(eng, procs)

            await eng.run_process(barrier())
            assert order == list(range(8))
        finally:
            eng.close()

    run(main())


def test_now_is_monotonic_wall_clock():
    async def main():
        eng = LiveEngine()
        try:
            t0 = eng.now
            await asyncio.sleep(0.02)
            assert eng.now >= t0 + 0.015
        finally:
            eng.close()

    run(main())


def test_time_scale_paces_timeouts():
    async def main():
        eng = LiveEngine(time_scale=1.0)
        try:
            def flow():
                yield eng.timeout(0.05)

            start = time.monotonic()
            await eng.run_process(flow())
            assert time.monotonic() - start >= 0.04
        finally:
            eng.close()

    run(main())


def test_offload_runs_off_the_loop_thread():
    async def main():
        eng = LiveEngine()
        try:
            loop_thread = threading.get_ident()

            def flow():
                worker = yield eng.offload(threading.get_ident)
                return worker

            worker_thread = await eng.run_process(flow())
            assert worker_thread != loop_thread
        finally:
            eng.close()

    run(main())


def test_offload_exception_propagates_into_process():
    async def main():
        eng = LiveEngine()
        try:
            def boom():
                raise ValueError("kernel exploded")

            def flow():
                try:
                    yield eng.offload(boom)
                except ValueError as exc:
                    return f"caught {exc}"
                return "not raised"

            assert await eng.run_process(flow()) == "caught kernel exploded"
        finally:
            eng.close()

    run(main())


def test_detached_crash_surfaces_at_quiesce():
    async def main():
        eng = LiveEngine()
        try:
            def crasher():
                yield eng.timeout(0.0)
                raise RuntimeError("background death")

            eng.process(crasher())  # detached: nobody awaits it
            with pytest.raises(LiveProcessError) as err:
                await eng.quiesce()
            assert "background death" in str(err.value)
            # Errors are consumed by the raise; the next drain is clean.
            await eng.quiesce()
        finally:
            eng.close()

    run(main())


def test_quiesce_waits_for_chained_background_work():
    async def main():
        eng = LiveEngine()
        try:
            hits = []

            def leaf(n):
                yield eng.timeout(0.0)
                hits.append(n)

            def spawner():
                yield eng.timeout(0.0)
                for n in range(3):
                    eng.process(leaf(n))

            eng.process(spawner())
            await eng.quiesce()
            assert sorted(hits) == [0, 1, 2]
            assert eng.alive_processes() == []
            assert eng.peek() == float("inf")
        finally:
            eng.close()

    run(main())


def test_alive_processes_reports_deadlocked_waiter():
    async def main():
        eng = LiveEngine()
        try:
            never = eng.event()

            def stuck():
                yield never  # nothing ever fires this

            eng.process(stuck())
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert len(eng.alive_processes()) == 1
        finally:
            eng.close()

    run(main())


def test_resources_serialize_on_live_engine():
    async def main():
        eng = LiveEngine()
        try:
            res = Resource(eng, capacity=1)
            active = []
            max_active = []

            def worker(n):
                req = res.request()
                yield req
                active.append(n)
                max_active.append(len(active))
                yield eng.timeout(0.0)
                active.remove(n)
                res.release(req)

            for n in range(5):
                eng.process(worker(n))
            await eng.quiesce()
            assert max(max_active) == 1  # capacity respected under the loop
        finally:
            eng.close()

    run(main())


def test_sync_run_is_rejected():
    async def main():
        eng = LiveEngine()
        try:
            with pytest.raises(RuntimeError):
                eng.run()
        finally:
            eng.close()

    run(main())


def test_offload_after_close_is_rejected():
    async def main():
        eng = LiveEngine()
        eng.close()
        with pytest.raises(RuntimeError):
            eng.offload(lambda: None)

    run(main())


# ----------------------------------------------------------------------
# ready events and run-to-block
# ----------------------------------------------------------------------
def with_engine(body, **kwargs):
    """Run ``body(engine)`` (a coroutine function) on a fresh engine."""

    async def main():
        eng = LiveEngine(**kwargs)
        try:
            return await body(eng)
        finally:
            eng.close()

    return run(main())


def test_nan_and_negative_timeouts_are_rejected_before_anything_is_scheduled():
    async def body(eng):
        for delay in (float("nan"), -1.0):
            with pytest.raises(ValueError):
                eng.timeout(delay)
        assert eng.events_ready == 0 and eng.actions_scheduled == 0

    with_engine(body, time_scale=1.0)


def test_trigger_without_waiter_is_processed_and_schedules_nothing():
    async def body(eng):
        ev = eng.event().succeed("v")
        res = Resource(eng, capacity=1)
        grant = res.request()  # uncontended
        tick = eng.timeout(3.0)  # scaled delay is zero at time_scale=0
        assert ev.processed and grant.processed and tick.processed
        assert eng.events_ready == 3
        assert eng.actions_scheduled == 0
        assert eng.microqueue_depth == 0
        assert eng.peek() == float("inf")

    with_engine(body)


def test_later_waiter_resumes_inline_with_the_value():
    async def body(eng):
        ev = eng.event().succeed("early")
        res = Resource(eng, capacity=1)

        def flow():
            got = yield ev
            req = res.request()
            yield req
            tick = yield eng.timeout(1.0, value="tick")
            res.release(req)
            return got, tick

        proc = eng.process(flow())
        waiter = eng.wait(proc)
        assert await waiter == ("early", "tick")
        # The start, and the completion the waiter was parked on: nothing
        # in between went through the microqueue.
        assert eng.actions_scheduled == 2

    with_engine(body)


def test_failed_ready_event_is_thrown_into_the_generator():
    async def body(eng):
        ev = eng.event().fail(KeyError("gone"))
        assert ev.processed

        def flow():
            try:
                yield ev
            except KeyError as exc:
                return f"caught {exc.args[0]}"
            return "not raised"

        assert await eng.run_process(flow()) == "caught gone"

    with_engine(body)


def test_finished_child_nobody_joined_is_ready():
    async def body(eng):
        def child():
            yield eng.timeout(0.0)
            return 7

        def parent():
            kid = eng.process(child())
            blocker = eng.event()
            eng._schedule_callback(lambda: blocker.succeed(None))
            yield blocker  # a real wait: the child runs to completion meanwhile
            assert kid.processed
            before = eng.actions_scheduled
            value = yield kid
            return value, eng.actions_scheduled - before

        assert await eng.run_process(parent()) == (7, 0)

    with_engine(body)


def test_interrupt_detaches_a_process_waiting_on_a_real_event():
    async def body(eng):
        never = eng.event()
        seen = []

        def flow():
            try:
                yield never
            except Interrupt as intr:
                seen.append(intr.cause)
                yield eng.timeout(0.0)
                return "recovered"

        proc = eng.process(flow())
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert never.callbacks  # parked on the pending event
        proc.interrupt("server died")
        assert await eng.wait(proc) == "recovered"
        assert seen == ["server died"]
        assert never.callbacks == []  # detached, not just abandoned

    with_engine(body)


def test_uncaught_interrupt_ends_the_process_quietly():
    async def body(eng):
        never = eng.event()

        def flow():
            yield never

        proc = eng.process(flow())
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        proc.interrupt("bye")
        result = await eng.wait(proc)
        assert isinstance(result, Interrupt) and result.cause == "bye"
        await eng.quiesce()  # no crash recorded

    with_engine(body)


def test_quiesce_and_peek_accounting_is_exact():
    async def body(eng):
        gate = eng.event()

        def flow():
            for _ in range(10):
                yield eng.timeout(0.0)
            yield gate
            return "done"

        proc = eng.process(flow())
        assert eng._pending == 1 and eng.peek() <= eng.now  # the start
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        # Ten ready timeouts consumed inline; parked on the gate with
        # nothing scheduled, so the engine is drained although not done.
        assert eng._pending == 0 and eng.peek() == float("inf")
        assert eng.events_ready == 10 and eng.actions_scheduled == 1
        await eng.quiesce()
        assert eng.alive_processes() == [proc]
        gate.succeed(None)  # has a waiter: deferred
        assert eng._pending == 1 and eng.microqueue_depth == 1
        await eng.quiesce()
        assert eng._pending == 0 and eng.alive_processes() == []
        assert proc.value == "done"

    with_engine(body)


def test_a_flow_that_never_waits_returns_on_its_callers_stack():
    async def body(eng):
        cpu = Resource(eng)

        def booking():
            if not cpu.try_acquire():
                yield cpu.request()
            if not eng.skip(1.0):
                yield eng.timeout(1.0)
            cpu.release()
            return "done"

        def parent():
            done = eng.gather(booking() for _ in range(3))
            assert done.processed  # every child ran to completion in place
            yield done
            return [proc.value for proc in done.events]

        ready = eng.events_ready
        assert await eng.run_process(parent()) == ["done"] * 3
        assert eng.actions_scheduled == 0 and eng._pending == 0
        # Six bookings and the direct return, counted as ready like the
        # events they stand for (plus the children's and the join's own).
        assert eng.events_ready - ready >= 7

    with_engine(body)


def test_direct_return_waits_its_turn_behind_anything_pending():
    async def body(eng):
        order = []

        def background():
            order.append("background started")
            yield eng.timeout(0.0)

        def request():
            eng.process(background(), name="bg")  # starts through the microqueue
            order.append("request done")
            return "ack"
            yield  # pragma: no cover - makes this a generator

        assert await eng.run_process(request()) == "ack"
        order.append("acked")
        assert order == ["request done", "background started", "acked"]
        assert eng.actions_scheduled == 2  # the start, and the ack behind it

    with_engine(body)


def test_a_crash_in_a_first_step_taken_in_place_is_raised_by_the_joiner():
    async def body(eng):
        seen = []

        def child():
            raise KeyError("never staged")
            yield  # pragma: no cover

        def parent():
            done = eng.gather([child()])  # does not raise here
            seen.append("gathered")
            yield done

        with pytest.raises(KeyError):
            await eng.run_process(parent())
        assert seen == ["gathered"]
        with pytest.raises(ValueError):  # ... and the root's own first step
            await eng.run_process(iter_raising(ValueError("outside")))
        await eng.quiesce()  # would raise LiveProcessError for a kept crash
        assert eng.errors == [] and eng.alive_processes() == []

    def iter_raising(exc):
        raise exc
        yield  # pragma: no cover

    with_engine(body)


def test_a_spent_budget_or_a_paced_delay_says_no():
    async def body(eng):
        assert eng.skip(0.0) and not eng.skip(0.5)  # a positive scaled delay
        with pytest.raises(ValueError):
            eng.skip(float("nan")) or eng.timeout(float("nan"))
        eng._budget = 1
        assert eng.runs_next() and not eng.runs_next() and not eng.skip(0.0)
        res = Resource(eng)
        assert not res.try_acquire() and res.in_use == 0

    with_engine(body, time_scale=0.01)


def test_second_connection_is_served_in_the_middle_of_a_long_ready_chain():
    """A ready chain longer than ``soon_batch`` cannot starve the selector:
    it re-enters through the microqueue.  While connection A waits
    in ``quiesce`` for an endless zero-delay flow, connection B's ping is
    answered — and only that answer lets the flow end."""
    from repro.core.corec import CoRECPolicy
    from repro.live import LiveClient, serve_in_thread
    from repro.staging.service import StagingConfig

    config = StagingConfig(n_servers=8, domain_shape=(32, 32, 32), element_bytes=1, seed=3)
    handle = serve_in_thread(config, CoRECPolicy)
    eng = handle.live.engine
    started, served = threading.Event(), threading.Event()
    steps = []

    def chain():
        n = 0
        while n < 4 * eng.soon_batch or not served.is_set():
            yield eng.timeout(0.0)
            n += 1
            if n == eng.soon_batch:
                started.set()
        steps.append(n)

    quiesced = []

    def conn_a():
        with LiveClient(handle.host, handle.port, name="a", timeout=30.0) as cli:
            cli.quiesce()
            quiesced.append(len(steps))

    try:
        eng.loop.call_soon_threadsafe(lambda: eng.process(chain(), name="chain"))
        assert started.wait(10.0)
        waiter = threading.Thread(target=conn_a)
        waiter.start()
        with LiveClient(handle.host, handle.port, name="b", timeout=10.0) as cli:
            cli.ping()  # TimeoutError here = the chain held the loop
            assert steps == []  # answered mid-chain
            served.set()
        waiter.join(30.0)
        assert not waiter.is_alive()
    finally:
        served.set()
        handle.stop()
    assert steps and steps[0] > 4 * eng.soon_batch
    # ... by re-entering through the microqueue once per spent budget.
    assert eng.actions_scheduled >= steps[0] // eng.soon_batch
    assert quiesced == [1]  # A's quiesce returned only after the chain ended


def test_a_pipelining_connection_that_never_awaits_cannot_starve_a_second_one():
    """The fairness the microqueue used to give for free, over TCP.

    Connection A has 4 x ``soon_batch`` small puts in the server's socket
    buffer before the handler reads the first: every frame is there when
    asked for, every put runs to completion on the handler's stack, every
    response fits the send buffer — the handler never has to await.  The
    budget is refilled only in a loop callback of the engine's own, so
    after ``soon_batch`` units the next booking takes the deferred path
    and A's handler waits for it: B's ping, sent once A's handler is at
    work, is answered long before A's last put.
    """
    import socket

    from repro.core.corec import CoRECPolicy
    from repro.live import LiveClient, serve_in_thread
    from repro.live.protocol import _encode_frame
    from repro.staging.service import StagingConfig

    config = StagingConfig(
        n_servers=8, domain_shape=(16, 16, 16), element_bytes=1, object_max_bytes=64, seed=3
    )
    handle = serve_in_thread(config, CoRECPolicy)
    eng, server = handle.live.engine, handle._server
    n_puts = 4 * eng.soon_batch
    put = _encode_frame(
        {"op": "put", "client": "a", "var": "v", "lb": [0, 0, 0], "ub": [4, 4, 4]}
    )
    held, release = threading.Event(), threading.Event()

    def hold_the_loop():
        held.set()
        release.wait(10.0)

    try:
        with LiveClient(handle.host, handle.port, name="b", timeout=10.0) as b:
            for _ in range(3):  # a hot block: its rewrites spawn nothing
                b.put("v", (0, 0, 0), (4, 4, 4))
            b.step()
            b.quiesce()  # B is connected and its handler is parked on the socket
            scheduled = eng.actions_scheduled
            eng.loop.call_soon_threadsafe(hold_the_loop)
            assert held.wait(10.0)
            with socket.create_connection((handle.host, handle.port)) as a:
                a.sendall(put * n_puts)
                before = server.requests_served
                release.set()
                deadline = time.monotonic() + 10.0
                while server.requests_served - before < 8:  # A's handler is at work
                    assert time.monotonic() < deadline
                b.ping()
                served_at_pong = server.requests_served - before
                assert served_at_pong < n_puts  # answered mid-pipeline
                a.settimeout(10.0)
                while server.requests_served - before < n_puts + 1:
                    assert a.recv(1 << 16)  # ... and A's puts all complete
        # A's puts were rewrites that spawn nothing: all that was ever
        # scheduled is the deferred path taken on each spent budget.
        assert 0 < eng.actions_scheduled - scheduled < n_puts
    finally:
        release.set()
        handle.stop()


def test_paced_timers_and_nic_locks_behave_as_before():
    from repro.live.transport import LiveTransport
    from repro.sim.network import NetworkConfig

    async def body(eng):
        # A positive scaled delay is never ready: it is a timer.
        tick = eng.timeout(0.02)
        assert not tick.processed and eng.events_ready == 0
        assert eng.peek() > eng.now

        net = LiveTransport(eng, NetworkConfig(latency_s=0.02, bandwidth_bps=1e12))
        spans = []

        def mover(tag):
            t0 = eng.now
            yield from net.transfer("a", "b", 1000)
            spans.append((tag, t0, eng.now))

        procs = [eng.process(mover(i)) for i in range(3)]

        def barrier():
            yield AllOf(eng, procs)

        start = time.monotonic()
        await eng.run_process(barrier())
        elapsed = time.monotonic() - start
        # Three transfers over one NIC pair serialise: >= 3 wire times,
        # finishing in FIFO order, each starting after the previous ended.
        assert elapsed >= 0.055
        assert [tag for tag, _, _ in spans] == [0, 1, 2]
        ends = [t1 for _, _, t1 in spans]
        assert ends[1] - ends[0] >= 0.015 and ends[2] - ends[1] >= 0.015
        await eng.quiesce()
        assert eng.peek() == float("inf")

    with_engine(body, time_scale=1.0)


def test_inline_compute_returns_a_ready_event_and_raises_in_place():
    async def body(eng):
        loop_thread = threading.get_ident()

        def flow():
            where = yield eng.inline(threading.get_ident)
            try:
                yield eng.inline(lambda: 1 // 0)
            except ZeroDivisionError:
                return where
            return None

        assert await eng.run_process(flow()) == loop_thread
        assert (eng.offloads_inlined, eng.offloads_submitted) == (2, 0)

    with_engine(body)
