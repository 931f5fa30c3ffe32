"""Tests for the discrete-event simulation core."""

import pytest

from repro.sim.engine import AllOf, AnyOf, Event, Interrupt, Simulator


class TestTimeouts:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        done = []

        def proc():
            yield sim.timeout(2.5)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_nan_delay_rejected_at_the_call(self):
        """``nan < 0`` is False: a NaN delay used to enter the heap and
        surface as "time went backwards" in whichever process ran next."""
        sim = Simulator()

        def sleeper(delay):
            yield sim.timeout(delay)

        for delay in (3.0, 1.0, 2.0):
            sim.process(sleeper(delay))
        with pytest.raises(ValueError, match="nan"):
            sim.timeout(float("nan"))
        sim.run()  # nothing poisoned: the others run to completion
        assert sim.now == 3.0

    def test_timeout_value(self):
        sim = Simulator()
        got = []

        def proc():
            v = yield sim.timeout(1, value="hello")
            got.append(v)

        sim.process(proc())
        sim.run()
        assert got == ["hello"]

    def test_zero_delay(self):
        sim = Simulator()
        order = []

        def proc(tag):
            yield sim.timeout(0)
            order.append(tag)

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        assert order == ["a", "b"]


class TestDeterminism:
    def test_tie_breaking_by_creation_order(self):
        results = []
        for _ in range(3):
            sim = Simulator()
            order = []

            def proc(tag, delay):
                yield sim.timeout(delay)
                order.append(tag)

            for i in range(10):
                sim.process(proc(i, 1.0))  # all fire at t=1
            sim.run()
            results.append(tuple(order))
        assert len(set(results)) == 1
        assert results[0] == tuple(range(10))

    def test_run_until_time(self):
        sim = Simulator()
        fired = []

        def proc():
            while True:
                yield sim.timeout(1)
                fired.append(sim.now)

        sim.process(proc())
        sim.run(until=3.5)
        assert fired == [1, 2, 3]
        assert sim.now == 3.5

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(5)
        assert sim.peek() == 5


class TestProcesses:
    def test_return_value_propagates(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1)
            return 42

        def parent(out):
            value = yield sim.process(child())
            out.append(value)

        out = []
        sim.process(parent(out))
        sim.run()
        assert out == [42]

    def test_run_until_process(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(3)
            return "done"

        p = sim.process(proc())
        assert sim.run(until=p) == "done"
        assert sim.now == 3

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1)
            raise ValueError("boom")

        def parent(out):
            try:
                yield sim.process(child())
            except ValueError as e:
                out.append(str(e))

        out = []
        sim.process(parent(out))
        sim.run()
        assert out == ["boom"]

    def test_unwaited_crash_raises_from_run(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            raise RuntimeError("unhandled")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="unhandled"):
            sim.run()

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_yield_non_event_rejected(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(TypeError, match="yielded"):
            sim.run()

    def test_is_alive(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(2)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_starved_run_until_event_raises(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(RuntimeError, match="starved"):
            sim.run(until=ev)


class TestEvents:
    def test_manual_trigger(self):
        sim = Simulator()
        ev = sim.event()
        got = []

        def waiter():
            v = yield ev
            got.append(v)

        def trigger():
            yield sim.timeout(1)
            ev.succeed("payload")

        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert got == ["payload"]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_waiting_on_processed_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")
        sim.run()
        got = []

        def late_waiter():
            v = yield ev
            got.append((sim.now, v))

        sim.process(late_waiter())
        sim.run()
        assert got == [(0.0, "early")]

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(RuntimeError):
            _ = ev.value


class TestInterrupts:
    def test_interrupt_wakes_process(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt as i:
                log.append((sim.now, i.cause))

        p = sim.process(sleeper())

        def killer():
            yield sim.timeout(5)
            p.interrupt("die")

        sim.process(killer())
        sim.run()
        assert log == [(5, "die")]

    def test_uncaught_interrupt_terminates_cleanly(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100)

        p = sim.process(sleeper())

        def killer():
            yield sim.timeout(1)
            p.interrupt()

        sim.process(killer())
        sim.run(until=p)
        # The sleeper dies at the interrupt, long before its timeout.
        assert p.triggered
        assert sim.now == 1
        assert isinstance(p.value, Interrupt)

    def test_interrupt_finished_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run()
        p.interrupt("late")  # must not raise
        sim.run()


class TestConditions:
    def test_all_of(self):
        sim = Simulator()
        got = []

        def proc():
            t1, t2 = sim.timeout(1), sim.timeout(3)
            yield AllOf(sim, [t1, t2])
            got.append(sim.now)

        sim.process(proc())
        sim.run()
        assert got == [3]

    def test_any_of(self):
        sim = Simulator()
        got = []

        def proc():
            t1, t2 = sim.timeout(1), sim.timeout(3)
            yield AnyOf(sim, [t1, t2])
            got.append(sim.now)

        sim.process(proc())
        sim.run()
        assert got == [1]

    def test_all_of_empty(self):
        sim = Simulator()
        got = []

        def proc():
            yield AllOf(sim, [])
            got.append(sim.now)

        sim.process(proc())
        sim.run()
        assert got == [0.0]

    def test_all_of_collects_values(self):
        sim = Simulator()
        got = {}

        def proc():
            t1 = sim.timeout(1, value="a")
            t2 = sim.timeout(2, value="b")
            result = yield AllOf(sim, [t1, t2])
            got.update(result)

        sim.process(proc())
        sim.run()
        assert sorted(got.values()) == ["a", "b"]

    def test_failed_child_fails_condition(self):
        sim = Simulator()

        def failing():
            yield sim.timeout(1)
            raise ValueError("child died")

        caught = []

        def waiter():
            try:
                yield AllOf(sim, [sim.process(failing()), sim.timeout(5)])
            except ValueError as e:
                caught.append(str(e))

        sim.process(waiter())
        sim.run()
        assert caught == ["child died"]

    def test_count_exceeds_events(self):
        sim = Simulator()
        from repro.sim.engine import ConditionEvent

        with pytest.raises(ValueError):
            ConditionEvent(sim, [sim.timeout(1)], count=2)

    def test_any_of_detaches_from_losing_event(self):
        # Regression: a settled condition must drop its callback from
        # non-winning children.  Repeatedly racing an AnyOf against a
        # long-lived event used to grow that event's callback list without
        # bound (one dead closure per race).
        sim = Simulator()
        never = sim.event()

        def race():
            yield AnyOf(sim, [never, sim.timeout(1)])

        for _ in range(5):
            sim.process(race())
        sim.run()
        assert never.callbacks == []

    def test_failed_condition_detaches_from_children(self):
        sim = Simulator()
        survivor = sim.timeout(10)

        def failing():
            yield sim.timeout(1)
            raise ValueError("boom")

        def waiter():
            try:
                yield AllOf(sim, [sim.process(failing()), survivor])
            except ValueError:
                pass

        sim.process(waiter())
        sim.run(until=2)
        assert survivor.callbacks == []

    def test_detached_condition_still_delivers_result(self):
        sim = Simulator()
        never = sim.event()
        got = []

        def race():
            result = yield AnyOf(sim, [never, sim.timeout(3, value="t")])
            got.append(sorted(result.values()))

        sim.process(race())
        sim.run()
        assert got == [["t"]]


class TestReentrancy:
    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1)
            sim.run()  # illegal

        sim.process(proc())
        with pytest.raises(RuntimeError, match="reentrant"):
            sim.run()


class TestRunawayGuard:
    def test_max_events_raises_on_livelock(self):
        sim = Simulator()

        def spinner():
            while True:
                yield sim.timeout(0)

        sim.process(spinner())
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=100)

    def test_max_events_allows_normal_completion(self):
        sim = Simulator()
        done = []

        def proc():
            for _ in range(5):
                yield sim.timeout(1)
            done.append(sim.now)

        sim.process(proc())
        sim.run(max_events=1000)
        assert done == [5]

    def test_max_events_with_until_event(self):
        sim = Simulator()

        def spinner():
            while True:
                yield sim.timeout(0)

        def target():
            yield sim.timeout(1)
            return "never"  # the spinner starves progress per event budget

        sim.process(spinner())
        p = sim.process(target())
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(until=p, max_events=50)
