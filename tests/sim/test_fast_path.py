"""An uncontended booking takes no event — and reorders nothing.

``Simulator.runs_next()`` / ``skip()`` let a flow take a free slot or sit
out a delay without pushing the event it would immediately be handed back.
That removes two thirds of the schedule (``test_event_sequence.py`` pins
both sequences), so the schedule log can no longer show that the *rest*
runs in the order it did.  This file shows it from the other side: every
booking the flows make — ``(now, category, duration)`` at each
``Metrics.add_time``, ``(now, resource, in_use)`` at each grant and
release, ``(now, server, key)`` at each ``store_bytes`` / ``delete_bytes``
— is logged in order on the four sequence-pin scenarios, once with the fast
path and once on a simulator that always answers "no", and the two logs,
the final clock and the state projection must be identical.

Then one case per guard: each is a schedule where skipping the event would
let code run earlier than it did.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import Metrics
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.staging.server import StagingServer

from tests.sim.test_event_sequence import RUNS, LoggingSimulator, SlowPathSimulator


class BookingLog:
    """Ordered record of what the flows did to time, resources and stores."""

    def __init__(self, monkeypatch):
        self.rows: list[tuple] = []
        self._resources: dict[int, int] = {}  # id(resource) -> creation rank
        self._keep: list[Resource] = []  # ids stay unique while logged
        log = self

        def wrap(cls, name, after):
            inner = getattr(cls, name)

            def method(self, *args, **kwargs):
                result = inner(self, *args, **kwargs)
                after(self, result, *args)
                return result

            monkeypatch.setattr(cls, name, method)

        def created(res, _result, *args):
            log._resources[id(res)] = len(log._keep)
            log._keep.append(res)

        def slot(kind):
            def after(res, _result, *args):
                log.rows.append((res.sim.now, kind, log._resources[id(res)], res.in_use))
            return after

        wrap(Resource, "__init__", created)
        # A request granted on the spot is a grant now; a queued one is
        # granted by the release that hands it the slot, which is logged.
        wrap(Resource, "request", lambda res, ev, *a: ev.triggered and slot("grant")(res, ev))
        wrap(Resource, "try_acquire", lambda res, ok, *a: ok and slot("grant")(res, ok))
        wrap(Resource, "release", slot("release"))
        wrap(Metrics, "add_time", lambda m, _r, category, dt: log.rows.append(
            (log.sim.now, "time", category, dt)))
        wrap(StagingServer, "store_bytes", lambda srv, _r, key, *a: log.rows.append(
            (srv.sim.now, "store", srv.name, key)))
        wrap(StagingServer, "delete_bytes", lambda srv, _r, key, *a: log.rows.append(
            (srv.sim.now, "delete", srv.name, key)))

    def run(self, name: str, sim: Simulator):
        self.sim = sim
        self.rows, self._resources, self._keep = [], {}, []
        svc = RUNS[name](sim)
        return self.rows, sim.now, svc.projection()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_bookings_grants_and_stores_happen_in_one_order_with_the_fast_path_on_and_off(
    name, monkeypatch
):
    log = BookingLog(monkeypatch)
    fast_sim, slow_sim = LoggingSimulator(), SlowPathSimulator()
    fast = log.run(name, fast_sim)
    slow = log.run(name, slow_sim)
    assert len(fast[0]) > 500
    assert fast[0] == slow[0]
    assert fast[1:] == slow[1:]  # final clock (bit for bit) and projection
    assert fast_sim.scheduled < slow_sim.scheduled  # ... and it was really on


# ----------------------------------------------------------------------
# the three guards
# ----------------------------------------------------------------------
def booking(sim: Simulator, res: Resource, hold: float, trail: list, tag: str):
    """The booking body of ``StagingRuntime.busy``, logging when it ran."""
    if not res.try_acquire():
        yield res.request()
    try:
        if not sim.skip(hold):
            yield sim.timeout(hold)
    finally:
        res.release()
    trail.append((tag, sim.now))


def both(scenario):
    """Run ``scenario(sim)`` on a fast and a slow simulator; results must agree."""
    fast, slow = scenario(Simulator()), scenario(SlowPathSimulator())
    assert fast == slow
    return fast


def test_something_else_scheduled_at_now_runs_first():
    def scenario(sim):
        trail: list = []
        cpu = Resource(sim)

        def other():
            trail.append(("other", sim.now))
            yield sim.timeout(0.5)
            trail.append(("other-woke", sim.now))

        def first():
            sim.process(other())  # due at now, ahead of anything first triggers
            assert not sim.runs_next() and not sim.skip(1.0)
            yield from booking(sim, cpu, 1.0, trail, "first")

        sim.process(first())
        sim.run()
        return trail

    assert both(scenario) == [("other", 0.0), ("other-woke", 0.5), ("first", 1.0)]


def test_a_waiter_with_siblings_left_to_wake_does_not_run_ahead_of_them():
    def scenario(sim):
        trail: list = []
        gate = sim.timeout(1.0)  # when it fires the heap is empty

        def waiter(tag, cpu):
            yield gate
            yield from booking(sim, cpu, 0.0, trail, tag + "1")
            yield from booking(sim, cpu, 0.0, trail, tag + "2")

        for tag in "ab":
            sim.process(waiter(tag, Resource(sim)))
        sim.run()
        return [tag for tag, _ in trail]

    # Booked in place, a would finish both bookings before b was even woken.
    assert both(scenario) == ["a1", "b1", "a2", "b2"]


def test_a_horizon_inside_the_skipped_delay_stops_the_clock_at_the_horizon():
    def scenario(sim):
        trail: list = []
        sim.process(booking(sim, Resource(sim), 1.0, trail, "held"))
        sim.run(until=0.25)
        at_horizon = (sim.now, list(trail))
        sim.run()
        return at_horizon, sim.now, trail

    assert both(scenario) == ((0.25, []), 1.0, [("held", 1.0)])


def test_run_until_a_process_returns_at_its_time_while_a_sibling_is_mid_flow():
    def scenario(sim):
        trail: list = []
        cpu = Resource(sim)

        def parent():
            yield sim.timeout(1.0)

        def sibling(proc):
            yield proc  # resumed as a waiter of the ``until`` event itself
            yield from booking(sim, cpu, 5.0, trail, "sibling")

        proc = sim.process(parent())
        sim.process(sibling(proc))
        sim.run(until=proc)
        at_return = (sim.now, cpu.in_use, list(trail))
        sim.run()
        return at_return, sim.now, trail

    # The sibling holds the slot (a request takes it at once) but has not moved.
    assert both(scenario) == ((1.0, 1, []), 6.0, [("sibling", 6.0)])


def test_skip_is_the_timeouts_arithmetic_and_leaves_validation_to_it():
    sim = Simulator()
    sim.run(until=0.1)
    assert sim.skip(0.2) and sim.now == 0.1 + 0.2  # the push's float sum
    for bad in (-1.0, float("nan")):
        assert not sim.skip(bad) and sim.now == 0.1 + 0.2
        with pytest.raises(ValueError):  # ... so the spelled-out timeout raises
            sim.timeout(bad)
