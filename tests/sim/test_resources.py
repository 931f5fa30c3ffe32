"""Tests for FIFO resources."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import Resource


class TestResource:
    def test_serialization(self):
        sim = Simulator()
        res = Resource(sim)
        log = []

        def worker(tag):
            req = res.request()
            yield req
            log.append((sim.now, tag, "in"))
            yield sim.timeout(2)
            res.release(req)
            log.append((sim.now, tag, "out"))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert log == [(0, "a", "in"), (2, "a", "out"), (2, "b", "in"), (4, "b", "out")]

    def test_fifo_order(self):
        sim = Simulator()
        res = Resource(sim)
        order = []

        def worker(tag, arrive):
            yield sim.timeout(arrive)
            req = res.request()
            yield req
            order.append(tag)
            yield sim.timeout(10)
            res.release(req)

        for i, arrive in enumerate([0, 1, 2, 3]):
            sim.process(worker(i, arrive))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_release_without_request(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release(None)

    def test_queued_and_utilization(self):
        sim = Simulator()
        res = Resource(sim)
        res.request()
        res.request()
        assert res.in_use == 1
        assert res.queued == 1

    def test_try_acquire_takes_a_free_slot_only_when_its_grant_would_run_next(self):
        sim = Simulator()
        res = Resource(sim)
        assert res.try_acquire() and res.in_use == 1  # nothing is scheduled
        assert not res.try_acquire()  # no slot
        res.release()
        sim.timeout(0.0)  # something else is due at ``now``
        assert not res.try_acquire() and res.in_use == 0
        sim.run()
        assert res.try_acquire()

    def test_cancel_withdraws_a_queued_request_and_releases_a_granted_one(self):
        sim = Simulator()
        res = Resource(sim)
        held, queued, behind = res.request(), res.request(), res.request()
        res.cancel(queued)
        assert (res.in_use, res.queued) == (1, 1)
        res.cancel(held)  # granted: its slot goes to the next in line
        assert behind.triggered and (res.in_use, res.queued) == (1, 0)
        res.cancel(behind)
        assert (res.in_use, res.queued) == (0, 0)

    def test_acquire_helper(self):
        sim = Simulator()
        res = Resource(sim)
        done = []

        def acquire(hold_time):
            if not res.try_acquire():
                yield res.request()
            yield sim.timeout(hold_time)
            res.release()

        def worker(tag):
            yield from acquire(1.0)
            done.append((sim.now, tag))

        sim.process(worker("x"))
        sim.process(worker("y"))
        sim.run()
        assert done == [(1.0, "x"), (2.0, "y")]
