"""Tests for FIFO resources and stores."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import Resource, Store


class TestResource:
    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_serialization(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
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
        res = Resource(sim, capacity=1)
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

    def test_capacity_two_parallel(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        finished = []

        def worker(tag):
            req = res.request()
            yield req
            yield sim.timeout(1)
            res.release(req)
            finished.append((sim.now, tag))

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        # Two run in [0,1], two in [1,2].
        assert [t for t, _ in finished] == [1, 1, 2, 2]

    def test_release_without_request(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release(None)

    def test_queued_and_utilization(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        assert res.in_use == 1
        assert res.queued == 1
        assert res.utilization == 1.0

    def test_try_acquire_takes_a_free_slot_only_when_its_grant_would_run_next(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        assert res.try_acquire() and res.in_use == 1  # nothing is scheduled
        assert not res.try_acquire()  # no slot
        res.release()
        sim.timeout(0.0)  # something else is due at ``now``
        assert not res.try_acquire() and res.in_use == 0
        sim.run()
        assert res.try_acquire()

    def test_cancel_withdraws_a_queued_request_and_releases_a_granted_one(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        held, queued, behind = res.request(), res.request(), res.request()
        res.cancel(queued)
        assert (res.in_use, res.queued) == (1, 1)
        res.cancel(held)  # granted: its slot goes to the next in line
        assert behind.triggered and (res.in_use, res.queued) == (1, 0)
        res.cancel(behind)
        assert (res.in_use, res.queued) == (0, 0)

    def test_acquire_helper(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
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


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append(item)

        store.put("hello")
        sim.process(consumer())
        sim.run()
        assert got == ["hello"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(3)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(3, "late")]

    def test_fifo_items(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(3):
            store.put(i)
        got = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2]

    def test_bounded_put_blocks(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append((sim.now, "put-a"))
            yield store.put("b")
            log.append((sim.now, "put-b"))

        def consumer():
            yield sim.timeout(5)
            item = yield store.get()
            log.append((sim.now, f"got-{item}"))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert log == [(0, "put-a"), (5, "got-a"), (5, "put-b")]

    def test_try_get(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"

    def test_try_get_unblocks_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        done = []

        def producer():
            yield store.put(1)
            yield store.put(2)
            done.append(sim.now)

        sim.process(producer())
        sim.run()
        assert store.try_get() == 1
        sim.run()
        assert done and len(store) == 1

    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Store(sim, capacity=0)
