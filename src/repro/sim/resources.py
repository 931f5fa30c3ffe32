"""FIFO resources and item stores for the simulator.

``Resource`` models a server's bounded concurrency (CPU slots, NIC
serialization): processes request a slot, hold it for some duration, and
release it; waiters queue FIFO.  ``Store`` is an unbounded (or bounded)
queue of items used for request mailboxes between clients and staging
servers.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import Event, Simulator

__all__ = ["Resource", "Store"]


class Resource:
    """A counted FIFO resource (capacity >= 1).

    Usage inside a process::

        if not resource.try_acquire():
            yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._queue: deque[Event] = deque()

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    @property
    def utilization(self) -> float:
        return self.in_use / self.capacity

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = Event(self.sim)
        ev.charge = "lock_wait"  # wall-clock attribution for grant waits
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed(self)
        else:
            self._queue.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a free slot with no event, if its grant would run next;
        on False spell it out: ``yield resource.request()``."""
        if self.in_use < self.capacity and self.sim.runs_next():
            self.in_use += 1
            return True
        return False

    def cancel(self, request: Event) -> None:
        """Give up ``request``: withdraw it if still queued, else free its slot."""
        try:
            self._queue.remove(request)
        except ValueError:
            self.release(request)

    def release(self, _request: Event | None = None) -> None:
        """Free a slot, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError("release without matching request")
        if self._queue:
            nxt = self._queue.popleft()
            nxt.succeed(self)  # slot transfers directly to the waiter
        else:
            self.in_use -= 1


class Store:
    """An item queue with blocking ``get`` and (optionally bounded) ``put``."""

    def __init__(self, sim: Simulator, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; fires immediately unless the store is full."""
        ev = self.sim.event()
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            ev.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed(None)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Return an event whose value is the next item (FIFO)."""
        ev = self.sim.event()
        if self._items:
            ev.succeed(self._items.popleft())
            if self._putters:
                put_ev, item = self._putters.popleft()
                self._items.append(item)
                put_ev.succeed(None)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Any | None:
        """Non-blocking get: the next item or None if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        if self._putters:
            put_ev, queued = self._putters.popleft()
            self._items.append(queued)
            put_ev.succeed(None)
        return item
