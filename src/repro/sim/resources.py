"""FIFO resources for the simulator.

``Resource`` models a server's serialized work (its CPU, a NIC, a stripe
lock, a coding token): processes request the one slot, hold it for some
duration, and release it; waiters queue FIFO.
"""

from __future__ import annotations

from collections import deque

from repro.sim.engine import Event, Simulator

__all__ = ["Resource"]


class Resource:
    """A one-slot FIFO resource (``in_use`` is 0 or 1).

    Usage inside a process::

        if not resource.try_acquire():
            yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.in_use = 0
        self._queue: deque[Event] = deque()

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Event:
        """Return an event that fires when the slot is granted."""
        ev = Event(self.sim)
        ev.charge = "lock_wait"  # wall-clock attribution for grant waits
        if not self.in_use:
            self.in_use = 1
            ev.succeed(self)
        else:
            self._queue.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take the free slot with no event, if its grant would run next;
        on False spell it out: ``yield resource.request()``."""
        if not self.in_use and self.sim.runs_next():
            self.in_use = 1
            return True
        return False

    def cancel(self, request: Event) -> None:
        """Give up ``request``: withdraw it if still queued, else free the slot."""
        try:
            self._queue.remove(request)
        except ValueError:
            self.release(request)

    def release(self, _request: Event | None = None) -> None:
        """Free the slot, handing it to the oldest waiter if any."""
        if not self.in_use:
            raise RuntimeError("release without matching request")
        if self._queue:
            nxt = self._queue.popleft()
            nxt.succeed(self)  # slot transfers directly to the waiter
        else:
            self.in_use = 0

