"""Structured event log shared by the simulator and the metrics layer.

Every notable simulator occurrence (request served, object encoded, server
failed, recovery completed, ...) is appended as an :class:`Event`.  Benchmarks
and tests query the log instead of scraping printed output, which keeps the
whole pipeline machine-checkable.

Capacity semantics
------------------
An unbounded log (``capacity=None``, the default) keeps everything.  A
bounded log is a **ring buffer**: once ``capacity`` events are held, each
new event evicts the *oldest* one, so the log always contains the most
recent ``capacity`` events.  Evictions are counted in :attr:`EventLog.dropped`
(so monitoring can tell a quiet run from a truncated one).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Event", "EventLog"]


@dataclass(frozen=True, slots=True)
class Event:
    """One timestamped simulator event.

    Attributes
    ----------
    t:
        Simulation time (seconds).
    kind:
        Event category, e.g. ``"put"``, ``"get"``, ``"encode"``,
        ``"server_failed"``, ``"object_recovered"``.
    source:
        Name of the emitting component (server id, client id, ...).
    data:
        Free-form payload for the event.
    """

    t: float
    kind: str
    source: str = ""
    data: dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Append-only event log with per-kind counts.

    With a ``capacity``, the log is a ring buffer that drops the oldest
    events (see module docstring); :attr:`dropped` counts the evictions.
    """

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._events: deque[Event] = deque(maxlen=capacity)
        self._capacity = capacity
        self.dropped = 0

    @property
    def capacity(self) -> int | None:
        return self._capacity

    def emit(self, t: float, kind: str, source: str = "", **data: Any) -> Event:
        ev = Event(t=float(t), kind=kind, source=source, data=data)
        if self._capacity is not None and len(self._events) == self._capacity:
            self.dropped += 1  # deque(maxlen=...) evicts the oldest entry
        self._events.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def count(self, kind: str) -> int:
        return sum(1 for e in self._events if e.kind == kind)

    def clear(self) -> None:
        self._events.clear()
