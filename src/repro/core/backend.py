"""Backend interfaces: the clock/scheduler and the transfer fabric.

``StagingRuntime`` and ``StagingService`` are written against two narrow
interfaces rather than against the simulator concretely:

- :class:`Clock` — event scheduling and time.  The discrete-event
  :class:`repro.sim.engine.Simulator` implements it with a virtual clock
  and a time-ordered heap; :class:`repro.live.engine.LiveEngine`
  implements it with the wall clock on top of an asyncio event loop.
- :class:`Transport` — byte movement between named endpoints.
  :class:`repro.sim.network.Network` charges modeled wire time;
  :class:`repro.live.transport.LiveTransport` moves bytes for real (they
  already live in process memory; the live fabric is the asyncio loop and
  the TCP protocol layer) and records the same statistics.

Both are structural (``typing.Protocol``): any object with the right
methods works, no inheritance required.  The crucial shared contract is
the *generator process model* — every flow in the runtime is a generator
that yields :class:`repro.sim.engine.Event` objects, and both backends
drive those same Event/Process/Resource classes through the three
scheduling primitives (``event``/``_schedule_event``/``_schedule_callback``).
That is what lets one copy of the resilience mechanics (replication,
stripe formation, parity maintenance, recovery) run unchanged under
simulated time *and* under real concurrency.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Protocol, runtime_checkable

__all__ = ["Clock", "Transport"]


@runtime_checkable
class Clock(Protocol):
    """Scheduling and time source driving generator processes.

    Implementations must also provide the two internal primitives the
    event classes call back into (``_schedule_event(event, delay=0.0)``,
    ``_schedule_callback(cb, delay=0.0)``) and accept the ``_siblings``
    flag ``Event._process`` sets while it has waiters left to wake.

    ``runs_next`` / ``skip`` may only say yes when leaving the event out
    changes no order: on a "no" the caller creates and yields the event,
    and that path is the whole contract — a clock that always says no
    (the test simulators do) is a correct one.
    """

    now: float

    def event(self) -> Any:
        """A fresh untriggered one-shot event."""
        ...

    def timeout(self, delay: float, value: Any = None) -> Any:
        """An event firing ``delay`` clock seconds from now."""
        ...

    def process(self, gen: Generator, name: str = "") -> Any:
        """Start a generator as a process; returns its completion event."""
        ...

    def peek(self) -> float:
        """Time of the next scheduled action (inf when idle/quiescent)."""
        ...

    def gather(self, flows: Iterable[Generator]) -> Any:
        """Start ``flows``; an event that fires when all are done, with the
        flows' processes, in order, as its ``events``."""
        ...

    def runs_next(self) -> bool:
        """Would an event triggered now, with only the caller waiting on it,
        be the very next thing to run?  Then the caller may do without it:
        ``Resource.try_acquire`` takes a free slot on a yes."""
        ...

    def skip(self, delay: float) -> bool:
        """Would a ``timeout(delay)`` created now be the very next thing to
        run?  Then advance to it and return True; the caller does not yield."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Byte movement between named endpoints (servers and clients).

    ``transfer``/``send_metadata`` are generator process bodies driven
    with ``yield from``; they return the elapsed transfer duration so
    callers can attribute transport time.  ``stats`` aggregates messages
    and bytes (see :class:`repro.sim.network.TransferStats`).
    """

    stats: Any
    config: Any

    def transfer(
        self, src: str, dst: str, nbytes: int, metadata: bool = False
    ) -> Generator:
        ...

    def send_metadata(self, src: str, dst: str) -> Generator:
        ...
