"""Real byte movement for the live backend.

In the simulator, payload bytes already live in process memory (servers
are in-memory dicts) and :class:`repro.sim.network.Network` charges
*modeled* wire time for moving them.  In the live backend the bytes still
move within process memory — the client-facing hop happens for real in
the TCP protocol layer (:mod:`repro.live.server`) — so the transport's
job is cooperative scheduling and accounting, not copying:

- it books once per transfer: a scaled wire time when ``time_scale >
  0``; at ``time_scale = 0`` nothing to wait for, so ``engine.skip``
  charges the booking against the ``soon_batch`` budget and no event is
  made — the budget, not a yield, is what keeps long staging flows from
  monopolizing the event loop between socket reads;
- it records the same :class:`~repro.sim.network.TransferStats`, so
  storage/traffic accounting and the invariant checkers read identically
  on both backends.

With ``time_scale > 0`` transfers also serialize through per-endpoint
NIC :class:`~repro.sim.resources.Resource` locks (acquired in sorted
endpoint order, same deadlock-freedom argument as the simulator), which
reproduces the modeled fabric's queueing behaviour on the wall clock.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.network import NetworkConfig, TransferStats
from repro.sim.resources import Resource

__all__ = ["LiveTransport"]


class LiveTransport:
    """Transport implementation on a :class:`repro.live.engine.LiveEngine`."""

    def __init__(self, engine, config: NetworkConfig | None = None):
        self.engine = engine
        self.config = config or NetworkConfig()
        self.stats = TransferStats()
        self._nics: dict[str, Resource] = {}

    def nic(self, endpoint: str) -> Resource:
        res = self._nics.get(endpoint)
        if res is None:
            res = Resource(self.engine)
            self._nics[endpoint] = res
        return res

    def transfer_time(self, nbytes: int) -> float:
        return self.config.latency_s + nbytes / self.config.bandwidth_bps

    def transfer(self, src: str, dst: str, nbytes: int, metadata: bool = False) -> Generator:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("negative transfer size")
        start = self.engine.now
        if src == dst or self.engine.time_scale <= 0.0:
            # One booking: no event while the callback's budget lasts.
            wire = 0.0 if src == dst else self.transfer_time(nbytes)
            if not self.engine.skip(wire):
                yield self.engine.timeout(wire)
            duration = self.engine.now - start
            self.stats.record(src, dst, nbytes, duration, metadata)
            return duration
        # Paced mode: reproduce the modeled fabric's NIC contention.
        # NIC grant waits are wire queueing, not lock contention, so they
        # attribute as "transfer" in the wall-clock breakdown.
        first, second = sorted((src, dst))
        req_a = self.nic(first).request()
        req_a.charge = "transfer"
        yield req_a
        req_b = self.nic(second).request()
        req_b.charge = "transfer"
        yield req_b
        try:
            yield self.engine.timeout(self.transfer_time(nbytes))
        finally:
            self.nic(second).release(req_b)
            self.nic(first).release(req_a)
        duration = self.engine.now - start
        self.stats.record(src, dst, nbytes, duration, metadata)
        return duration

    def send_metadata(self, src: str, dst: str) -> Generator:
        return self.transfer(src, dst, self.config.metadata_bytes, metadata=True)
