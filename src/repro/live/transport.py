"""Real byte movement for the live backend.

In the simulator, payload bytes already live in process memory (servers
are in-memory dicts) and :class:`repro.sim.network.Network` charges
*modeled* wire time for moving them.  In the live backend the bytes still
move within process memory — the client-facing hop happens for real in
the TCP protocol layer (:mod:`repro.live.server`) — so the transport's
job is cooperative scheduling and accounting, not copying:

- it books once per transfer, with nothing to wait for, so
  ``engine.skip`` charges the booking against the ``soon_batch`` budget
  and no event is made — the budget, not a yield, is what keeps long
  staging flows from monopolizing the event loop between socket reads;
- it records the same :class:`~repro.sim.network.TransferStats`, so
  storage/traffic accounting and the invariant checkers read identically
  on both backends.
"""

from __future__ import annotations

from typing import Generator

from repro.sim.network import NetworkConfig, TransferStats

__all__ = ["LiveTransport"]


class LiveTransport:
    """Transport implementation on a :class:`repro.live.engine.LiveEngine`."""

    def __init__(self, engine, config: NetworkConfig | None = None):
        self.engine = engine
        self.config = config or NetworkConfig()
        self.stats = TransferStats()

    def transfer(self, src: str, dst: str, nbytes: int, metadata: bool = False) -> Generator:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("negative transfer size")
        start = self.engine.now
        # One booking: no event while the callback's budget lasts.
        if not self.engine.skip(0.0):
            yield self.engine.timeout(0.0)
        duration = self.engine.now - start
        self.stats.record(src, dst, nbytes, duration, metadata)
        return duration

    def send_metadata(self, src: str, dst: str) -> Generator:
        return self.transfer(src, dst, self.config.metadata_bytes, metadata=True)
