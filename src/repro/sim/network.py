"""Point-to-point network transfer model.

Replaces the RDMA transport of the paper's testbed.  A transfer from server
``a`` to server ``b`` of ``nbytes`` costs::

    latency + nbytes / bandwidth

and while it is in flight it occupies the NIC of both endpoints, so
concurrent transfers through one server serialize — this is what creates
the queueing effects that make load-balanced encoding (paper Section III-B)
matter.

Deadlock freedom: a transfer always acquires the two endpoint NICs in
ascending endpoint order, so the wait-for graph is acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = ["NetworkConfig", "Network"]


@dataclass
class NetworkConfig:
    """Tunable parameters of the transfer cost model.

    Defaults approximate a Gemini-class interconnect: microsecond latency,
    multiple GB/s per NIC.  ``metadata_bytes`` is the size charged for a
    metadata-update message (object index/version propagation).
    """

    latency_s: float = 10e-6
    bandwidth_bps: float = 5.0e9  # bytes per second per NIC
    metadata_bytes: int = 512
    local_copy_bandwidth_bps: float = 40.0e9  # memcpy within a server


@dataclass
class TransferStats:
    """Aggregate transfer accounting, split data vs metadata."""

    messages: int = 0
    bytes: int = 0
    busy_time: float = 0.0
    metadata_messages: int = 0
    metadata_bytes: int = 0
    per_endpoint_bytes: dict[str, int] = field(default_factory=dict)

    def record(self, src: str, dst: str, nbytes: int, duration: float, metadata: bool) -> None:
        self.messages += 1
        self.bytes += nbytes
        self.busy_time += duration
        if metadata:
            self.metadata_messages += 1
            self.metadata_bytes += nbytes
        for ep in (src, dst):
            self.per_endpoint_bytes[ep] = self.per_endpoint_bytes.get(ep, 0) + nbytes


class Network:
    """The transfer fabric connecting staging servers and clients."""

    def __init__(self, sim: Simulator, config: NetworkConfig | None = None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self._nics: dict[str, Resource] = {}
        self.stats = TransferStats()

    def nic(self, endpoint: str) -> Resource:
        """The NIC resource of ``endpoint`` (created on first use)."""
        res = self._nics.get(endpoint)
        if res is None:
            res = Resource(self.sim)  # one transfer at a time per endpoint
            self._nics[endpoint] = res
        return res

    # ------------------------------------------------------------------
    def transfer_time(self, nbytes: int) -> float:
        """Uncontended wire time of an ``nbytes`` message."""
        return self.config.latency_s + nbytes / self.config.bandwidth_bps

    def transfer(self, src: str, dst: str, nbytes: int, metadata: bool = False) -> Generator:
        """Process body: move ``nbytes`` from ``src`` to ``dst``.

        Yields until the transfer completes; returns the in-fabric duration
        (including NIC queueing) so callers can attribute transport time.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("negative transfer size")
        start = self.sim.now
        if src == dst:
            # Local memcpy: no NIC involvement, higher bandwidth.
            dt = nbytes / self.config.local_copy_bandwidth_bps
            if dt > 0 and not self.sim.skip(dt):
                yield self.sim.timeout(dt)
            duration = self.sim.now - start
            self.stats.record(src, dst, nbytes, duration, metadata)
            return duration

        wire = self.transfer_time(nbytes)
        first, second = (src, dst) if src < dst else (dst, src)
        nic_a, nic_b = self.nic(first), self.nic(second)
        if not nic_a.try_acquire():
            yield nic_a.request()
        if not nic_b.try_acquire():
            yield nic_b.request()
        try:
            if not self.sim.skip(wire):
                yield self.sim.timeout(wire)
        finally:
            nic_b.release()
            nic_a.release()
        duration = self.sim.now - start
        self.stats.record(src, dst, nbytes, duration, metadata)
        return duration

    def send_metadata(self, src: str, dst: str) -> Generator:
        """Process body: one metadata-update message."""
        return self.transfer(src, dst, self.config.metadata_bytes, metadata=True)
