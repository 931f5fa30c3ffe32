"""Staging-server state: object store, CPU resource, workload monitor.

A server couples *state* (the in-memory object store — real byte buffers)
with *timing resources* (a CPU slot through which request processing and
encoding serialize, and a NIC owned by the network model).  Operations on
the store are instantaneous state changes; their simulated duration is
charged explicitly through :meth:`StagingRuntime.busy` using the
:class:`CostModel`, which keeps the timing model in one auditable place.

The workload monitor implements the paper's "workload measurement component"
(Section III-B): it measures a server's load level from its queue depth and
recent request rate, which drives the encoding-token placement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.resources import Resource

__all__ = ["CostModel", "StagingServer"]

# Span of the workload monitor's recent-request rate (seconds).
WORKLOAD_WINDOW_S = 1.0


@dataclass
class CostModel:
    """Simulated durations of server-side operations.

    Throughputs are calibrated to commodity numbers (memcpy tens of GB/s,
    table-driven GF(2^8) a few GB/s per core); what the experiments depend
    on is their *ratio* — encoding is an order of magnitude more expensive
    per byte than copying, as in the paper's testbed.
    """

    put_op_s: float = 20e-6        # fixed per-object store overhead
    get_op_s: float = 10e-6        # fixed per-object lookup overhead
    memcpy_bps: float = 20.0e9     # local copy bandwidth
    gf_bps: float = 1.0e9          # GF(2^8) addmul throughput per core
    parity_op_s: float = 5e-6      # fixed cost of an in-place parity RMW
    classify_op_s: float = 2e-6    # per-object classification decision
    metadata_op_s: float = 5e-6    # apply one metadata update

    def store_cost(self, nbytes: int) -> float:
        return self.put_op_s + nbytes / self.memcpy_bps

    def lookup_cost(self, nbytes: int) -> float:
        return self.get_op_s + nbytes / self.memcpy_bps

    def encode_cost(self, k: int, m: int, shard_len: int) -> float:
        """Encode one stripe: m parity rows, each a k-term GF dot product.

        Matches the paper's O(N_level * N_node) per-stripe complexity.
        """
        return (m * k * shard_len) / self.gf_bps + self.put_op_s

    def decode_cost(self, k: int, n_lost: int, shard_len: int) -> float:
        """Reconstruct ``n_lost`` shards from k survivors."""
        return (max(1, n_lost) * k * shard_len) / self.gf_bps + self.get_op_s

    def parity_update_cost(self, m: int, nbytes: int) -> float:
        """Delta-update all m parities after one member write.

        An in-place read-modify-write of the parity buffer: one GF addmul
        pass per parity plus a small fixed cost — cheaper than a stripe
        re-encode by construction, which is the asymmetry CoREC exploits.
        """
        return (m * nbytes) / self.gf_bps + self.parity_op_s


class StagingServer:
    """One staging server: store + CPU slot + workload statistics."""

    def __init__(
        self,
        sim: Simulator,
        server_id: int,
        costs: CostModel | None = None,
        tiers=None,
    ):
        self.sim = sim
        self.server_id = server_id
        self.name = f"s{server_id}"
        self.costs = costs or CostModel()
        self.cpu = Resource(sim)  # one slot: request processing and encoding serialize
        self.store: dict[str, np.ndarray] = {}
        # Optional multi-tier backing store (the paper's future-work
        # extension): placement/capacity/migration are tracked per object
        # and the cumulative tier access time is reported in
        # ``tier_busy_s`` (an accounting statistic layered on top of the
        # flat-memory timing model).
        self.tiered = None
        self.tier_busy_s = 0.0
        if tiers is not None:
            from repro.staging.tiers import TieredStore

            self.tiered = TieredStore(tiers)
        self.failed = False
        self.epoch = 0  # bumped on replacement; distinguishes incarnations
        self._recent_requests: deque[float] = deque()
        self.requests_served = 0
        self.bytes_stored = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StagingServer {self.name} objs={len(self.store)} failed={self.failed}>"

    # ------------------------------------------------------------------
    # state operations (instantaneous; time charged separately)
    # ------------------------------------------------------------------
    def store_bytes(self, key: str, payload: np.ndarray) -> None:
        if self.failed:
            raise RuntimeError(f"store on failed server {self.name}")
        payload = np.ascontiguousarray(payload, dtype=np.uint8).ravel()
        old = self.store.get(key)
        if old is not None:
            self.bytes_stored -= old.size
        self.store[key] = payload
        self.bytes_stored += payload.size
        if self.tiered is not None:
            self.tier_busy_s += self.tiered.put(key, payload)

    def fetch_bytes(self, key: str) -> np.ndarray:
        if self.failed:
            raise RuntimeError(f"fetch on failed server {self.name}")
        payload = self.store.get(key)
        if payload is None:
            raise KeyError(f"{self.name} has no object {key!r}")
        if self.tiered is not None and key in self.tiered:
            _, cost = self.tiered.fetch(key)
            self.tier_busy_s += cost
        return payload

    def has(self, key: str) -> bool:
        return not self.failed and key in self.store

    def delete_bytes(self, key: str) -> None:
        payload = self.store.pop(key, None)
        if payload is not None:
            self.bytes_stored -= payload.size
        if self.tiered is not None:
            self.tiered.delete(key)

    # ------------------------------------------------------------------
    # failure / replacement
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash: all in-memory content is lost."""
        self.failed = True
        self.store.clear()
        self.bytes_stored = 0
        if self.tiered is not None:
            self.tiered.clear()

    def replace(self) -> None:
        """A fresh replacement server joins under the same id."""
        if not self.failed:
            raise RuntimeError(f"replace called on healthy server {self.name}")
        self.failed = False
        self.epoch += 1
        self.store.clear()
        self.bytes_stored = 0
        if self.tiered is not None:
            self.tiered.clear()
        self._recent_requests.clear()

    # ------------------------------------------------------------------
    # timing and workload
    # ------------------------------------------------------------------
    def note_request(self) -> None:
        now = self.sim.now
        self._recent_requests.append(now)
        cutoff = now - WORKLOAD_WINDOW_S
        while self._recent_requests and self._recent_requests[0] < cutoff:
            self._recent_requests.popleft()

    def workload_level(self) -> float:
        """Current load: queue depth plus recent request rate (normalized).

        Dimensionless; only used for *comparisons* between servers in a
        replication group when placing the encoding token.
        """
        now = self.sim.now
        cutoff = now - WORKLOAD_WINDOW_S
        while self._recent_requests and self._recent_requests[0] < cutoff:
            self._recent_requests.popleft()
        rate = len(self._recent_requests) / WORKLOAD_WINDOW_S
        return self.cpu.queued + self.cpu.in_use + 0.01 * rate
