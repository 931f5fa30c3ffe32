"""Multi-tier staging storage (the paper's future-work extension).

Section VI: "we plan to expand CoREC to support multiple storage layers,
for example, using NVRAM and SSD, and designing new models for data
resilience that incorporate utility-based data placement across these
layers."

This module implements that extension:

- :class:`StorageTier` — a layer's capacity and speed (DRAM, NVRAM, SSD);
- :class:`TieredStore` — a per-server object store that places objects
  across tiers by *utility* and migrates them under capacity pressure;
- :func:`default_tiers` — a DRAM + NVRAM + SSD stack with realistic speed
  ratios.

Utility model
-------------
An object's placement utility on tier ``t`` is the access-rate-weighted
speed benefit per byte of capacity consumed::

    utility(obj, t) = access_rate(obj) * (1 / t.read_latency) / t.byte_pressure

In practice this reduces to the intuitive policy the paper sketches:
**primary (live) data belongs in DRAM; redundancy (replicas, parity) —
written on every update but read only during recovery — belongs in the
capacity tiers.**  Under DRAM pressure, the store demotes the
lowest-utility objects down-tier; a fetch of a down-tier object charges
the tier's read penalty and optionally promotes it back.

The store tracks byte occupancy per tier so the resilience policy can keep
its storage-efficiency constraint against the *DRAM* budget (the scarce
resource) rather than total bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = ["StorageTier", "TieredStore", "default_tiers", "TierPlacementRule"]


@dataclass(frozen=True)
class StorageTier:
    """One storage layer of a staging server."""

    name: str
    capacity_bytes: int           # 0 = unbounded (the bottom tier)
    write_bps: float
    read_bps: float
    latency_s: float = 0.0

    def write_time(self, nbytes: int) -> float:
        return self.latency_s + nbytes / self.write_bps

    def read_time(self, nbytes: int) -> float:
        return self.latency_s + nbytes / self.read_bps


def default_tiers(dram_bytes: int, nvram_bytes: int = 0, ssd: bool = True) -> list[StorageTier]:
    """A DRAM + NVRAM + SSD stack with Titan-era speed ratios.

    DRAM ~20 GB/s, NVRAM ~2 GB/s with microsecond latency, SSD ~500 MB/s
    with tens of microseconds latency.  The bottom tier is unbounded.
    """
    tiers = [StorageTier("dram", dram_bytes, write_bps=20e9, read_bps=20e9)]
    if nvram_bytes:
        tiers.append(
            StorageTier("nvram", nvram_bytes, write_bps=2e9, read_bps=3e9, latency_s=1e-6)
        )
    if ssd:
        tiers.append(
            StorageTier("ssd", 0, write_bps=5e8, read_bps=5e8, latency_s=3e-5)
        )
    return tiers


@dataclass
class TierPlacementRule:
    """Which tier classes of objects *prefer*.

    Key kinds follow the runtime's store-key layout: ``P/`` primary
    copies, ``R/`` replicas, ``stripe`` parity shards.  Redundancy prefers
    the first capacity tier when one exists (it is written often but read
    only during recovery).
    """

    primary_tier: int = 0
    replica_tier: int = 1
    parity_tier: int = 1

    def preferred(self, key: str, n_tiers: int) -> int:
        if key.startswith("P/"):
            idx = self.primary_tier
        elif key.startswith("R/"):
            idx = self.replica_tier
        else:
            idx = self.parity_tier
        return min(idx, n_tiers - 1)


class TieredStore:
    """A per-server object store spread across storage tiers.

    The mapping interface mirrors the flat dict the runtime uses (``get``,
    ``__contains__`` etc. via the owning server); additionally every put
    and fetch reports the tier *time cost* so the simulator can charge it.
    """

    def __init__(
        self,
        tiers: Iterable[StorageTier],
        rule: TierPlacementRule | None = None,
    ):
        self.tiers = list(tiers)
        if not self.tiers:
            raise ValueError("need at least one tier")
        if any(t.capacity_bytes == 0 for t in self.tiers[:-1]):
            raise ValueError("only the bottom tier may be unbounded")
        self.rule = rule or TierPlacementRule()
        self._objects: dict[str, np.ndarray] = {}
        self._tier_of: dict[str, int] = {}
        # Access rates: incremented on fetch, optionally decayed by the
        # tiering layer so the utility ordering tracks *recent* heat.
        self._access: dict[str, float] = {}
        self.occupancy = [0] * len(self.tiers)
        self.migrations_down = 0
        self.migrations_up = 0

    # ------------------------------------------------------------------
    # mapping-style access (state)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def get(self, key: str):
        return self._objects.get(key)

    def keys(self):
        return self._objects.keys()

    def tier_of(self, key: str) -> str:
        return self.tiers[self._tier_of[key]].name

    # ------------------------------------------------------------------
    def _fits(self, tier_idx: int, nbytes: int) -> bool:
        cap = self.tiers[tier_idx].capacity_bytes
        return cap == 0 or self.occupancy[tier_idx] + nbytes <= cap

    def _utility(self, key: str) -> float:
        """Objects with low utility are demoted first under pressure."""
        rate = self._access.get(key, 0)
        kind_bias = 2.0 if key.startswith("P/") else 1.0
        size = self._objects[key].size or 1
        return kind_bias * (1 + rate) / size

    def _evict_from(self, tier_idx: int, needed: int) -> float:
        """Demote lowest-utility objects from ``tier_idx`` until ``needed``
        bytes fit.  Returns the migration time cost."""
        if tier_idx + 1 >= len(self.tiers):
            raise RuntimeError("bottom tier is full — increase its capacity")
        cost = 0.0
        candidates = sorted(
            (k for k, t in self._tier_of.items() if t == tier_idx),
            key=self._utility,
        )
        for key in candidates:
            if self._fits(tier_idx, needed):
                break
            payload = self._objects[key]
            cost += self._place(key, payload, tier_idx + 1, replace=True)
            self.migrations_down += 1
        if not self._fits(tier_idx, needed):
            raise RuntimeError(f"tier {self.tiers[tier_idx].name} cannot make room")
        return cost

    def _place(self, key: str, payload: np.ndarray, tier_idx: int, replace: bool) -> float:
        """Put bytes on a tier (evicting down-tier as needed); returns time."""
        cost = 0.0
        if not self._fits(tier_idx, payload.size):
            cost += self._evict_from(tier_idx, payload.size)
        if replace and key in self._objects:
            old_tier = self._tier_of[key]
            self.occupancy[old_tier] -= self._objects[key].size
        self._objects[key] = payload
        self._tier_of[key] = tier_idx
        self.occupancy[tier_idx] += payload.size
        cost += self.tiers[tier_idx].write_time(payload.size)
        return cost

    # ------------------------------------------------------------------
    # timed operations
    # ------------------------------------------------------------------
    def put(self, key: str, payload: np.ndarray) -> float:
        """Store ``payload`` under ``key``; returns the tier write time."""
        payload = np.ascontiguousarray(payload, dtype=np.uint8).ravel()
        tier_idx = self.rule.preferred(key, len(self.tiers))
        # Find the highest preferred-or-lower tier with room (evicting only
        # within the preferred tier itself).
        return self._place(key, payload, tier_idx, replace=True)

    def fetch(self, key: str) -> tuple[np.ndarray, float]:
        """Read ``key``; returns (payload, tier read time)."""
        payload = self._objects[key]
        tier_idx = self._tier_of[key]
        self._access[key] = self._access.get(key, 0) + 1
        cost = self.tiers[tier_idx].read_time(payload.size)
        preferred = self.rule.preferred(key, len(self.tiers))
        if tier_idx > preferred and self._fits(preferred, payload.size):
            cost += self._place(key, payload, preferred, replace=True)
            self.migrations_up += 1
        return payload, cost

    def decay_access(self, factor: float) -> None:
        """Geometrically decay access rates (EWMA with no new samples).

        Called at step barriers by the adaptive-tiering layer; rates below
        a small floor are dropped so a long-idle store frees its tracking.
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError("decay factor must be in [0, 1]")
        decayed = {}
        for key, rate in self._access.items():
            rate *= factor
            if rate >= 1e-3:
                decayed[key] = rate
        self._access = decayed

    def delete(self, key: str) -> None:
        payload = self._objects.pop(key, None)
        if payload is not None:
            tier_idx = self._tier_of.pop(key)
            self.occupancy[tier_idx] -= payload.size
            self._access.pop(key, None)

    def clear(self) -> None:
        self._objects.clear()
        self._tier_of.clear()
        self._access.clear()
        self.occupancy = [0] * len(self.tiers)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "occupancy": {
                t.name: self.occupancy[i] for i, t in enumerate(self.tiers)
            },
            "objects": len(self._objects),
            "migrations_down": self.migrations_down,
            "migrations_up": self.migrations_up,
        }
