"""Response-time and execution-breakdown accounting.

Everything the paper's evaluation reports comes from here:

- **write/read response time** (Figure 8, 10, 11, 12): per-request samples
  recorded by the service's put/get flows;
- **execution-time breakdown** (Figure 9): cumulative transport / metadata /
  encode / classify (plus decode / recovery / store) durations attributed by
  the runtime helpers as they execute;
- **storage efficiency** (write-efficiency ratio in Figure 8): tracked
  incrementally by :class:`StorageAccountant` so constraint enforcement is
  O(1) per transition instead of a directory scan.

All named metrics live in one :class:`repro.obs.registry.MetricsRegistry`:
event counters are registry counters (``Metrics.counters`` stays available
as a read view), put/get response times feed a constant-memory
``RunningStat`` plus a fixed-bucket histogram for p50/p95/p99/max tail
accounting (no per-request sample is kept: a server's metrics do not grow
with the requests it has served), and the storage accountant publishes
byte gauges.  Components with internal counters (codec decode caches,
coding batches) register gauges into the same registry, replacing
the old scattered ``Counter`` dicts with one queryable namespace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry
from repro.util.stats import RunningStat

__all__ = ["Metrics", "StorageAccountant", "BREAKDOWN_CATEGORIES"]

BREAKDOWN_CATEGORIES = (
    "transport",
    "metadata",
    "encode",
    "classify",
    "decode",
    "recovery",
    "store",
)


@dataclass
class StorageAccountant:
    """Incremental original/replica/parity byte totals.

    Kept by the :class:`~repro.staging.metadata.MetadataDirectory` that
    owns it, in O(1) from the same hooks that keep its indexes; its full
    walk, ``storage_breakdown``, is the reference they are checked against.
    """

    original: int = 0
    replica: int = 0
    parity: int = 0

    def efficiency(self) -> float:
        total = self.original + self.replica + self.parity
        return self.original / total if total else 1.0

    def would_be_efficiency(self, d_original: int = 0, d_replica: int = 0, d_parity: int = 0) -> float:
        """Efficiency after a hypothetical delta (for admission decisions)."""
        orig = self.original + d_original
        total = orig + self.replica + d_replica + self.parity + d_parity
        return orig / total if total else 1.0

    def register_gauges(self, registry: MetricsRegistry, prefix: str = "storage") -> None:
        """Publish the byte counts and efficiency as registry gauges."""
        registry.gauge(f"{prefix}.original_bytes", lambda: self.original)
        registry.gauge(f"{prefix}.replica_bytes", lambda: self.replica)
        registry.gauge(f"{prefix}.parity_bytes", lambda: self.parity)
        registry.gauge(f"{prefix}.efficiency", self.efficiency)


class Metrics:
    """Shared metrics sink for one simulated workflow run.

    :meth:`register_category` extends the execution breakdown beyond
    :data:`BREAKDOWN_CATEGORIES` (e.g. recovery sub-phases) — ``add_time``
    on an unregistered category stays a hard error so typos don't silently
    siphon time into nowhere.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.put_stat = RunningStat()
        self.get_stat = RunningStat()
        self.breakdown: dict[str, float] = {c: 0.0 for c in BREAKDOWN_CATEGORIES}
        self.storage = StorageAccountant()
        self.storage.register_gauges(self.registry)
        self.put_hist = self.registry.histogram("put_response_s")
        self.get_hist = self.registry.histogram("get_response_s")

    # ------------------------------------------------------------------
    def add_time(self, category: str, dt: float) -> None:
        if category not in self.breakdown:
            raise KeyError(f"unknown breakdown category {category!r}")
        self.breakdown[category] += dt

    def register_category(self, category: str) -> None:
        """Allow ``add_time`` on a new breakdown category (idempotent)."""
        self.breakdown.setdefault(category, 0.0)

    def count(self, name: str, n: int = 1) -> None:
        self.registry.counter(name).inc(n)

    @property
    def counters(self) -> Counter[str]:
        """Read view of the event counters (legacy ``Counter`` shape).

        Counters live in the registry; this rebuilds the classic mapping
        in creation order, so ``dict(metrics.counters)`` round-trips
        byte-identically with pre-registry runs.
        """
        return Counter(self.registry.counters())

    def record_put(self, duration: float) -> None:
        self.put_stat.add(duration)
        self.put_hist.observe(duration)

    def record_get(self, duration: float) -> None:
        self.get_stat.add(duration)
        self.get_hist.observe(duration)

    # ------------------------------------------------------------------
    def write_efficiency(self) -> float:
        """The paper's Figure 8 red line: write response / storage efficiency.

        Lower is better (good latency at good storage efficiency).
        """
        eff = self.storage.efficiency()
        return self.put_stat.mean / eff if eff > 0 else float("inf")

    def snapshot(self) -> dict:
        """Plain-dict summary for bench harness tables."""
        return {
            "put_mean_s": self.put_stat.mean,
            "put_total_s": self.put_stat.total,
            "put_n": self.put_stat.n,
            "get_mean_s": self.get_stat.mean,
            "get_total_s": self.get_stat.total,
            "get_n": self.get_stat.n,
            "storage_efficiency": self.storage.efficiency(),
            "write_efficiency": self.write_efficiency(),
            "breakdown": dict(self.breakdown),
            "counters": dict(self.counters),
            "put_percentiles_s": self.put_hist.percentiles(),
            "get_percentiles_s": self.get_hist.percentiles(),
        }
