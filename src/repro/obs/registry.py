"""A unified registry of counters, gauges and fixed-bucket histograms.

Every metric the repro reports used to live in a scattered mix of
``collections.Counter`` dicts, plain ints on the codec, and ad-hoc
attributes.  The registry gives them one namespace, one snapshot call,
and — new — tail-percentile accounting via :class:`Histogram`, which is
what the paper's response-time figures actually need beyond means.

Metrics are created on first use (``registry.counter(name)`` is
get-or-create) and snapshots preserve creation order, so a deterministic
run produces a deterministic snapshot.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections.abc import Mapping
from typing import Any, Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StatCounters",
    "latency_edges",
]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value: either set directly or read via callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Callable[[], Any] | None = None):
        self.name = name
        self._value: Any = 0
        self._fn = fn

    def set(self, value: Any) -> None:
        if self._fn is not None:
            raise RuntimeError(f"gauge {self.name!r} is callback-backed")
        self._value = value

    @property
    def value(self) -> Any:
        return self._fn() if self._fn is not None else self._value

    def snapshot(self) -> Any:
        return self.value


class StatCounters(Mapping):
    """A fixed family of counters safe to increment from any thread.

    Drop-in replacement for a plain-dict stat global (``PROTO_STATS``)
    whose ``d[k] += 1`` read-modify-write raced across client threads.
    Reads keep the dict interface (``stats["passes"]``, ``dict(stats)``)
    so existing call sites and benchmarks work unchanged; all mutation
    goes through :meth:`inc` under a lock.
    """

    __slots__ = ("_lock", "_values")

    def __init__(self, names: Iterable[str] = ()):
        self._lock = threading.Lock()
        self._values: dict[str, int] = {name: 0 for name in names}

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._values[name] = self._values.get(name, 0) + n

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)

    def register_gauges(self, registry: "MetricsRegistry", prefix: str) -> None:
        """Expose every counter as ``<prefix>.<name>`` callback gauges."""
        for name in self._values:
            registry.gauge(f"{prefix}.{name}", lambda n=name: self._values[n])

    # Mapping interface (reads are racy-but-atomic dict lookups, which is
    # fine for monotonically increasing ints).
    def __getitem__(self, name: str) -> int:
        return self._values[name]

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StatCounters({self._values!r})"


def latency_edges(lo: float = 1e-6, hi: float = 1e3, per_decade: int = 9) -> tuple[float, ...]:
    """Log-spaced bucket edges covering [lo, hi] (seconds by convention).

    ``per_decade`` buckets per power of ten gives ~±12% relative
    resolution at 9/decade — tight enough that a bucket-interpolated p99
    lands within one bucket of the exact sample percentile.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    n_decades = math.log10(hi / lo)
    n = max(1, int(round(n_decades * per_decade)))
    ratio = (hi / lo) ** (1.0 / n)
    edges = [lo * ratio**i for i in range(n + 1)]
    edges[-1] = hi  # kill accumulated float drift at the top edge
    return tuple(edges)


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    Buckets are defined by ``edges``: bucket ``i`` covers
    ``[edges[i], edges[i+1])``, with one underflow bucket below
    ``edges[0]`` and one overflow bucket at/above ``edges[-1]``.
    Percentiles are estimated by linear interpolation inside the bucket
    containing the requested rank (exact min/max are tracked separately,
    so ``p0``/``p100`` are exact).  Memory is O(buckets), independent of
    sample count.
    """

    __slots__ = ("name", "edges", "counts", "n", "total", "min", "max")

    def __init__(self, name: str, edges: Iterable[float] | None = None):
        self.name = name
        self.edges = tuple(float(e) for e in (edges if edges is not None else latency_edges()))
        if len(self.edges) < 2:
            raise ValueError("histogram needs at least two bucket edges")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        # counts[0] = underflow, counts[-1] = overflow.
        self.counts = [0] * (len(self.edges) + 1)
        self.n = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, x: float) -> None:
        x = float(x)
        self.counts[bisect_right(self.edges, x)] += 1
        self.n += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile, ``q`` in [0, 1]; 0.0 on empty data."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.n == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * self.n
        seen = 0.0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                frac = (rank - seen) / c
                # Bucket bounds, clamped to observed extremes for the
                # open-ended under/overflow buckets.
                lo = self.edges[i - 1] if i >= 1 else self.min
                hi = self.edges[i] if i < len(self.edges) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                return lo + frac * (hi - lo)
            seen += c
        return self.max  # pragma: no cover - rank <= n always hits a bucket

    def percentiles(self) -> dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max if self.n else 0.0,
        }

    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "n": self.n,
            "mean": self.mean,
            "min": self.min if self.n else 0.0,
            "total": self.total,
        }
        out.update(self.percentiles())
        return out


class MetricsRegistry:
    """Namespace of metrics; get-or-create accessors, one flat snapshot."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # Guards registry *structure* (creation, name iteration) against
        # concurrent access from other threads (a caller reading a
        # ``serve_in_thread`` server's registry).  The metrics themselves
        # stay lock-free: counters/histograms are only mutated from the
        # owning (loop) thread, gauges read racy-but-atomic values.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, cls, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str, fn: Callable[[], Any] | None = None) -> Gauge:
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name, fn))
        if fn is not None and gauge._fn is None:
            gauge._fn = fn  # late-bound callback on a pre-registered gauge
        return gauge

    def histogram(self, name: str, edges: Iterable[float] | None = None) -> Histogram:
        return self._get_or_create(name, Histogram, lambda: Histogram(name, edges))

    # ------------------------------------------------------------------
    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._metrics)

    def items(self):
        with self._lock:
            return list(self._metrics.items())

    def counters(self) -> dict[str, int]:
        """Creation-ordered ``{name: value}`` of the plain counters."""
        return {
            name: m.value for name, m in self.items() if isinstance(m, Counter)
        }

    def snapshot(self) -> dict[str, Any]:
        """Flat ``{name: value}`` dict; histograms expand to summary dicts.

        The metric list is copied under the lock, then each metric is
        snapshotted outside it (gauge callbacks may themselves take
        locks, e.g. :meth:`StatCounters.snapshot`).
        """
        return {name: m.snapshot() for name, m in self.items()}
