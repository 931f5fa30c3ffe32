"""Streaming statistics used by the metrics layer and the bench harness.

The simulator produces many per-request samples (write/read response times,
queue waits, encode durations).  ``RunningStat`` accumulates them in O(1)
memory with Welford's algorithm; ``TimeSeries`` keeps (time, value) pairs for
per-timestep plots such as the paper's Figure 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunningStat", "TimeSeries", "percentile"]


class RunningStat:
    """Welford one-pass mean/variance with min/max tracking."""

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        x = float(x)
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunningStat(n={self.n}, mean={self.mean:.6g}, std={self.std:.3g})"


@dataclass
class TimeSeries:
    """Append-only (t, value) series."""

    name: str = ""
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, t: float, v: float) -> None:
        self.times.append(float(t))
        self.values.append(float(v))

    def __len__(self) -> int:
        return len(self.times)

    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else 0.0


def percentile(xs, q: float) -> float:
    """Percentile of a sample list (q in [0, 100]); 0.0 for empty input."""
    if len(xs) == 0:
        return 0.0
    return float(np.percentile(np.asarray(xs, dtype=float), q))
