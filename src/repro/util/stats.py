"""Streaming statistics used by the metrics layer and the bench harness.

The simulator produces many per-request samples (write/read response times,
queue waits, encode durations).  ``RunningStat`` accumulates their count,
total and mean in O(1) memory; ``TimeSeries`` keeps (time, value) pairs for
per-timestep plots such as the paper's Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunningStat", "TimeSeries", "percentile"]


class RunningStat:
    """One-pass count, total and running mean."""

    __slots__ = ("n", "_mean", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self.total = 0.0

    def add(self, x: float) -> None:
        x = float(x)
        self.n += 1
        self.total += x
        self._mean += (x - self._mean) / self.n

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0


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


def percentile(xs, q: float) -> float:
    """Percentile of a sample list (q in [0, 100]); 0.0 for empty input."""
    if len(xs) == 0:
        return 0.0
    return float(np.percentile(np.asarray(xs, dtype=float), q))
