"""Post-processing and reporting helpers for experiment results.

The benchmark harness writes raw series to ``benchmarks/results/*.json``;
this module turns them (or live :class:`~repro.core.metrics.Metrics`
objects) into comparisons and terminal-friendly plots:

- :func:`load_results` / :func:`list_results` — read the result store;
- :func:`ascii_series` — a Figure-10-style per-timestep line plot;
- :func:`ascii_bars` — a Figure-8-style bar chart.

Everything is pure stdlib + numpy, so reports render anywhere (including
the CI logs the bench suite runs in).
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "load_results",
    "list_results",
    "ascii_series",
    "ascii_bars",
]

DEFAULT_RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "results",
)


def list_results(results_dir: str | None = None) -> list[str]:
    """Names of stored experiment results (without the .json suffix)."""
    d = results_dir or DEFAULT_RESULTS_DIR
    if not os.path.isdir(d):
        return []
    return sorted(f[:-5] for f in os.listdir(d) if f.endswith(".json"))


def load_results(name: str, results_dir: str | None = None):
    """Load one experiment's stored payload."""
    d = results_dir or DEFAULT_RESULTS_DIR
    path = os.path.join(d, f"{name}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# terminal plots
# ---------------------------------------------------------------------------

def ascii_series(
    series: Mapping[str, Sequence[float]],
    height: int = 12,
    width: int | None = None,
    title: str = "",
) -> str:
    """Render one or more per-timestep series as an ASCII line plot.

    Each series gets a marker character; points at the same cell show the
    later series' marker. The x axis is the sample index (timestep).
    """
    markers = "*o+x#@%&"
    names = list(series)
    data = [np.asarray(series[n], dtype=float) for n in names]
    n_points = max(len(d) for d in data)
    width = width or n_points
    lo = min(float(np.nanmin(d)) for d in data)
    hi = max(float(np.nanmax(d)) for d in data)
    if hi <= lo:
        hi = lo + 1.0
    grid = [[" "] * n_points for _ in range(height)]
    for si, d in enumerate(data):
        for x, v in enumerate(d):
            if np.isnan(v):
                continue
            y = int(round((v - lo) / (hi - lo) * (height - 1)))
            grid[height - 1 - y][x] = markers[si % len(markers)]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        label = hi if i == 0 else (lo if i == height - 1 else None)
        prefix = f"{label:10.4g} |" if label is not None else " " * 10 + " |"
        lines.append(prefix + "".join(row))
    lines.append(" " * 11 + "-" * n_points)
    legend = "  ".join(f"{markers[i % len(markers)]}={n}" for i, n in enumerate(names))
    lines.append(" " * 11 + legend)
    return "\n".join(lines)


def ascii_bars(
    values: Mapping[str, float],
    width: int = 50,
    title: str = "",
    fmt: str = "{:.3f}",
) -> str:
    """Render labeled values as horizontal ASCII bars."""
    if not values:
        return title
    longest = max(len(k) for k in values)
    peak = max(values.values()) or 1.0
    lines = [title] if title else []
    for name, value in values.items():
        bar = "#" * max(1, int(round(value / peak * width)))
        lines.append(f"{name.ljust(longest)} | {bar} {fmt.format(value)}")
    return "\n".join(lines)
