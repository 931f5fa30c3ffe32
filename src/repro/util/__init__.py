"""Shared utilities: seeded RNG streams, statistics, configs, event logs.

These helpers are deliberately dependency-light (numpy only) so every other
subpackage — the erasure-coding substrate, the discrete-event simulator, the
staging service and the CoREC runtime — can build on them without cycles.
"""

from repro.util.rng import RngStreams
from repro.util.stats import RunningStat, TimeSeries, percentile
from repro.util.eventlog import Event, EventLog
from repro.util.units import KB, MB, GB, fmt_bytes, fmt_time

__all__ = [
    "RngStreams",
    "RunningStat",
    "TimeSeries",
    "percentile",
    "Event",
    "EventLog",
    "KB",
    "MB",
    "GB",
    "fmt_bytes",
    "fmt_time",
]
