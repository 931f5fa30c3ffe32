"""Observability: sim-time + wall-clock tracing, unified metrics, exporters.

The staging runtime can explain *where time goes* per operation, not just
in aggregate:

- :mod:`repro.obs.tracer` — hierarchical spans (``put -> classify ->
  encode -> transport[shard] -> metadata``, ``get -> locate ->
  fetch/decode``, ``failure -> detect -> re-protect -> reconstruct``)
  on one clock, with contextvar scoping (correct across interleaved
  flows, asyncio tasks and threads) and one ``traced`` flow driver.
  Tracing is off by default: the :data:`NULL_TRACER` singleton makes
  every instrumentation point a no-op so traced and untraced runs
  execute the identical simulation.
- :mod:`repro.obs.wallclock` — the same tracer stamped on
  ``time.monotonic_ns`` for the live backend, with distributed trace
  ids carried through the live protocol and per-request latency
  attribution (microqueue wait, codec, lock hold, socket I/O, ...).
- :mod:`repro.obs.registry` — one registry of counters, gauges and
  fixed-bucket histograms (p50/p95/p99/max) that the metrics layer, the
  storage accountant and the codec caches publish into; plus
  :class:`StatCounters` for stats incremented from several threads.
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (loadable in
  ``chrome://tracing`` / Perfetto), JSONL span dumps, flat metrics
  snapshots, and Prometheus text exposition (``write_trace_dir``: all of
  them into one directory).

See ``docs/OBSERVABILITY.md`` for the span taxonomy and how to read a
trace.
"""

from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, StatCounters
from repro.obs.wallclock import WAIT_CATEGORIES, WallClockTracer
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    span_rows,
    span_summary,
    spans_to_breakdown,
    write_chrome_trace,
    write_metrics_json,
    write_prometheus_text,
    write_spans_jsonl,
    write_trace_dir,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "WallClockTracer",
    "WAIT_CATEGORIES",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "StatCounters",
    "chrome_trace",
    "prometheus_text",
    "span_rows",
    "span_summary",
    "spans_to_breakdown",
    "write_chrome_trace",
    "write_metrics_json",
    "write_prometheus_text",
    "write_spans_jsonl",
    "write_trace_dir",
]
