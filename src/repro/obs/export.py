"""Trace and metrics exporters.

Three output shapes:

- **Chrome trace JSON** (:func:`chrome_trace` / :func:`write_chrome_trace`):
  the ``trace_event`` format that ``chrome://tracing`` and Perfetto load.
  Spans become complete (``"ph": "X"``) events with microsecond
  timestamps; zero-duration spans become instants (``"ph": "i"``).
  Because simulator flows overlap freely, spans are packed onto synthetic
  "threads" (tids) such that every tid holds a properly nested (laminar)
  family — Perfetto then renders each tid as a flame chart.  A child is
  placed on its parent's tid whenever it nests under everything open
  there, so request trees read top-down.
- **JSONL dumps** (:func:`write_spans_jsonl` / :func:`write_events_jsonl`):
  one JSON object per line, for ad-hoc ``jq``/pandas analysis and for the
  CI schema check.
- **Metrics snapshot** (:func:`write_metrics_json`): the flat registry
  snapshot plus the legacy ``Metrics.snapshot()`` dict.

:func:`write_trace_dir` writes all of them (plus the Prometheus text dump)
into one directory — the artifact set of ``repro trace``, ``repro live
--trace-dir``, a failing chaos campaign and the traced benches alike.

All exporters sort nothing and randomize nothing: output order is span
id / event order, so deterministic runs export byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Iterable, Sequence

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import Span, Tracer

__all__ = [
    "chrome_trace",
    "prometheus_text",
    "span_rows",
    "span_summary",
    "spans_to_breakdown",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_metrics_json",
    "write_prometheus_text",
    "write_spans_jsonl",
    "write_trace_dir",
]

_US = 1e6  # trace_event timestamps are microseconds


def _assign_tids(spans: Sequence[Span]) -> dict[int, int]:
    """Pack spans onto tids so each tid's events nest properly.

    Spans arrive in start order.  Each tid keeps a stack of open
    intervals; a span may join a tid if every open interval on it fully
    contains the span (flame-chart nesting).  The parent's tid is tried
    first so trees stay together; overlapping siblings spill onto fresh
    tids.  Deterministic by construction.
    """
    tids: dict[int, int] = {}
    stacks: list[list[float]] = []  # per-tid stack of open-interval end times

    def fits(stack: list[float], t0: float, t1: float) -> bool:
        while stack and stack[-1] <= t0:
            stack.pop()
        return not stack or stack[-1] >= t1

    for span in spans:
        t0 = span.t0
        t1 = span.t1 if span.t1 is not None else span.t0
        order: list[int] = []
        if span.parent_id in tids:
            order.append(tids[span.parent_id])
        order.extend(i for i in range(len(stacks)) if i not in order)
        for tid in order:
            if fits(stacks[tid], t0, t1):
                stacks[tid].append(t1)
                tids[span.span_id] = tid
                break
        else:
            stacks.append([t1])
            tids[span.span_id] = len(stacks) - 1
    return tids


def chrome_trace(
    tracer: Tracer,
    process_name: str = "repro-staging",
    clock: str = "simulated seconds",
) -> dict[str, Any]:
    """Render the tracer's spans as a ``trace_event`` JSON object.

    ``clock`` labels the time domain in ``otherData`` (``"simulated
    seconds"`` for sim traces, ``"wall-clock seconds"`` for live ones) so
    a Perfetto reader knows what the microsecond timestamps mean.
    """
    spans = tracer.spans
    tids = _assign_tids(spans)
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        t1 = span.t1 if span.t1 is not None else span.t0
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        common = {
            "name": span.name,
            "cat": span.category or "span",
            "pid": 1,
            "tid": tids[span.span_id],
            "ts": span.t0 * _US,
            "args": args,
        }
        if t1 > span.t0:
            events.append({**common, "ph": "X", "dur": (t1 - span.t0) * _US})
        else:
            events.append({**common, "ph": "i", "s": "t"})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": clock, "spans": len(spans)},
    }


def span_rows(tracer: Tracer) -> list[dict[str, Any]]:
    """Spans as plain dicts, in span-id order (the JSONL payload)."""
    return [span.to_dict() for span in tracer.spans]


def spans_to_breakdown(spans: Iterable[Span]) -> dict[str, float]:
    """Sum the ``booked`` cost attribute of leaf spans per category.

    Leaf instrumentation (``transfer`` / ``busy`` / ``metadata_update``)
    stamps each span with the exact duration it charged to
    ``Metrics.breakdown``; summing those in span order reproduces the
    breakdown, which the integration tests use to prove the trace and the
    aggregate metrics agree.
    """
    out: dict[str, float] = {}
    for span in spans:
        booked = span.attrs.get("booked")
        if booked is None or not span.category:
            continue
        out[span.category] = out.get(span.category, 0.0) + booked
    return out


def span_summary(rows: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Summary of span dicts (:func:`span_rows` or a parsed ``spans.jsonl``).

    ``by_span`` holds the per-span-name duration table (count, total,
    p50/p95/p99/max), largest total first; ``attribution`` the same table
    over the per-category ``breakdown`` attrs that live dispatch spans
    carry.  A simulator trace has no trace ids and no breakdowns, so it
    reads 0 traces / 0 attributed requests.
    """
    by_span, by_category = MetricsRegistry(), MetricsRegistry()
    trace_ids: set[str] = set()
    n_spans = n_requests = 0
    for row in rows:
        n_spans += 1
        if row.get("trace_id"):
            trace_ids.add(row["trace_id"])
        by_span.histogram(row["name"]).observe(float(row["t1"]) - float(row["t0"]))
        breakdown = (row.get("attrs") or {}).get("breakdown")
        if breakdown:
            n_requests += 1
            for category, dt in breakdown.items():
                by_category.histogram(category).observe(float(dt))

    def table(registry: MetricsRegistry) -> list[dict[str, Any]]:
        named = [{"name": name, **snap} for name, snap in registry.snapshot().items()]
        return sorted(named, key=lambda r: -r["total"])

    return {
        "spans": n_spans,
        "traces": len(trace_ids),
        "requests": n_requests,
        "by_span": table(by_span),
        "attribution": table(by_category),
    }


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _PROM_BAD.sub("_", name)


def prometheus_text(registry) -> str:
    """Render a :class:`MetricsRegistry` in Prometheus text exposition.

    Counters and numeric gauges map directly; histograms are rendered as
    summaries (``_count``/``_sum`` plus interpolated ``quantile`` series)
    since the registry tracks quantiles, not cumulative buckets.
    Non-numeric gauges (lists, strings) are skipped — Prometheus samples
    are floats.
    """
    lines: list[str] = []
    for name, metric in registry.items():
        pname = _prom_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {pname} counter")
            lines.append(f"{pname} {metric.value}")
        elif isinstance(metric, Gauge):
            value = metric.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {float(value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {pname} summary")
            for q in (0.5, 0.95, 0.99):
                lines.append(f'{pname}{{quantile="{q}"}} {metric.quantile(q)}')
            lines.append(f"{pname}_sum {metric.total}")
            lines.append(f"{pname}_count {metric.n}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# file writers
# ---------------------------------------------------------------------------

def write_chrome_trace(
    path: str,
    tracer: Tracer,
    process_name: str = "repro-staging",
    clock: str = "simulated seconds",
) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(tracer, process_name, clock), fh, indent=1, default=float)
        fh.write("\n")
    return path


def write_prometheus_text(path: str, registry) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(registry))
    return path


def write_spans_jsonl(path: str, tracer: Tracer) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for row in span_rows(tracer):
            fh.write(json.dumps(row, default=float) + "\n")
    return path


def write_events_jsonl(path: str, log) -> str:
    """Dump an :class:`repro.util.eventlog.EventLog` as JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in log:
            fh.write(
                json.dumps(
                    {"t": ev.t, "kind": ev.kind, "source": ev.source, "data": ev.data},
                    default=float,
                )
                + "\n"
            )
    return path


def write_metrics_json(path: str, metrics) -> str:
    """Write ``Metrics.snapshot()`` + the registry snapshot to one file."""
    payload = {"summary": metrics.snapshot(), "registry": metrics.registry.snapshot()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")
    return path


def write_trace_dir(
    out_dir: str,
    tracer: Tracer,
    log,
    metrics,
    process_name: str = "repro-staging",
    clock: str = "simulated seconds",
) -> dict[str, str]:
    """Write every trace/metrics artifact of one run into ``out_dir``.

    ``trace.json`` (Perfetto), ``spans.jsonl``, ``events.jsonl``,
    ``metrics.json`` and ``metrics.prom``; returns their paths by
    artifact name.
    """
    os.makedirs(out_dir, exist_ok=True)
    join = os.path.join
    return {
        "chrome_trace": write_chrome_trace(
            join(out_dir, "trace.json"), tracer, process_name, clock
        ),
        "spans": write_spans_jsonl(join(out_dir, "spans.jsonl"), tracer),
        "events": write_events_jsonl(join(out_dir, "events.jsonl"), log),
        "metrics": write_metrics_json(join(out_dir, "metrics.json"), metrics),
        "prometheus": write_prometheus_text(join(out_dir, "metrics.prom"), metrics.registry),
    }
