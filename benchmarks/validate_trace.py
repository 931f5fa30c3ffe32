"""Validate exported trace artifacts against the checked-in schema.

Usage::

    python benchmarks/validate_trace.py --trace-dir trace-out \
        [--schema docs/schemas/trace_schema.json]

Checks ``trace.json`` (Chrome ``trace_event`` format) and ``spans.jsonl``
against ``docs/schemas/trace_schema.json``, then runs
structural cross-checks the schema language cannot express: span ids are
unique and in start order, parent links resolve to earlier spans, spans
close no earlier than they open, and every complete trace event nests
properly within its tid (the invariant that makes Perfetto render flame
charts).  Wall-clock rows (``clock: "wall"``, written by the live
backend) additionally must carry a trace id, agree with their parent's
trace id, and keep cross-process links (``attrs.remote_parent``) on
local *roots* only — sim-time traces pass unchanged.

The validator is deliberately dependency-free (the CI image has no
``jsonschema``): it implements the subset of JSON Schema the checked-in
schema uses — ``type`` (single or list), ``required``, ``properties``,
``items``, ``enum``, ``minimum``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def check(value, schema: dict, path: str, errors: list[str]) -> None:
    """Validate ``value`` against the supported JSON-Schema subset."""
    stype = schema.get("type")
    if stype is not None:
        allowed = stype if isinstance(stype, list) else [stype]
        ok = False
        for t in allowed:
            py = _TYPES[t]
            if isinstance(value, py) and not (t in ("integer", "number") and isinstance(value, bool)):
                ok = True
                break
        if not ok:
            errors.append(f"{path}: expected {stype}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path}: missing required key {req!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                check(value[key], sub, f"{path}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            check(item, schema["items"], f"{path}[{i}]", errors)


def _check_chrome_structure(trace: dict, errors: list[str]) -> None:
    """Cross-field invariants of the Chrome trace the schema cannot say."""
    open_by_tid: dict[int, list[float]] = {}
    for i, ev in enumerate(trace.get("traceEvents", [])):
        ph = ev.get("ph")
        if ph == "X" and "dur" not in ev:
            errors.append(f"traceEvents[{i}]: complete event without dur")
        if ph in ("X", "i") and "ts" not in ev:
            errors.append(f"traceEvents[{i}]: event without ts")
        if ph != "X":
            continue
        t0, t1 = ev["ts"], ev["ts"] + ev["dur"]
        stack = open_by_tid.setdefault(ev["tid"], [])
        while stack and stack[-1] <= t0 + 1e-6:
            stack.pop()
        if stack and stack[-1] < t1 - 1e-6:
            errors.append(
                f"traceEvents[{i}]: event [{t0}, {t1}] overlaps an open "
                f"interval ending at {stack[-1]} on tid {ev['tid']}"
            )
        stack.append(t1)


def _check_span_structure(spans: list[dict], errors: list[str]) -> None:
    seen: set[int] = set()
    trace_of: dict[int, str | None] = {}
    prev_id = 0
    for i, span in enumerate(spans):
        sid = span["span_id"]
        if sid in seen:
            errors.append(f"spans[{i}]: duplicate span_id {sid}")
        seen.add(sid)
        if sid <= prev_id:
            errors.append(f"spans[{i}]: span_id {sid} not in start order")
        prev_id = sid
        parent = span["parent_id"]
        if parent is not None and parent not in seen:
            errors.append(f"spans[{i}]: parent_id {parent} does not refer to an earlier span")
        if span["t1"] < span["t0"]:
            errors.append(f"spans[{i}]: t1 {span['t1']} < t0 {span['t0']}")
        # Wall-clock rows add distributed-trace invariants; sim rows
        # (no ``clock`` field) are untouched by all of this.
        if span.get("clock") == "wall":
            trace_id = span.get("trace_id")
            if not trace_id:
                errors.append(f"spans[{i}]: wall-clock span without a trace_id")
            if parent is not None and trace_of.get(parent) not in (None, trace_id):
                errors.append(
                    f"spans[{i}]: trace_id {trace_id!r} differs from parent "
                    f"span {parent}'s {trace_of[parent]!r}"
                )
            if (span.get("attrs") or {}).get("remote_parent") is not None and parent is not None:
                errors.append(
                    f"spans[{i}]: cross-process link (remote_parent) on a span "
                    f"with a local parent_id {parent}"
                )
        elif "trace_id" in span:
            errors.append(f"spans[{i}]: trace_id on a span not marked clock=wall")
        trace_of[sid] = span.get("trace_id")


def validate_dir(trace_dir: str, schema_path: str) -> list[str]:
    with open(schema_path, encoding="utf-8") as fh:
        schemas = json.load(fh)
    errors: list[str] = []

    trace_path = os.path.join(trace_dir, "trace.json")
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    check(trace, schemas["chrome_trace"], "trace", errors)
    _check_chrome_structure(trace, errors)

    spans_path = os.path.join(trace_dir, "spans.jsonl")
    spans = []
    with open(spans_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            check(row, schemas["span"], f"spans:{lineno}", errors)
            spans.append(row)
    _check_span_structure(spans, errors)

    if not spans:
        errors.append("spans.jsonl: no spans — traced run produced an empty trace")
    return errors


def main(argv: list[str] | None = None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument(
        "--schema",
        default=os.path.join(here, "..", "docs", "schemas", "trace_schema.json"),
    )
    args = parser.parse_args(argv)
    errors = validate_dir(args.trace_dir, args.schema)
    if errors:
        for err in errors[:50]:
            print(f"FAIL {err}", file=sys.stderr)
        print(f"{len(errors)} schema violation(s)", file=sys.stderr)
        return 1
    print(f"ok: {args.trace_dir} conforms to {os.path.relpath(args.schema)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
