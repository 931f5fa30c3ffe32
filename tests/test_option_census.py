"""Option census: every defaulted option has a non-test caller or a reason.

An *option* is a defaulted field of a ``*Config`` / ``*Spec`` / ``*Model`` /
``*Costs`` dataclass or a defaulted ``__init__`` parameter of any class under
``src/repro``.  A *setter* is a call keyword, a dict key or a ``--flag`` of
that name anywhere under ``src/``, ``benchmarks/`` or ``examples/`` (tests do
not count), or a key of a committed tape's meta record.  The match is by
name, so it errs towards "has a caller".  An option nobody sets is a
constant wearing a parameter: it becomes one, or it is listed in ``KEPT``
with the reason it stays.  The total is a ceiling, so the count cannot creep
back; lower it when options go.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPTION_CLASS_SUFFIXES = ("Config", "Spec", "Model", "Costs")
TOTAL_CEILING = 186  # 248 before the first census

# reason -> options nobody outside tests sets by name.
KEPT: dict[str, tuple[str, ...]] = {
    "deployment setting (timeouts of a real socket / process)": (
        "LiveClient.connect_timeout",
        "LiveClient.reconnect_backoff",
        "LiveCluster.start_timeout",
        "LiveServer.drain_timeout",
    ),
    "number of the paper's cost model, one evaluation path": (
        "CostModel.put_op_s",
        "CostModel.get_op_s",
        "CostModel.parity_op_s",
        "CostModel.classify_op_s",
        "CostModel.metadata_op_s",
        "NetworkConfig.metadata_bytes",
        "CheckpointConfig.redistribute_overhead",
        "RecoveryConfig.sweep_parallelism",
    ),
    "classifier window / threshold of Section II-C, one evaluation path": (
        "ClassifierConfig.hot_threshold",
        "ClassifierConfig.history_len",
    ),
    "Table I field of the synthetic cases": (
        "SyntheticWorkloadConfig.hot_fraction",
        "SyntheticWorkloadConfig.write_probability",
        "SyntheticWorkloadConfig.read_pattern",
        "SyntheticWorkloadConfig.subdomain_groups",
    ),
    "test seam": (
        "ClusterClient.client_factory",
        "RSCode.decode_cache_capacity",
        "CaptureRecorder.inline_limit",
        "WorkloadSpec.config_overrides",
        "WorkloadSpec.gets_per_step",
    ),
    "both generator constructions are substrate (DESIGN.md § 2); passed positionally": (
        "RSCode.construction",
        "StripeCodec.construction",
    ),
    "constructor parameter its one caller passes positionally": (
        "CoRECModel.params",
        "Gauge.fn",
        "Histogram.edges",
        "Interrupt.cause",
    ),
    "bench_ext_tiering.py assigns .rule per server (attribute form)": ("TieredStore.rule",),
}


def _options() -> set[str]:
    found: set[str] = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            is_dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            for stmt in node.body:
                if (
                    is_dataclass
                    and node.name.endswith(OPTION_CLASS_SUFFIXES)
                    and isinstance(stmt, ast.AnnAssign)
                    and stmt.value is not None
                    and isinstance(stmt.target, ast.Name)
                ):
                    found.add(f"{node.name}.{stmt.target.id}")
                elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                    args = stmt.args
                    positional = args.posonlyargs + args.args
                    defaulted = positional[len(positional) - len(args.defaults):]
                    defaulted += [
                        a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                    ]
                    found.update(f"{node.name}.{a.arg}" for a in defaulted)
    return found


def _json_keys(obj, out: set[str]) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.add(key)
            _json_keys(value, out)
    elif isinstance(obj, list):
        for value in obj:
            _json_keys(value, out)


def _setter_names() -> set[str]:
    names: set[str] = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    names.update(
                        k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str)
                    )
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("--")
                ):
                    names.add(node.value[2:].replace("-", "_"))
    for tape in sorted((ROOT / "benchmarks" / "tapes").glob("*.jsonl")):
        with open(tape, encoding="utf-8") as fh:
            _json_keys(json.loads(fh.readline()), names)
    return names


def test_every_option_has_a_caller_or_a_reason():
    options = _options()
    setters = _setter_names()
    kept = {name for names in KEPT.values() for name in names}
    unset = {opt for opt in options if opt.split(".")[1] not in setters}

    assert sorted(unset - kept) == [], "no non-test caller sets these: make them constants"
    assert sorted(kept - options) == [], "KEPT lists options that no longer exist"
    assert sorted(kept - unset) == [], "KEPT lists options that now have a caller"
    assert len(options) <= TOTAL_CEILING, (
        f"{len(options)} defaulted options (ceiling {TOTAL_CEILING}): "
        "a new option needs two existing non-test callers with different values"
    )
