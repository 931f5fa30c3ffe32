"""Option census: every defaulted option has a non-test setter or a reason.

An *option* is a defaulted field of a ``*Config`` / ``*Spec`` / ``*Model`` /
``*Costs`` dataclass or a defaulted ``__init__`` parameter of any class under
``src/repro``.  Option ``C.f`` is *set* only by one of these, read from
``src/``, ``benchmarks/`` and ``examples/`` (tests do not count):

- a call to ``C`` (by name or attribute, or ``super().__init__`` inside a
  subclass) that passes ``f``, by keyword or by position;
- ``dataclasses.replace`` on a ``C`` (``self`` or an argument annotated ``C``);
- a keyword, or a key of a dict literal, passed to a named forwarder whose
  ``**kwargs`` or options dict reaches ``C`` (``FORWARDERS``);
- a committed tape's meta record: its ``config`` reaches ``StagingConfig``
  and its ``policy`` options reach the policy classes.

An option is *unset* when every setter passes the literal that is already
its default.  An unset option is a constant wearing a parameter: it becomes
one, or it is listed in ``KEPT`` with the reason it stays.  The total is a
ceiling, so the count cannot creep back; lower it when options go.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OPTION_CLASS_SUFFIXES = ("Config", "Spec", "Model", "Costs")
TOTAL_CEILING = 168  # 248 at the first census, 186 before matching by owner, 170 with read_pattern

_POLICIES = ("ReplicationPolicy", "ErasurePolicy", "SimpleHybridPolicy", "CoRECConfig")
_LIVE = ("StagingService", "LiveStagingService", "LiveCluster")
# forwarder -> classes its keywords (and, for policy specs, options dicts) reach.
FORWARDERS: dict[str, tuple[str, ...]] = {
    "open_target": _LIVE,
    "serve_in_thread": ("LiveStagingService",),
    "LiveCluster": ("LiveStagingService",),
    "ClusterClient": ("LiveClient",),
    "policy_from_spec": _POLICIES,
    "bounded_spec": _POLICIES,
    "replay_spec": _POLICIES,
    "with_overrides": _POLICIES,
    "build_service": _POLICIES,
    "run_synthetic": _POLICIES,
}
_SPEC_FORWARDERS = {name for name, to in FORWARDERS.items() if to == _POLICIES}

# reason -> options nobody outside tests sets to a value other than the default.
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
        "NetworkConfig.latency_s",
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
        "SyntheticWorkloadConfig.subdomain_groups",
    ),
    "test seam": (
        "ChaosConfig.placement_mode",
        "ClusterClient.client_factory",
        "RSCode.decode_cache_capacity",
        "CaptureRecorder.inline_limit",
        "WorkloadSpec.config_overrides",
        "WorkloadSpec.gets_per_step",
    ),
    "both generator constructions are substrate (DESIGN.md § 2)": ("RSCode.construction",),
    "benchmarks/e2e passes it by name; it goes with that benchmark's next revision": (
        "LiveStagingService.time_scale",
        "S3DConfig.var",
    ),
    "bench_ext_tiering.py assigns .rule per server (attribute form)": ("TieredStore.rule",),
}

_OTHER = object()  # a value the census cannot read as a literal


def _value(node: ast.AST | None, consts: dict):
    """The literal ``node`` spells (lists read as tuples), else ``_OTHER``."""
    if isinstance(node, ast.Name) and node.id in consts:
        return consts[node.id]
    try:
        return _tuples(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return _OTHER


def _tuples(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tuples(v) for v in value)
    return value


def _module_consts(tree: ast.Module) -> dict:
    consts = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        else:
            continue
        if isinstance(target, ast.Name):
            literal = _value(value, {})
            if literal is not _OTHER:
                consts[target.id] = literal
    return consts


def _options() -> tuple[dict[str, object], dict[str, list[str]]]:
    """``"Class.option"`` -> its default (``_OTHER`` when not a literal), and
    each class's parameters in positional order."""
    found: dict[str, object] = {}
    positional: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        consts = _module_consts(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            is_dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            is_config = is_dataclass and node.name.endswith(OPTION_CLASS_SUFFIXES)
            for stmt in node.body:
                if is_config and isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    positional.setdefault(node.name, []).append(stmt.target.id)
                    if stmt.value is not None:  # a field(default_factory=...) reads as _OTHER
                        found[f"{node.name}.{stmt.target.id}"] = _value(stmt.value, consts)
                elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                    args = stmt.args
                    params = args.posonlyargs + args.args
                    positional[node.name] = [a.arg for a in params[1:]]
                    pairs = list(zip(params[len(params) - len(args.defaults):], args.defaults))
                    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                    for arg, default in pairs:
                        found[f"{node.name}.{arg.arg}"] = _value(default, consts)
    return found, positional


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Setters(ast.NodeVisitor):
    """Collects ``"Class.option"`` -> values passed, by owner-matched rules."""

    def __init__(self, options: dict[str, object], positional: dict, consts: dict):
        self.options = options
        self.positional = positional
        self.consts = consts
        self.values: dict[str, list] = {}
        self.classes: list[ast.ClassDef] = []
        self.annotations: list[dict[str, str]] = []

    def credit(self, owners, name: str, node: ast.AST) -> None:
        for owner in owners:
            if f"{owner}.{name}" in self.options:
                self.values.setdefault(f"{owner}.{name}", []).append(_value(node, self.consts))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        self.annotations.append({
            a.arg: _callee(a.annotation) or ast.unparse(a.annotation).strip("'\"")
            for a in args if a.annotation is not None
        })
        self.generic_visit(node)
        self.annotations.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _owners(self, call: ast.Call) -> tuple[str, ...]:
        name = _callee(call.func)
        here = self.classes[-1] if self.classes else None
        if (
            name == "__init__"
            and isinstance(call.func, ast.Attribute)
            and ast.unparse(call.func.value) == "super()"
            and here is not None
        ):
            return tuple(b for b in map(_callee, here.bases) if b)
        if name == "replace" and call.args:
            target = ast.unparse(call.args[0])
            if target == "self" and here is not None:
                return (here.name,)
            scope = self.annotations[-1] if self.annotations else {}
            return (scope[target],) if target in scope else ()
        return (name,) if name else ()

    def visit_Call(self, node: ast.Call) -> None:
        callee = _callee(node.func)
        owners = self._owners(node)
        reached = FORWARDERS.get(callee, ())
        if callee != "replace":
            for owner in owners:
                for arg, name in zip(node.args, self.positional.get(owner, ())):
                    if isinstance(arg, ast.Starred):
                        break
                    self.credit((owner,), name, arg)
        for kw in node.keywords:
            if kw.arg:
                self.credit(owners + reached, kw.arg, kw.value)
        if callee in _SPEC_FORWARDERS:
            for arg in node.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Dict):
                        for key, value in zip(sub.keys, sub.values):
                            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                                self.credit(_POLICIES, key.value, value)
        self.generic_visit(node)


def _setters(options: dict[str, object], positional: dict) -> dict[str, list]:
    values: dict[str, list] = {}
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            visitor = _Setters(options, positional, _module_consts(tree))
            visitor.visit(tree)
            for opt, seen in visitor.values.items():
                values.setdefault(opt, []).extend(seen)
    for tape in sorted((ROOT / "benchmarks" / "tapes").glob("*.jsonl")):
        with open(tape, encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
        records = [("StagingConfig", meta.get("config", {}))]
        records += [(owner, meta["policy"][1]) for owner in _POLICIES if "policy" in meta]
        for owner, record in records:
            for name, value in record.items():
                if f"{owner}.{name}" in options:
                    values.setdefault(f"{owner}.{name}", []).append(_tuples(value))
    return values


def _unset(options: dict[str, object], setters: dict[str, list]) -> set[str]:
    return {
        opt for opt, default in options.items()
        if all(v is not _OTHER and v == default for v in setters.get(opt, ()))
    }


def test_every_option_has_a_caller_or_a_reason():
    options, positional = _options()
    unset = _unset(options, _setters(options, positional))
    kept = {name for names in KEPT.values() for name in names}

    constants = sorted(unset - kept)
    assert not constants, (
        f"no non-test setter gives these another value than their default, "
        f"make them constants: {constants}"
    )
    assert not kept - set(options), f"KEPT lists gone options: {sorted(kept - set(options))}"
    assert not kept - unset, f"KEPT lists options that now have a setter: {sorted(kept - unset)}"
    assert len(options) <= TOTAL_CEILING, (
        f"{len(options)} defaulted options (ceiling {TOTAL_CEILING}): "
        "a new option needs two existing non-test callers with different values"
    )


def test_a_setter_counts_only_for_its_owner_and_only_off_the_default():
    tree = ast.parse(
        "def build(cfg: Alpha):\n"
        "    Alpha(size=4, name='a')\n"
        "    Beta(size=1)\n"
        "    replace(cfg, depth=x)\n"
        "    open_target('sim', c, p, tracing=True)\n"
        "    policy_from_spec(('corec', {'storage_bound': 0.5}))\n"
        "    Gamma(3)\n"
    )
    options = {
        "Alpha.size": 4, "Alpha.name": "b", "Alpha.depth": 1, "Beta.size": 1,
        "Gamma.size": 2, "StagingService.tracing": False, "CoRECConfig.storage_bound": 0.67,
    }
    visitor = _Setters(options, {"Gamma": ["size"]}, {})
    visitor.visit(tree)
    assert _unset(options, visitor.values) == {"Alpha.size", "Beta.size"}
