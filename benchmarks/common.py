"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*.py`` regenerates one table or figure of the paper.  The
simulated deployments reproduce the paper's configuration *ratios* (Table I
and Table II) at proportionally reduced payload sizes — see DESIGN.md for
the substitution argument.  Results are printed as paper-style rows and
recorded in ``benchmarks/results/*.json`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from typing import Callable

import numpy as np

from repro import StagingConfig, StagingService
from repro.core.policies import bounded_spec, policy_from_spec
from repro.core.recovery import RecoveryConfig
from repro.obs.export import write_trace_dir
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# ---------------------------------------------------------------------------
# Paper configurations
# ---------------------------------------------------------------------------

# Table I, verbatim from the paper.
TABLE1_PAPER = {
    "total_cores": 104,
    "writers": 64,
    "staging": 8,
    "readers": 32,
    "volume": (256, 256, 256),
    "in_staging_20ts_mb": 320,
    "replicas": 1,
    "data_objects": 3,
    "parity_objects": 1,
    "coding": "Reed-Solomon",
    "hybrid_storage_efficiency": 0.67,
    "corec_storage_bound": 0.67,
}

# The reproduction keeps every Table I ratio but runs the domain at 64^3
# (1 B elements), i.e. each writer stages a 16^3 block per step.
TABLE1_SIM = {
    "writers": 64,
    "staging": 8,
    "readers": 32,
    "domain": (64, 64, 64),
    "element_bytes": 1,
    "object_max_bytes": 4096,
    "k": 3,
    "m": 1,
    "storage_bound": 0.67,
    "timesteps": 20,
}


def table1_config(seed: int = 1, tracing: bool = False) -> StagingConfig:
    return StagingConfig(
        n_servers=TABLE1_SIM["staging"],
        domain_shape=TABLE1_SIM["domain"],
        element_bytes=TABLE1_SIM["element_bytes"],
        object_max_bytes=TABLE1_SIM["object_max_bytes"],
        n_level=TABLE1_SIM["m"],
        k=TABLE1_SIM["k"],
        nodes_per_cabinet=2,
        tracing=tracing,
        seed=seed,
    )


POLICIES = ("dataspaces", "replicate", "erasure", "hybrid", "corec")

# The simple-hybrid random selection stream of every figure (goldens pin it).
HYBRID_SEED = 11


def build_service(
    policy_name: str,
    seed: int = 1,
    tracing: bool = False,
    recovery: RecoveryConfig | None = None,
    **policy_options,
) -> StagingService:
    """Table I deployment under ``policy_name`` at the Table I storage bound."""
    spec = bounded_spec(policy_name, TABLE1_SIM["storage_bound"], **policy_options)
    return StagingService(
        table1_config(seed=seed, tracing=tracing),
        policy_from_spec(spec, seed=HYBRID_SEED, recovery=recovery),
    )


def run_synthetic(
    policy_name: str,
    case: str,
    timesteps: int = TABLE1_SIM["timesteps"],
    failure_plan: dict | None = None,
    seed: int = 1,
    read_in_write_cases: bool = False,
    trace_dir: str | None = None,
    **policy_kw,
) -> dict:
    """Run one Table I synthetic case; return a result row.

    ``trace_dir`` additionally runs the case with span tracing enabled and
    drops the ``write_trace_dir`` artifact set there.
    Tracing adds no simulator events, so the result row is unaffected;
    golden results are regenerated with tracing off regardless.
    """
    svc = build_service(policy_name, seed=seed, tracing=trace_dir is not None, **policy_kw)
    cfg = SyntheticWorkloadConfig(
        case=case,
        n_writers=TABLE1_SIM["writers"],
        n_readers=TABLE1_SIM["readers"],
        timesteps=timesteps,
        read_in_write_cases=read_in_write_cases,
        failure_plan=failure_plan or {},
    )
    wl = SyntheticWorkload(svc, cfg)
    svc.run_workflow(wl.run())
    svc.run()  # drain background transitions / recovery
    if trace_dir is not None:
        write_trace_dir(
            trace_dir, svc.tracer, svc.log, svc.metrics,
            process_name=f"repro-{case}-{policy_name}",
        )
    m = svc.metrics
    steady_put = (
        float(np.mean(wl.step_put.values[-5:])) if len(wl.step_put) >= 5 else m.put_stat.mean
    )
    return {
        "policy": policy_name,
        "case": case,
        "put_mean_ms": m.put_stat.mean * 1e3,
        "put_steady_ms": steady_put * 1e3,
        "get_mean_ms": m.get_stat.mean * 1e3,
        "storage_efficiency": m.storage.efficiency(),
        "write_efficiency_ms": m.write_efficiency() * 1e3,
        "write_efficiency_steady_ms": (
            steady_put * 1e3 / m.storage.efficiency() if m.storage.efficiency() else float("inf")
        ),
        "breakdown_s": dict(m.breakdown),
        "counters": dict(m.counters),
        "read_errors": svc.read_errors,
        "sim_time_s": svc.sim.now,
        "step_put_ms": [v * 1e3 for v in wl.step_put.values],
        "step_get_ms": [v * 1e3 for v in wl.step_get.values],
        "steps": list(wl.step_get.times) if wl.step_get.times else list(wl.step_put.times),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_table(title: str, rows: list[dict], columns: list[tuple[str, str, str]]) -> None:
    """Print a paper-style table.

    ``columns`` is a list of (key, header, format) triples.
    """
    print(f"\n== {title} ==")
    headers = [h for _, h, _ in columns]
    widths = [max(len(h), 12) for h in headers]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        cells = []
        for (key, _, fmt), w in zip(columns, widths):
            value = row.get(key)
            if value is None:
                cells.append("-".ljust(w))
            else:
                cells.append((fmt.format(value) if fmt else str(value)).ljust(w))
        print("  ".join(cells))


def save_results(name: str, payload) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
    return path


def relative(rows: list[dict], key: str, base_policy: str) -> dict[str, float]:
    """Per-policy ratio of ``key`` against ``base_policy``'s value."""
    base = next(r[key] for r in rows if r["policy"] == base_policy)
    return {r["policy"]: (r[key] / base if base else float("inf")) for r in rows}
