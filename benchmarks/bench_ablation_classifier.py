"""Ablation — the hot/cold classifier's signals and accuracy.

Sweeps the classifier configuration on the hot-spot pattern (case 3, the
one classification is for):

- full classifier (recency + spatial + temporal lookahead);
- recency only;
- no lookahead;
- random protection (the SimpleHybrid strawman) as the no-classifier floor.

Reports the observed miss ratio and the steady-state write response —
the empirical counterpart of the model's r_m curves in Figure 4.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CoRECConfig, CoRECPolicy, StagingService
from repro.core.classifier import ClassifierConfig

from common import print_table, run_synthetic, save_results, table1_config
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig


def run_variant(name: str, clf: ClassifierConfig | None):
    if clf is None:
        row = run_synthetic("hybrid", "case3")
        row["variant"] = name
        row["miss_ratio"] = float("nan")
        return row
    svc = StagingService(
        table1_config(),
        CoRECPolicy(CoRECConfig(storage_bound=0.67, classifier=clf)),
    )
    wl = SyntheticWorkload(
        svc,
        SyntheticWorkloadConfig(case="case3", n_writers=64, n_readers=32, timesteps=20),
    )
    svc.run_workflow(wl.run())
    svc.run()
    steady = float(np.mean(wl.step_put.values[-5:]))
    return {
        "variant": name,
        "put_mean_ms": svc.metrics.put_stat.mean * 1e3,
        "put_steady_ms": steady * 1e3,
        "miss_ratio": svc.policy.miss_ratio(),
        "read_errors": svc.read_errors,
    }


def ablation():
    return [
        run_variant("full classifier", ClassifierConfig()),
        run_variant("recency only", ClassifierConfig(spatial_radius=0, temporal_lookahead=False)),
        run_variant("no lookahead", ClassifierConfig(temporal_lookahead=False)),
        run_variant("random (simple hybrid)", None),
    ]


def test_ablation_classifier(benchmark):
    rows = benchmark.pedantic(ablation, rounds=1, iterations=1)
    print_table("Ablation: classifier signals (case 3, hot spots)", rows, [
        ("variant", "variant", ""),
        ("put_mean_ms", "write ms", "{:.3f}"),
        ("put_steady_ms", "steady ms", "{:.3f}"),
        ("miss_ratio", "miss ratio", "{:.3f}"),
    ])
    save_results("ablation_classifier", rows)
    by = {r["variant"]: r for r in rows}
    # The classifier converges: once the hot set is identified, hot writes
    # are replica-fast, far below the random-selection strawman.
    assert by["full classifier"]["put_steady_ms"] < by["random (simple hybrid)"]["put_steady_ms"]
    # Miss ratio is a meaningful fraction, not degenerate.
    assert 0.0 <= by["full classifier"]["miss_ratio"] < 0.9
    benchmark.extra_info["miss_full"] = by["full classifier"]["miss_ratio"]
