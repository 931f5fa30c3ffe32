"""Tables I and II — configuration reproduction.

Validates that the simulated deployments preserve every ratio of the
paper's experimental setups: core-count ratios, code geometry RS(3+1),
replica count, storage-efficiency targets and weak-scaling progression.
"""

from __future__ import annotations

import pytest

from repro.core.model import CoRECModel, ModelParams
from repro.workloads.s3d import S3DConfig, TABLE_II

from common import TABLE1_PAPER, TABLE1_SIM, build_service, print_table, save_results


def test_table1_configuration(benchmark):
    svc = benchmark.pedantic(lambda: build_service("corec"), rounds=1, iterations=1)
    rows = [
        {"param": "writers", "paper": TABLE1_PAPER["writers"], "sim": TABLE1_SIM["writers"]},
        {"param": "staging servers", "paper": TABLE1_PAPER["staging"], "sim": svc.config.n_servers},
        {"param": "readers", "paper": TABLE1_PAPER["readers"], "sim": TABLE1_SIM["readers"]},
        {"param": "data objects / stripe (k)", "paper": TABLE1_PAPER["data_objects"], "sim": svc.layout.k},
        {"param": "parity objects (m)", "paper": TABLE1_PAPER["parity_objects"], "sim": svc.layout.m},
        {"param": "replicas", "paper": TABLE1_PAPER["replicas"], "sim": svc.layout.n_level},
        {"param": "storage bound", "paper": TABLE1_PAPER["corec_storage_bound"], "sim": svc.policy.config.storage_bound},
    ]
    print_table("Table I: synthetic setup reproduction", rows, [
        ("param", "parameter", ""),
        ("paper", "paper", "{}"),
        ("sim", "reproduction", "{}"),
    ])
    save_results("table1", rows)
    for r in rows:
        assert r["paper"] == r["sim"], r["param"]
    # The erasure geometry yields the paper's 67% hybrid efficiency bound.
    model = CoRECModel(ModelParams(n_level=svc.layout.m, n_node=svc.layout.k))
    assert model.E_hybrid(model.p_r_at_constraint(0.67)) == pytest.approx(0.67, rel=1e-6)
    # Writers decompose the 256^3 domain as 4x4x4 blocks of 64^3 in the
    # paper; the reproduction keeps one block per writer at reduced size.
    assert svc.domain.n_blocks == TABLE1_SIM["writers"]


def test_table2_configuration(benchmark):
    def build():
        return [S3DConfig(scale_index=i, shrink=4) for i in range(3)]

    cfgs = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for cfg, paper in zip(cfgs, TABLE_II):
        rows.append(
            {
                "cores_paper": paper["total_cores"],
                "sim_grid_paper": str(paper["sim_grid"]),
                "writers_sim": cfg.n_writers,
                "staging_sim": cfg.n_staging,
                "analysis_sim": cfg.n_analysis,
                "ratio_sim_staging": cfg.n_writers / cfg.n_staging,
                "domain_sim": str(cfg.domain_shape),
            }
        )
    print_table("Table II: S3D weak-scaling reproduction (shrink=4)", rows, [
        ("cores_paper", "paper cores", "{}"),
        ("sim_grid_paper", "paper grid", ""),
        ("writers_sim", "writers", "{}"),
        ("staging_sim", "staging", "{}"),
        ("analysis_sim", "analysis", "{}"),
        ("ratio_sim_staging", "sim:staging", "{:.0f}"),
        ("domain_sim", "domain", ""),
    ])
    save_results("table2", rows)
    # Paper ratios preserved at every scale.
    for row, paper in zip(rows, TABLE_II):
        assert row["ratio_sim_staging"] == pytest.approx(
            paper["sim_cores"] / paper["staging_cores"], rel=0.1
        )
    # Weak scaling: writers double with each column.
    assert rows[1]["writers_sim"] == 2 * rows[0]["writers_sim"]
    assert rows[2]["writers_sim"] == 2 * rows[1]["writers_sim"]
