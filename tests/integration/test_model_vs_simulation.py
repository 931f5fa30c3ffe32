"""Cross-validation: the Section II-D analytic model vs the simulator.

The model predicts the *relative* behaviour of the resilience schemes as
the hot-data fraction varies. These tests sweep the hot fraction of the
case-3 pattern and check that the simulated system moves the way the
closed-form model says it should — the strongest evidence that the
implementation embodies the paper's cost structure.
"""

import numpy as np
import pytest

from repro import CoRECConfig, CoRECPolicy, CoRECModel, ModelParams, StagingService
from repro.core.corec import STORAGE_BOUND_SLACK
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

from tests.conftest import make_service, small_config


def run_hot_fraction(policy_name: str, hot_fraction: float, timesteps: int = 12):
    svc = make_service(policy_name, domain_shape=(64, 64, 64))
    wl = SyntheticWorkload(
        svc,
        SyntheticWorkloadConfig(
            case="case3",
            n_writers=64,
            n_readers=4,
            timesteps=timesteps,
            hot_fraction=hot_fraction,
        ),
    )
    svc.run_workflow(wl.run())
    svc.run()
    steady = float(np.mean(wl.step_put.values[-4:]))
    return {
        "mean": svc.metrics.put_stat.mean,
        "steady": steady,
        "efficiency": svc.metrics.storage.efficiency(),
    }


class TestCostStructure:
    def test_erasure_cost_grows_with_hot_fraction(self):
        """Model: C_erasure grows linearly in P_h (more updates at C_e)."""
        small = run_hot_fraction("erasure", 0.0625)
        large = run_hot_fraction("erasure", 0.5)
        assert large["steady"] > small["steady"]

    def test_replication_cheaper_than_erasure_at_high_hot(self):
        """Model: C_r < C_e, so replication wins when updates dominate."""
        repl = run_hot_fraction("replication", 0.5)
        eras = run_hot_fraction("erasure", 0.5)
        assert repl["steady"] < eras["steady"]

    def test_corec_tracks_replication_in_steady_state(self):
        """Model (below the knee): CoREC's hot traffic is replica traffic."""
        corec = run_hot_fraction("corec", 0.125)
        repl = run_hot_fraction("replication", 0.125)
        eras = run_hot_fraction("erasure", 0.125)
        assert corec["steady"] < eras["steady"]
        # Within 2x of replication (replication updates everything at C_r;
        # CoREC adds classification and the residual encoded updates).
        assert corec["steady"] < 2.0 * repl["steady"]

    def test_corec_beats_hybrid_as_skew_grows(self):
        """Model eq. (6): Gain ~ P_h P_c (f_h - f_c) — skew drives the gap."""
        corec = run_hot_fraction("corec", 0.125)
        hybrid = run_hot_fraction("hybrid", 0.125)
        assert corec["steady"] < hybrid["steady"]


class TestStorageEfficiencyStructure:
    def test_efficiency_between_model_bounds(self):
        """E_r <= measured CoREC efficiency <= E_e (plus vacancy noise)."""
        model = CoRECModel(ModelParams(n_level=1, n_node=3))
        out = run_hot_fraction("corec", 0.125)
        assert model.E_r - 0.02 <= out["efficiency"] <= model.E_e + 0.02

    def test_replication_matches_model_exactly(self):
        model = CoRECModel(ModelParams(n_level=1, n_node=3))
        out = run_hot_fraction("replication", 0.25)
        assert out["efficiency"] == pytest.approx(model.E_r)

    def test_erasure_approaches_model_with_full_stripes(self):
        model = CoRECModel(ModelParams(n_level=1, n_node=3))
        out = run_hot_fraction("erasure", 0.25)
        # Flush stragglers cost a little against the ideal E_e.
        assert out["efficiency"] <= model.E_e + 1e-9
        assert out["efficiency"] >= model.E_e - 0.06

    def test_constraint_boundary_respected(self):
        """CoREC never spends more replication than P_r* allows at S."""
        model = CoRECModel(ModelParams(n_level=1, n_node=3))
        svc = make_service("corec", domain_shape=(64, 64, 64))
        wl = SyntheticWorkload(
            svc,
            SyntheticWorkloadConfig(case="case1", n_writers=64, n_readers=4, timesteps=10),
        )
        svc.run_workflow(wl.run())
        svc.run()
        bound = svc.policy.config.storage_bound
        assert svc.metrics.storage.efficiency() >= bound - STORAGE_BOUND_SLACK - 0.02
