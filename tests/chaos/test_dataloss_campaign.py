"""Regression tests for the correlated-failure data-loss campaign.

Fixed seeds pin the central claim of the CodingSets placement work: under
an exhaustive per-cabinet kill sweep, bounding parity to a cabinet-
disjoint menu reduces stripe-kill events by well over the required 2x
versus unconstrained (spread) placement — and the whole payload is
bit-identical run to run, so CI can gate on exact counts.

A ddmin test rides along: an unsurvivable schedule padded with harmless
failure units shrinks to a minimal reproducer that still loses data.
"""

import pytest

from repro.chaos import DataLossConfig, run_dataloss_campaign
from repro.chaos.campaign import (
    ChaosConfig,
    FailureUnit,
    calibrate_horizon,
    execute_units,
    run_campaign,
    shrink_units,
)


# The whole payload of the default campaign (cabinet kill injected for
# real, audit through the read paths) is deterministic per seed.
FINGERPRINTS = {
    0: "c053c68d326116f37d79aa8e54536d51",
    1: "49dc3ac509c9c9f0f05cc5b993d2b1be",
    2: "eafcada58a47e10c96b00709a1edc57a",
}


@pytest.fixture(scope="module")
def campaign_seed0():
    return run_dataloss_campaign(DataLossConfig(seed=0))


class TestLossReduction:
    def test_coding_sets_beats_spread_by_2x(self, campaign_seed0):
        cmp_ = campaign_seed0["comparisons"]["spread_vs_coding_sets"]
        assert cmp_["loss_ratio"] >= 2.0

    @pytest.mark.parametrize("seed,spread_kills", [(0, 6), (1, 8), (2, 9)])
    def test_exact_counts_pinned(self, seed, spread_kills):
        payload = run_dataloss_campaign(DataLossConfig(seed=seed))
        placements = payload["placements"]
        assert placements["spread"]["stripe_kill_events"] == spread_kills
        assert placements["coding_sets"]["stripe_kill_events"] == 0
        cmp_ = payload["comparisons"]["spread_vs_coding_sets"]
        assert cmp_["loss_ratio"] >= 2.0
        assert payload["fingerprint"] == FINGERPRINTS[seed]

    def test_coding_sets_bounds_distinct_server_sets(self, campaign_seed0):
        # Spread placement scatters each group over many server sets;
        # coding_sets caps it (3 data-subset variants x bounded parity).
        spread = campaign_seed0["placements"]["spread"]["distinct_sets_per_group"]
        cs = campaign_seed0["placements"]["coding_sets"]["distinct_sets_per_group"]
        for gid in cs:
            assert cs[gid] <= 4
            assert cs[gid] < spread[gid]

    def test_injected_audit_matches_static_prediction(self, campaign_seed0):
        for name, res in campaign_seed0["placements"].items():
            inj = res["injected"]
            assert inj["unexplained_losses"] == [], name
        # The loss-free placement verifies loss-free through real reads.
        cs = campaign_seed0["placements"]["coding_sets"]["injected"]
        assert cs["unrecoverable"] == []
        assert cs["predicted_killed_stripes"] == []


class TestReproducibility:
    def test_fingerprint_is_stable(self):
        a = run_dataloss_campaign(DataLossConfig(seed=3, inject=False))
        b = run_dataloss_campaign(DataLossConfig(seed=3, inject=False))
        assert a["fingerprint"] == b["fingerprint"]
        assert a == b

    def test_different_seeds_differ(self):
        a = run_dataloss_campaign(DataLossConfig(seed=0, inject=False))
        b = run_dataloss_campaign(DataLossConfig(seed=1, inject=False))
        assert a["fingerprint"] != b["fingerprint"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DataLossConfig(n_servers=4)


class TestCampaignPlacementModes:
    """The standard chaos campaign runs (and passes) under the new modes,
    with the coding_sets invariant active in the full suite."""

    @pytest.mark.parametrize("placement", ["spread", "coding_sets"])
    def test_scheduled_campaign_passes(self, placement):
        cfg = ChaosConfig(
            mode="scheduled",
            seed=2,
            n_servers=16,
            n_failures=2,
            timesteps=3,
            placement_mode=placement,
            shrink=False,
        )
        result = run_campaign(cfg)
        assert result.passed, [str(v) for v in result.violations]


class TestDdminReproducer:
    def test_unsurvivable_schedule_shrinks_to_minimal(self):
        """Two same-group kills (no replacement) padded with four harmless
        fail/replace pairs: ddmin strips the noise and keeps a minimal
        schedule that still reproduces the loss."""
        cfg = ChaosConfig(
            mode="scheduled", seed=0, n_servers=8, n_failures=2,
            timesteps=3, shrink=False,
        )
        horizon = calibrate_horizon(cfg)
        # Servers 0 and 1 share a coding group under grouped placement on
        # 8 servers; both die mid-run and never come back -> > m shards
        # of their stripes are gone for good.
        lethal = [
            FailureUnit(0.45 * horizon, 0, None),
            FailureUnit(0.50 * horizon, 1, None),
        ]
        noise = [
            FailureUnit(0.10 * horizon, 4, 0.15 * horizon),
            FailureUnit(0.20 * horizon, 5, 0.25 * horizon),
            FailureUnit(0.60 * horizon, 6, 0.65 * horizon),
            FailureUnit(0.70 * horizon, 7, 0.75 * horizon),
        ]
        units = sorted(lethal + noise, key=lambda u: u.t_fail)
        full, _ = execute_units(cfg, units, horizon)
        assert not full.passed, "schedule was expected to lose data"

        minimal, runs = shrink_units(cfg, units, horizon, max_runs=40)
        assert runs > 0
        assert len(minimal) < len(units)
        # Deterministic pin: ddmin settles on a 3-unit reproducer (a
        # never-replaced server plus two follow-on failures also loses
        # data, so the minimizer may keep that variant over the planted
        # two-kill one — both are genuine).
        assert len(minimal) <= 3
        # The shrunk schedule is itself a reproducer.
        replay, _ = execute_units(cfg, minimal, horizon)
        assert not replay.passed
