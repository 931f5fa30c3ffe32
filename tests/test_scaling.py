"""Tests for the weak-scaling harness (repro.scaling)."""

import pytest

from repro.scaling import ScalingConfig, check_bounds, run_scale


@pytest.fixture(scope="module")
def small_sweep():
    # The default per-server load on the cheap prefix of the 4 -> 64 sweep
    # (`repro scale` runs all of it): the bounds are operation counts, so
    # this is the whole gate, not a sample of one.
    cfg = ScalingConfig(servers=(4, 8, 16))
    rows = [run_scale(cfg, n) for n in cfg.servers]
    return cfg, rows


class TestConfigValidation:
    def test_rejects_non_group_multiple(self):
        with pytest.raises(ValueError):
            ScalingConfig(servers=(6,))


class TestSweep:
    def test_weak_scaling_holds_per_server_share(self, small_sweep):
        cfg, rows = small_sweep
        # Two variables ("hot" + "cold") x blocks_per_server primaries each.
        for row in rows:
            assert row["total_entities"] == 2 * cfg.blocks_per_server * row["n_servers"]
        assert rows[1]["total_entities"] == 2 * rows[0]["total_entities"]
        assert rows[2]["total_entities"] == 4 * rows[0]["total_entities"]

    def test_bounds_hold_on_small_sweep(self, small_sweep):
        cfg, rows = small_sweep
        assert check_bounds(rows) == []

    def test_failure_window_avoids_full_scans(self, small_sweep):
        _, rows = small_sweep
        for row in rows:
            assert row["full_scans_during_failure"] == 0

    def test_quiescent_invariants_post_replacement(self, small_sweep):
        _, rows = small_sweep
        for row in rows:
            assert row["invariant_violations"] == []


class TestBoundChecker:
    def test_flags_ratio_growth(self):
        rows = [
            {"n_servers": 4, "touches": 50, "affected_total": 50,
             "touch_ratio": 1.0, "full_scans_during_failure": 0,
             "invariant_violations": []},
            {"n_servers": 8, "touches": 500, "affected_total": 50,
             "touch_ratio": 10.0, "full_scans_during_failure": 0,
             "invariant_violations": []},
        ]
        problems = check_bounds(rows)
        assert any("grew" in p for p in problems)

    def test_flags_full_scans(self):
        rows = [
            {"n_servers": 4, "touches": 50, "affected_total": 50,
             "touch_ratio": 1.0, "full_scans_during_failure": 2,
             "invariant_violations": []},
        ]
        problems = check_bounds(rows)
        assert any("full directory" in p for p in problems)

    def test_flags_invariant_violations(self):
        rows = [
            {"n_servers": 4, "touches": 50, "affected_total": 50,
             "touch_ratio": 1.0, "full_scans_during_failure": 0,
             "invariant_violations": ["boom"]},
        ]
        problems = check_bounds(rows)
        assert any("invariants" in p for p in problems)
