"""Campaign mechanics: reproducibility, all modes, shrinking, regressions."""

import json
import os

import pytest

from repro.chaos.campaign import (
    ChaosConfig,
    FailureUnit,
    calibrate_horizon,
    execute_units,
    fingerprint,
    generate_units,
    run_campaign,
    shrink_units,
)
from repro.staging.server import StagingServer


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        cfg = ChaosConfig(mode="scheduled", policy="corec", seed=7)
        a = run_campaign(cfg)
        b = run_campaign(ChaosConfig(mode="scheduled", policy="corec", seed=7))
        assert a.fingerprint == b.fingerprint
        assert a.events == b.events
        assert [u.as_dict() for u in a.units] == [u.as_dict() for u in b.units]

    def test_different_seed_different_schedule(self):
        h = calibrate_horizon(ChaosConfig(mode="scheduled", policy="corec", seed=0))
        u0 = generate_units(ChaosConfig(mode="scheduled", policy="corec", seed=0), h)
        u1 = generate_units(ChaosConfig(mode="scheduled", policy="corec", seed=1), h)
        assert [u.as_dict() for u in u0] != [u.as_dict() for u in u1]

    def test_fingerprint_sees_bytes_counters_and_event_times(self):
        """What the fingerprint hashed when it read ``state_snapshot`` it
        still hashes through ``projection()``: each single mutation of a
        finished run moves it, and undoing the mutation restores it."""
        cfg = ChaosConfig(mode="scheduled", policy="corec", seed=7, shrink=False)
        horizon = calibrate_horizon(cfg)
        res, svc = execute_units(cfg, generate_units(cfg, horizon), horizon)
        assert fingerprint(svc, res.events, res.units) == res.fingerprint

        srv = next(s for s in svc.servers if s.store)
        key = sorted(srv.store)[0]
        original = srv.store[key]
        srv.store[key] = original.copy()
        srv.store[key][0] ^= 0x01  # one stored byte on one server
        assert fingerprint(svc, res.events, res.units) != res.fingerprint
        srv.store[key] = original
        assert fingerprint(svc, res.events, res.units) == res.fingerprint

        svc.metrics.count("stripe_encodes")  # one counter, by one
        assert fingerprint(svc, res.events, res.units) != res.fingerprint
        svc.metrics.count("stripe_encodes", -1)
        assert fingerprint(svc, res.events, res.units) == res.fingerprint

        t, kind, sid = res.events[0]
        nudged = [(t + 1e-9, kind, sid), *res.events[1:]]  # one event time
        assert fingerprint(svc, nudged, res.units) != res.fingerprint

    def test_stochastic_mode_reproducible(self):
        a = run_campaign(ChaosConfig(mode="stochastic", policy="corec", seed=4))
        b = run_campaign(ChaosConfig(mode="stochastic", policy="corec", seed=4))
        assert a.fingerprint == b.fingerprint


class TestAllModesPass:
    @pytest.mark.parametrize("mode", ["scheduled", "stochastic", "cabinet"])
    @pytest.mark.parametrize("policy", ["corec", "hybrid", "replicate", "erasure"])
    def test_mode_policy_clean(self, mode, policy):
        # The whole fixed-seed matrix, full invariant suite on: any
        # violation names its seed and the shrunk minimal schedule.
        for seed in (0, 1):
            res = run_campaign(ChaosConfig(mode=mode, policy=policy, seed=seed))
            assert res.passed, (
                seed,
                [str(v) for v in res.violations],
                [u.as_dict() for u in res.minimal_units or ()],
            )
            assert res.units, "campaign must actually inject failures"
            assert res.checks_run > len(res.units)

    def test_cabinet_mode_correlated(self):
        cfg = ChaosConfig(mode="cabinet", policy="corec", seed=1)
        res = run_campaign(cfg)
        assert res.passed
        by_time: dict[float, int] = {}
        for u in res.units:
            by_time[u.t_fail] = by_time.get(u.t_fail, 0) + 1
        # Whole cabinets die at one instant.
        assert all(n == cfg.nodes_per_cabinet for n in by_time.values())


class TestRegressions:
    def test_stale_replica_repair_not_orphaned(self):
        # Shrunk from stochastic/corec seed 2: s0 fails and is replaced
        # early; the replica-repair task for an entity then races the
        # stripe-formation path that reclaims replicas (which does not take
        # member entity locks) and used to store an orphan 'R/' copy.
        cfg = ChaosConfig(mode="stochastic", policy="corec", seed=2, shrink=False)
        horizon = calibrate_horizon(cfg)
        unit = FailureUnit(
            t_fail=0.00019222109762433463, server=0, t_replace=0.0005355134728809203
        )
        res, svc = execute_units(cfg, [unit], horizon)
        assert res.passed, [str(v) for v in res.violations]
        assert svc.metrics.counters.get("replica_repairs_stale", 0) >= 1

    def test_rehoming_ignores_vacant_placeholders(self):
        # Shrunk from stochastic/erasure seed 5: a stripe with a vacant slot
        # covers the whole coding group with placeholder entries, which
        # used to starve _ensure_writable_primary's free-server search and
        # double two live data shards onto one server.
        cfg = ChaosConfig(mode="stochastic", policy="erasure", seed=5, shrink=False)
        horizon = calibrate_horizon(cfg)
        units = [
            FailureUnit(t_fail=0.005585266750307055, server=6, t_replace=0.0058022589549546),
            FailureUnit(t_fail=0.006548499570283608, server=4, t_replace=None),
        ]
        res, svc = execute_units(cfg, units, horizon)
        assert res.passed, [str(v) for v in res.violations]
        for stripe in svc.directory.stripes.values():
            holders = [
                stripe.shard_servers[i]
                for i, mk in enumerate(stripe.members)
                if mk is not None
            ] + list(stripe.shard_servers[stripe.k:])
            assert len(holders) == len(set(holders)), (
                f"stripe {stripe.stripe_id} doubles a server: {stripe.shard_servers}"
            )

    def test_erasure_pending_window_waived_not_violated(self):
        # stochastic/erasure seed 3 loses a queued-for-encoding entity that
        # never had replicas: the documented gap of the non-replicating
        # baselines, reported as a waived loss rather than a violation.
        res = run_campaign(ChaosConfig(mode="stochastic", policy="erasure", seed=3))
        assert res.passed
        assert res.waived_losses >= 1


class TestMutationCatchShrinkDump:
    def test_seeded_corruption_caught_and_shrunk(self, tmp_path, monkeypatch):
        # Mutation: every replacement-epoch server corrupts primary writes.
        orig = StagingServer.store_bytes

        def corrupting(self, key, payload):
            orig(self, key, payload)
            if key.startswith("P/") and self.epoch > 0:
                self.store[key] = self.store[key].copy()
                self.store[key][0] ^= 0xFF

        monkeypatch.setattr(StagingServer, "store_bytes", corrupting)
        out = tmp_path / "dump"
        cfg = ChaosConfig(
            mode="scheduled", policy="corec", seed=1, out_dir=str(out)
        )
        res = run_campaign(cfg)
        assert not res.passed
        assert any(v.invariant == "digest_audit" for v in res.violations)
        # Shrinking found a strictly smaller reproducer that still fails.
        assert res.minimal_units is not None
        assert 1 <= len(res.minimal_units) < len(res.units)
        replay, _ = execute_units(cfg, res.minimal_units, res.horizon)
        assert not replay.passed
        # The traced dump of the minimal schedule is on disk and loadable.
        for fname in (
            "trace.json",
            "spans.jsonl",
            "events.jsonl",
            "metrics.json",
            "schedule.json",
            "violations.json",
        ):
            assert (out / fname).exists(), fname
        sched = json.loads((out / "schedule.json").read_text())
        assert sched["units"] == [u.as_dict() for u in res.minimal_units]
        viols = json.loads((out / "violations.json").read_text())
        assert viols, "dumped violations must not be empty"

    def test_failure_independent_bug_shrinks_to_empty(self, monkeypatch):
        # A bug that fires with no failures at all must shrink to the empty
        # schedule (the minimal reproducer is "just run the workload").
        orig = StagingServer.store_bytes

        def corrupting(self, key, payload):
            orig(self, key, payload)
            if key.startswith("stripe"):
                self.store[key] = self.store[key].copy()
                self.store[key][0] ^= 0xFF

        monkeypatch.setattr(StagingServer, "store_bytes", corrupting)
        cfg = ChaosConfig(mode="scheduled", policy="erasure", seed=1, shrink=False)
        horizon = calibrate_horizon(cfg)
        units = generate_units(cfg, horizon)
        minimal, runs = shrink_units(cfg, units, horizon)
        assert minimal == []
        assert runs >= 1


class TestConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(mode="nope")

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(policy="none")
