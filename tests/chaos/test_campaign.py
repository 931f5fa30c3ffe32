"""Campaign mechanics: reproducibility, all modes, shrinking, regressions."""

import json
import os
from collections import Counter

import numpy as np
import pytest

from repro.chaos.campaign import (
    NODES_PER_CABINET,
    REPAIR_GUARD_FRAC,
    ChaosConfig,
    FailureUnit,
    _stochastic_units,
    calibrate_horizon,
    execute_units,
    fingerprint,
    generate_units,
    inject_units,
    run_campaign,
    shrink_units,
)
from repro.sim.engine import Simulator
from repro.staging.objects import ResilienceState
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


# Fingerprint of every run of the fixed-seed matrix: the injected events
# and their times, the unit list, the final clock, every counter and the
# final projection.  A change that moves one has changed what a campaign
# injects or what the stack does under it.
PINNED_FINGERPRINTS = {
    ("scheduled", "corec", 0): "89e308c6a7b1df7f029216fc076a2386",
    ("scheduled", "corec", 1): "fa8ce96c13c480c2cec77dd4d3d4db6d",
    ("scheduled", "hybrid", 0): "551a569341bd917dd6d8c8573493b1c0",
    ("scheduled", "hybrid", 1): "1edee04ad27fa18ea69fb88df0a66787",
    ("scheduled", "replicate", 0): "08fc73df2253f2476cbb73074c29e501",
    ("scheduled", "replicate", 1): "818ade9e67e0b5b334499cd9d7a23e4e",
    ("scheduled", "erasure", 0): "3e89bb13de8b07313014909edb962498",
    ("scheduled", "erasure", 1): "a8d21ed4260509ea7d0e5e247a48113a",
    ("stochastic", "corec", 0): "70d5da5cb41d87e88960f8ee9d117c87",
    ("stochastic", "corec", 1): "8f8ce5b6c8766208caa72e0eb4ba29e5",
    ("stochastic", "hybrid", 0): "0777a453985645557f684d88e387a195",
    ("stochastic", "hybrid", 1): "136c4660099ddb3693e447bc92d10df1",
    ("stochastic", "replicate", 0): "c988685f2c74f2f983b8a22a54d515c7",
    ("stochastic", "replicate", 1): "cf7da7d041c38f947035f49df719e916",
    ("stochastic", "erasure", 0): "d681bd4edc7b636ec3d1485caef47616",
    ("stochastic", "erasure", 1): "12e0be0d58e805c46e7bdb749fe80b3b",
    ("cabinet", "corec", 0): "8d1ec0276e84631c2830696eb879f30e",
    ("cabinet", "corec", 1): "92207d1b0e26ac632855f5c2272ae163",
    ("cabinet", "hybrid", 0): "b92bf8aa2faaa13595d84a9a09559a68",
    ("cabinet", "hybrid", 1): "fb2dc9b4afdbd2c9553db281c8509f3b",
    ("cabinet", "replicate", 0): "d7eebdc94b49a51270c41119d1668f5d",
    ("cabinet", "replicate", 1): "6a0715fd701ca43681c8fcae39fbdc32",
    ("cabinet", "erasure", 0): "4ee693d2b96d3257cad12005bce336be",
    ("cabinet", "erasure", 1): "c8b93333108222ae5743d678bdd451df",
}


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
            assert res.fingerprint == PINNED_FINGERPRINTS[mode, policy, seed], seed

    def test_cabinet_mode_correlated(self):
        cfg = ChaosConfig(mode="cabinet", policy="corec", seed=1)
        res = run_campaign(cfg)
        assert res.passed
        by_time: dict[float, int] = {}
        for u in res.units:
            by_time[u.t_fail] = by_time.get(u.t_fail, 0) + 1
        # Whole cabinets die at one instant.
        assert all(n == NODES_PER_CABINET for n in by_time.values())


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
            holders = [srv for _, srv in stripe.holders()]
            assert len(holders) == len(set(holders)), (
                f"stripe {stripe.stripe_id} doubles a server: {holders}"
            )

    def test_lost_pending_copy_fails_no_other_operation(self):
        # stochastic/erasure seed 3: ('v0', 1) loses its only copy while
        # queued for encoding, the documented unprotected window of the
        # non-replicating baselines.  Encoders pass over it until the
        # workload's next write lands its bytes; a formation that popped it
        # instead aborted and failed the put of v1/5, a healthy block
        # (reported as one waived loss).
        res = run_campaign(ChaosConfig(mode="stochastic", policy="erasure", seed=3))
        assert res.passed
        assert res.waived_losses == 0

    def test_lost_pending_copy_strands_no_member(self):
        # The same campaign: the lost entity is striped once its bytes are
        # written again, and the queue ends holding exactly the pending
        # entities, each under its primary (none are left in no queue).
        cfg = ChaosConfig(mode="stochastic", policy="erasure", seed=3, shrink=False)
        horizon = calibrate_horizon(cfg)
        _, svc = execute_units(cfg, generate_units(cfg, horizon), horizon)
        d = svc.directory
        assert d.entities[("v0", 1)].state == ResilienceState.ENCODED
        queued = sorted(
            (key, srv) for group in d.pending.values() for srv, q in group.items() for key in q
        )
        pending = sorted(
            (key, d.entities[key].primary)
            for key in d.entities_by_state[ResilienceState.PENDING_STRIPE]
        )
        assert queued == pending


class TestMutationCatchShrinkDump:
    def test_seeded_corruption_caught_and_shrunk(self, tmp_path, monkeypatch):
        # Mutation: every replacement-epoch server corrupts primary writes.
        orig = StagingServer.store_bytes

        def corrupting(self, key, payload, version=None):
            orig(self, key, payload, version)
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
            "metrics.json",
            "metrics.prom",
            "schedule.json",
            "violations.json",
        ):
            assert (out / fname).exists(), fname
        sched = json.loads((out / "schedule.json").read_text())
        assert sched["units"] == [u.as_dict() for u in res.minimal_units]
        viols = json.loads((out / "violations.json").read_text())
        assert viols, "dumped violations must not be empty"

    def test_online_violations_dumped_as_one_instant_each(self, tmp_path, monkeypatch):
        # Mutation: a crashed server keeps its store, so the online
        # bytes_conservation check fires at the failure itself.
        orig = StagingServer.fail

        def leaky_fail(self):
            kept = dict(self.store)
            orig(self)
            self.store.update(kept)

        monkeypatch.setattr(StagingServer, "fail", leaky_fail)
        out = tmp_path / "dump"
        res = run_campaign(
            ChaosConfig(mode="scheduled", policy="corec", seed=1, out_dir=str(out))
        )
        assert not res.passed and res.minimal_units
        rows = [json.loads(line) for line in (out / "spans.jsonl").read_text().splitlines()]
        names = Counter(r["name"] for r in rows)
        assert names["failure.detect"] == len(res.minimal_units)
        assert names["failure.replace"] == sum(
            u.t_replace is not None for u in res.minimal_units
        )
        instants = Counter(
            (r["t0"], r["attrs"]["invariant"], r["attrs"]["detail"])
            for r in rows if r["name"] == "chaos.violation"
        )
        dumped = Counter(
            (v["t"], v["invariant"], v["detail"])
            for v in json.loads((out / "violations.json").read_text())
        )
        assert instants and not instants - dumped
        assert {inv for _, inv, _ in instants} == {"bytes_conservation"}

    def test_failure_independent_bug_shrinks_to_empty(self, monkeypatch):
        # A bug that fires with no failures at all must shrink to the empty
        # schedule (the minimal reproducer is "just run the workload").
        orig = StagingServer.store_bytes

        def corrupting(self, key, payload, version=None):
            orig(self, key, payload, version)
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


def _walk(units):
    """``(time, kind, server)`` of each ``apply`` call ``inject_units`` makes."""
    sim = Simulator()
    calls = []
    inject_units(sim, units, lambda kind, sid: calls.append((sim.now, kind, sid)))
    sim.run()
    return calls


def _rejected_before_any_event(units):
    sim = Simulator()
    calls = []
    with pytest.raises(ValueError):
        inject_units(sim, units, lambda kind, sid: calls.append(kind))
    sim.run()
    assert calls == [] and sim.now == 0.0


class TestInjectUnits:
    """The one walk from a unit list to fail/replace calls."""

    def test_single_cycle_valid(self):
        assert _walk([FailureUnit(1.0, 0, 2.0)]) == [(1.0, "fail", 0), (2.0, "replace", 0)]

    def test_fail_replace_cycles_valid(self):
        units = [FailureUnit(10.0 * c + 1, 4, 10.0 * c + 5) for c in range(3)]
        assert [kind for _, kind, _ in _walk(units)] == ["fail", "replace"] * 3

    def test_same_instant_fail_then_replace_valid(self):
        assert _walk([FailureUnit(1.0, 0, 1.0)]) == [(1.0, "fail", 0), (1.0, "replace", 0)]

    def test_interleaving_independent_per_server(self):
        units = [FailureUnit(1.0, 0, 4.0), FailureUnit(2.0, 1, 3.0)]
        assert _walk(units) == [
            (1.0, "fail", 0), (2.0, "fail", 1), (3.0, "replace", 1), (4.0, "replace", 0),
        ]

    def test_replacement_before_failure_rejected(self):
        _rejected_before_any_event([FailureUnit(5.0, 0, 2.0)])

    def test_replacement_before_later_cycle_failure_rejected(self):
        # The replacement at t=5 belongs to the cycle that fails at t=10;
        # the server's earlier failure at t=1 does not make it valid.
        _rejected_before_any_event([FailureUnit(1.0, 0, 2.0), FailureUnit(10.0, 0, 5.0)])

    def test_overlapping_cycles_on_one_server_rejected(self):
        _rejected_before_any_event([FailureUnit(1.0, 2, 5.0), FailureUnit(3.0, 2, 8.0)])
        # At one instant the failure applies first: at t=5 the server is still down.
        _rejected_before_any_event([FailureUnit(1.0, 2, 5.0), FailureUnit(5.0, 2, 8.0)])
        _rejected_before_any_event([FailureUnit(1.0, 2, None), FailureUnit(9.0, 2, None)])

    def test_events_in_time_order_fail_before_replace(self):
        cfg = ChaosConfig(mode="scheduled", policy="corec", seed=0, shrink=False)
        horizon = calibrate_horizon(cfg)
        t1, t2 = 0.25 * horizon, 0.5 * horizon
        res, _ = execute_units(cfg, [FailureUnit(t2, 5, t2), FailureUnit(t1, 3, t2)], horizon)
        assert [(kind, sid) for _, kind, sid in res.events] == [
            ("fail", 3), ("fail", 5), ("replace", 3), ("replace", 5),
        ]
        assert [t for t, _, _ in res.events] == pytest.approx([t1, t2, t2, t2])

    def test_service_fails_before_it_replaces_at_one_instant(self):
        cfg = ChaosConfig(mode="scheduled", policy="corec", seed=0, shrink=False)
        horizon = calibrate_horizon(cfg)
        t = 0.25 * horizon
        res, _ = execute_units(cfg, [FailureUnit(t, 0, t)], horizon)
        assert [(kind, sid) for _, kind, sid in res.events] == [("fail", 0), ("replace", 0)]
        assert [t_ev for t_ev, _, _ in res.events] == pytest.approx([t, t])


class TestStochasticUnits:
    """The MTBF draw: one timeline per seed, one server down at a time."""

    HORIZON = 1.0

    def draw(self, seed, n_failures=3):
        cfg = ChaosConfig(mode="stochastic", seed=seed, n_failures=n_failures)
        return _stochastic_units(cfg, self.HORIZON, np.random.default_rng(seed))

    def test_rate_roughly_matches(self):
        # n_failures is the expected number of ticks over the window; the
        # one-down rule and the repair guard keep fewer of them.
        means = {n: np.mean([len(self.draw(s, n)) for s in range(40)]) for n in (1, 6)}
        assert 0.5 <= means[1] <= 1.5
        assert 2 * means[1] < means[6] <= 6

    def test_deterministic_per_seed(self):
        assert self.draw(7) == self.draw(7)
        assert self.draw(7) != self.draw(8)

    def test_campaign_draw_deterministic_per_config_seed(self):
        # generate_units seeds its own rng from the config: the timeline,
        # repair delays included, is a function of the seed alone.
        cfg = ChaosConfig(mode="stochastic", seed=5, n_failures=6)
        units = generate_units(cfg, self.HORIZON)
        assert any(u.t_replace is not None for u in units)
        assert units == generate_units(cfg, self.HORIZON)
        assert units == self.draw(5, n_failures=6)

    def test_at_most_one_server_down(self):
        cutoff = 0.85 * self.HORIZON
        for seed in range(40):
            units = self.draw(seed, n_failures=6)
            for prev, nxt in zip(units, units[1:]):
                assert prev.t_replace is not None
                assert nxt.t_fail >= prev.t_replace + REPAIR_GUARD_FRAC * self.HORIZON
            assert all(u.t_fail <= cutoff for u in units)
            assert all(u.t_replace is None or u.t_replace <= cutoff for u in units)

    def test_repair_delay_within_half_to_one_and_a_half_means(self):
        mean = 0.05 * self.HORIZON
        delays = [
            u.t_replace - u.t_fail
            for seed in range(40)
            for u in self.draw(seed, n_failures=6)
            if u.t_replace is not None
        ]
        assert delays
        assert all(0.5 * mean - 1e-12 <= d <= 1.5 * mean + 1e-12 for d in delays)


class TestConfigValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(mode="nope")

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(policy="none")

    def test_server_count_the_deployment_refuses_rejected(self):
        with pytest.raises(ValueError, match="cannot host"):
            ChaosConfig(n_servers=3)
