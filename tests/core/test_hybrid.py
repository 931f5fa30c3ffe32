"""Tests for the simple-hybrid (random selection) policy."""

import numpy as np
import pytest

from repro import DataLossError, SimpleHybridPolicy, StagingService
from repro.chaos.invariants import check_reverse_indexes
from repro.staging.objects import ResilienceState

from tests.conftest import accounting_consistent, make_service, small_config, stripes_consistent
from tests.core import test_runtime


def make(seed=11, **kw):
    return StagingService(
        small_config(), SimpleHybridPolicy(rng=np.random.default_rng(seed), **kw)
    )


def write_all(svc, steps=1):
    box = svc.domain.bbox

    def wf():
        for _ in range(steps):
            yield from svc.put("w0", "v", box)
            yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(wf())


class TestConstruction:
    def test_requires_rng(self):
        with pytest.raises(ValueError):
            SimpleHybridPolicy()

    def test_p_replicate_from_bound(self):
        svc = make()
        # RS(3,1), 1 replica, S=0.67 -> the paper's ~24% replicated share.
        assert 0.2 < svc.policy.p_replicate < 0.3

    def test_loose_bound_allows_full_replication(self):
        svc = StagingService(
            small_config(),
            SimpleHybridPolicy(storage_bound=0.4, rng=np.random.default_rng(1)),
        )
        assert svc.policy.p_replicate == 1.0


class TestMixedPlacement:
    def test_both_states_present(self):
        svc = make()
        write_all(svc)
        states = {e.state for e in svc.directory.entities.values()}
        assert ResilienceState.ENCODED in states
        # With only 8 blocks and p~0.24 replication may or may not appear;
        # run more steps to let redraws churn states.
        write_all(svc, steps=3)
        assert accounting_consistent(svc)
        assert stripes_consistent(svc)

    def test_switch_counter_increments(self):
        svc = make()
        write_all(svc, steps=5)
        assert svc.metrics.counters["hybrid_switches"] > 0

    def test_deterministic_given_seed(self):
        a = make(seed=5)
        b = make(seed=5)
        write_all(a, steps=2)
        write_all(b, steps=2)
        sa = {k: e.state for k, e in a.directory.entities.items()}
        sb = {k: e.state for k, e in b.directory.entities.items()}
        assert sa == sb


class TestResilience:
    def test_survives_single_failure(self):
        svc = make()
        write_all(svc, steps=2)
        svc.fail_server(3)

        def wf():
            _, payloads = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        assert svc.read_errors == 0

    def test_churn_slower_than_corec(self):
        hybrid = make()
        corec = make_service("corec")
        write_all(hybrid, steps=5)
        write_all(corec, steps=5)
        assert hybrid.metrics.put_stat.mean > corec.metrics.put_stat.mean


class TestSwitchDuringFormation:
    """A write switches a pending entity to replication while an encoder
    that already popped its key is still gathering the stripe."""

    def setup_group(self, monkeypatch):
        svc = make()
        monkeypatch.setattr(svc.policy, "_draw", lambda: "replicate")
        gid, ents = test_runtime.TestStripeFormation().fill_group(svc, svc.layout.k)
        for ent in ents:
            svc.runtime.enqueue_for_encoding(ent)
        return svc, gid, ents

    @staticmethod
    def queued(svc, gid):
        return sorted(key for q in svc.directory.pending[gid].values() for key in q)

    def test_formation_leaves_the_switched_member_out(self, monkeypatch):
        svc, gid, ents = self.setup_group(monkeypatch)
        switched, others = ents[1], [ents[0], ents[2]]
        svc.sim.process(svc.runtime.flush_pending(gid))  # pops all k keys, then gathers
        svc.run_workflow(svc.put("w1", "v", switched.bbox))
        svc.run()
        assert switched.state == ResilienceState.REPLICATED and switched.stripe is None
        # The first formation stood down at registration; the flush went on
        # to stripe the other two on their own.
        assert svc.metrics.counters["stripe_encodes"] == 2
        (stripe,) = svc.directory.stripes.values()
        assert sorted(k for k in stripe.members if k) == sorted(e.key for e in others)
        assert all(e.state == ResilienceState.ENCODED for e in others)
        assert self.queued(svc, gid) == []
        assert check_reverse_indexes(svc) == [] and stripes_consistent(svc)

    def test_aborted_formation_does_not_requeue_the_switched_member(self, monkeypatch):
        svc, gid, ents = self.setup_group(monkeypatch)
        switched, dying = ents[1], ents[2]

        def encoder():
            with pytest.raises(DataLossError):
                yield from svc.runtime.flush_pending(gid)

        def kill():
            svc.fail_server(dying.primary)  # the gather reaches it after the switch began
            yield svc.sim.timeout(0)

        svc.sim.process(encoder())
        svc.sim.process(kill())
        svc.run_workflow(svc.put("w1", "v", switched.bbox))
        svc.run()
        assert switched.state == ResilienceState.REPLICATED and switched.stripe is None
        assert switched.key not in self.queued(svc, gid)
        assert self.queued(svc, gid) == sorted([ents[0].key, dying.key])
