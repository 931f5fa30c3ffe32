"""Tests for the simple-hybrid (random selection) policy."""

import numpy as np
import pytest

from repro import SimpleHybridPolicy, StagingService
from repro.staging.objects import ResilienceState

from tests.conftest import accounting_consistent, make_service, small_config, stripes_consistent


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
