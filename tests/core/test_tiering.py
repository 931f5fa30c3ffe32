"""Cost-model and transcode-manager tests for adaptive tiering v2.

Synthetic access traces drive the EWMA statistics and the pay-for-itself
arithmetic: hot data cooling down eventually demotes, a flash crowd
reheats an encoded entity into promotion, and an oscillating trace sits
in the dead band without thrashing.
"""

import pytest

from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService, TieringConfig
from repro.core.tiering import AccessStats, TieringCosts, TranscodeCostModel

B = 4096  # entity size used throughout; decisions scale linearly in it


def make_model(**cfg_kw):
    config = TieringConfig(**cfg_kw)
    return TranscodeCostModel(config, k=3, m=1, n_level=1)


class TestConfigValidation:
    def test_margin_below_one_rejected(self):
        with pytest.raises(ValueError):
            TieringConfig(margin=0.9)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TieringConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            TieringConfig(ewma_alpha=1.5)

    def test_horizon_and_budget_validated(self):
        with pytest.raises(ValueError):
            TieringConfig(horizon_steps=0)
        with pytest.raises(ValueError):
            TieringConfig(max_transcodes_per_step=0)


class TestCostArithmetic:
    """Pin the worked boundary cases of the default weights.

    Defaults: H=8, margin=1.25, n=1, RS(3,1); per byte
    demote threshold 1.25 * (1 + 0.5*4/3) = 2.0833,
    promote threshold 1.25 * (1*(1+1) + 0.5) = 3.125.
    """

    def test_fully_cold_entity_demotes(self):
        # w=r=0: benefit = 8*0.3*B = 2.4B > 2.0833B -> pays for itself.
        assert make_model().should_demote(B, read_rate=0.0, write_rate=0.0)

    def test_hot_writer_stays_replicated(self):
        # w=1: delta-parity write tax dwarfs the storage saving.
        assert not make_model().should_demote(B, read_rate=0.0, write_rate=1.0)

    def test_hot_encoded_entity_promotes(self):
        # w=r=1: benefit = 8*(1.5+1-0.3)*B = 17.6B > 3.125B.
        assert make_model().should_promote(B, read_rate=1.0, write_rate=1.0)

    def test_lukewarm_encoded_entity_stays(self):
        # w=r=0.25: benefit = 8*(0.375+0.25-0.3)*B = 2.6B < 3.125B.
        assert not make_model().should_promote(B, read_rate=0.25, write_rate=0.25)

    def test_dead_band_admits_neither_direction(self):
        # With w=0: demote needs r < 0.0396, promote needs r > 0.6906 —
        # anything between satisfies neither, so boundary rates cannot
        # ping-pong between forms.
        model = make_model()
        for r in (0.05, 0.2, 0.4, 0.6):
            assert model.decide("replicated", B, r, 0.0) is None
            assert model.decide("encoded", B, r, 0.0) is None

    def test_decide_ignores_non_transcodable_states(self):
        model = make_model()
        assert model.decide("pending_stripe", B, 0.0, 0.0) is None

    def test_benefits_are_negations(self):
        model = make_model()
        for r, w in ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)):
            assert model.promote_benefit(B, r, w) == pytest.approx(
                -model.demote_benefit(B, r, w)
            )

    def test_costs_scale_linearly_in_bytes(self):
        model = make_model()
        assert model.demote_cost(2 * B) == pytest.approx(2 * model.demote_cost(B))
        assert model.promote_cost(2 * B) == pytest.approx(2 * model.promote_cost(B))

    def test_custom_weights_flow_through(self):
        free_storage = TieringConfig(costs=TieringCosts(storage=0.0))
        model = TranscodeCostModel(free_storage, k=3, m=1, n_level=1)
        # With storage worthless, a fully idle entity has nothing to gain.
        assert not model.should_demote(B, 0.0, 0.0)


class TestEwmaTraces:
    def test_hot_to_cold_decay_triggers_demotion(self):
        """A once-hot entity demotes only after its rate decays enough.

        Demotion needs w < 0.0264; with alpha=0.5 a rate of 1.0 halves per
        idle step, crossing the threshold on the 6th idle step (2^-6).
        """
        model = make_model()
        stats = AccessStats(alpha=0.5)
        key = ("v", 0)
        stats.record_write(key)
        stats.record_write(key)  # w -> 1.0 after the first fold
        stats.advance()
        assert stats.write_rate(key) == pytest.approx(1.0)
        idle_until_demote = None
        for idle in range(1, 10):
            stats.advance()
            if model.should_demote(B, stats.read_rate(key), stats.write_rate(key)):
                idle_until_demote = idle
                break
        assert idle_until_demote == 6

    def test_flash_crowd_reheats_encoded_entity(self):
        """A read burst on a cold encoded entity flips it to promote."""
        model = make_model()
        stats = AccessStats(alpha=0.5)
        key = ("v", 0)
        stats.advance()  # long cold: rates 0, demote-eligible territory
        assert not model.should_promote(B, stats.read_rate(key), stats.write_rate(key))
        for _ in range(2):  # flash crowd: two reads in one step
            stats.record_read(key)
        stats.advance()
        assert stats.read_rate(key) == pytest.approx(1.0)
        assert model.should_promote(B, stats.read_rate(key), stats.write_rate(key))

    def test_oscillating_trace_does_not_thrash(self):
        """Write-every-other-step: at most one transition ever fires.

        The EWMA oscillates between w=1/3 and w=2/3 — inside the demote
        dead band, so a replicated entity never demotes (zero flips), and
        an encoded one promotes exactly once on the first hot phase and
        then stays put.  Drive the decide() state machine and count.
        """
        model = make_model()
        for start_state, max_flips in (("replicated", 0), ("encoded", 1)):
            stats = AccessStats(alpha=0.5)
            key = ("v", 0)
            state, flips = start_state, 0
            for step in range(40):
                if step % 2 == 0:
                    stats.record_write(key)
                stats.advance()
                d = model.decide(state, B, stats.read_rate(key), stats.write_rate(key))
                if d is not None:
                    state = "encoded" if d == "demote" else "replicated"
                    flips += 1
            assert flips <= max_flips, f"started {start_state}: {flips} flips"

    def test_forget_drops_all_tracking(self):
        stats = AccessStats(alpha=0.5)
        key = ("v", 1)
        stats.record_write(key)
        stats.advance()
        stats.forget(key)
        assert stats.write_rate(key) == 0.0
        assert stats.read_rate(key) == 0.0


class TestTranscodeManager:
    """Integration: the manager drives real transcodes through the policy."""

    def make_service(self, n_servers=8, domain_shape=(32, 64, 64), **tiering_kw):
        # storage_bound below replica efficiency (0.5 with one replica):
        # the classic bound enforcement never demotes, so every transcode
        # observed is the cost model's doing.
        cfg = CoRECConfig(storage_bound=0.4, tiering=TieringConfig(**tiering_kw))
        svc = StagingService(
            StagingConfig(
                n_servers=n_servers, domain_shape=domain_shape, object_max_bytes=4096
            ),
            CoRECPolicy(cfg),
        )
        return svc

    def write_all(self, svc, var="v"):
        def flow():
            for b in range(svc.domain.n_blocks):
                yield from svc.put("w", var, svc.domain.block_bbox(b))
            yield from svc.end_step()

        svc.run_workflow(flow())
        svc.run()

    def idle_steps(self, svc, n):
        def flow():
            for _ in range(n):
                yield from svc.end_step()

        svc.run_workflow(flow())
        svc.run()

    def test_idle_entities_demote_under_budget(self):
        svc = self.make_service(cooldown_steps=0, max_transcodes_per_step=2)
        self.write_all(svc)
        mgr = svc.policy.tiering
        before = mgr.demotes_scheduled
        self.idle_steps(svc, 8)
        assert mgr.demotes_scheduled > before
        # Budget: never more than max_transcodes_per_step per barrier.
        assert mgr.demotes_scheduled <= 2 * 8

    def test_cooldown_limits_retranscoding(self):
        svc = self.make_service(cooldown_steps=100)
        self.write_all(svc)
        self.idle_steps(svc, 12)
        mgr = svc.policy.tiering
        # Each entity transcodes at most once inside one cooldown window.
        assert mgr.demotes_scheduled <= svc.domain.n_blocks

    def test_transcoded_data_stays_readable(self):
        svc = self.make_service(cooldown_steps=0)
        self.write_all(svc)
        self.idle_steps(svc, 10)
        audit = svc.verify_all()
        assert not audit["unrecoverable"]
        assert audit["verified"] == svc.domain.n_blocks

    def test_cooling_working_set_exact_counts(self):
        # 16 servers, two variables staged in one step, ten idle barriers:
        # the simulator is deterministic, so the demotions the cost model
        # schedules under the 8-per-barrier budget are an exact count.
        svc = self.make_service(
            n_servers=16, domain_shape=(32, 128, 64),
            cooldown_steps=0, max_transcodes_per_step=8,
        )

        def flow():
            for v in range(2):
                for b in range(svc.domain.n_blocks):
                    yield from svc.put("w", f"v{v}", svc.domain.block_bbox(b))
            for _ in range(11):
                yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(flow())
        svc.run()
        mgr = svc.policy.tiering
        assert mgr.demotes_scheduled == 48
        assert mgr.promotes_scheduled == 0
        audit = svc.verify_all()
        assert audit == {"verified": 128, "unrecoverable": []}

    def test_tiering_counters_exposed(self):
        svc = self.make_service(cooldown_steps=0)
        self.write_all(svc)
        self.idle_steps(svc, 8)
        counters = svc.metrics.snapshot()["counters"]
        assert counters.get("tiering_demotes", 0) == svc.policy.tiering.demotes_scheduled

    def test_disabled_by_default(self):
        svc = StagingService(StagingConfig(n_servers=8), CoRECPolicy())
        assert svc.policy.tiering is None
