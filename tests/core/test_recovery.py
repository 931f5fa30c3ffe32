"""Tests for recovery strategies (lazy, aggressive, degraded)."""

import pytest

from repro import CoRECConfig, CoRECPolicy, ErasurePolicy, ReplicationPolicy, StagingService
from repro.core.recovery import RecoveryConfig, RecoveryManager
from repro.core.runtime import primary_key

from tests.conftest import make_service, small_config, stripes_consistent


def write_all(svc, steps=2):
    def wf():
        for _ in range(steps):
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(wf())
    svc.run()


class TestRecoveryConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(mode="eager")

    def test_deadline(self):
        cfg = RecoveryConfig(mtbf_s=400.0)
        assert cfg.deadline_s == 100.0

    def test_parallelism_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(sweep_parallelism=0)

    def test_mtbf_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(mtbf_s=-1)


class TestLazyRecovery:
    def make(self, mtbf=2.0):
        svc = StagingService(
            small_config(),
            CoRECPolicy(CoRECConfig(recovery=RecoveryConfig(mode="lazy", mtbf_s=mtbf))),
        )
        return svc

    def test_no_recovery_before_replacement(self):
        svc = self.make()
        write_all(svc)
        svc.fail_server(0)
        svc.run(until=svc.sim.now + 100.0)
        # Without a replacement nothing can be re-hosted on server 0.
        assert svc.servers[0].failed

    def test_sweep_fires_at_deadline(self):
        svc = self.make(mtbf=2.0)  # deadline 0.5 s
        write_all(svc)
        svc.fail_server(0)
        t0 = svc.sim.now
        svc.replace_server(0)
        svc.run()
        assert svc.policy.recovery.sweeps_finished == 1
        # Sweep ran at (or after) the deadline.
        assert svc.sim.now >= t0 + 0.5

    def test_sweep_skips_if_failed_again(self):
        svc = self.make(mtbf=2.0)
        write_all(svc)
        svc.fail_server(0)
        svc.replace_server(0)
        svc.fail_server(0)  # dies again before the sweep deadline
        svc.run()
        assert svc.servers[0].failed

    def test_repair_on_access_before_sweep(self):
        svc = self.make(mtbf=4000.0)  # deadline far away
        write_all(svc)
        svc.fail_server(0)
        svc.replace_server(0)

        def wf():
            yield from svc.get("r0", "v", svc.domain.bbox)

        svc.run_workflow(wf())
        # The read-path repaired the lost objects long before the sweep.
        assert svc.metrics.counters.get("recovered_objects", 0) > 0


class TestAggressiveRecovery:
    def test_immediate_reconstruction_onto_survivors(self):
        svc = make_service("erasure")
        write_all(svc)
        lost = [
            e.key for e in svc.directory.entities.values() if e.primary == 0
        ]
        svc.fail_server(0)
        svc.run()
        for key in lost:
            ent = svc.directory.entities[key]
            assert ent.primary != 0
            assert svc.servers[ent.primary].has(primary_key(ent))

    def test_replica_promotion_path(self):
        svc = StagingService(
            small_config(),
            ReplicationPolicy(recovery=RecoveryConfig(mode="aggressive")),
        )
        write_all(svc)
        svc.fail_server(0)
        svc.run()
        assert svc.metrics.counters.get("replica_promotions", 0) > 0
        for e in svc.directory.entities.values():
            assert svc.servers[e.primary].has(primary_key(e))
        # With replication groups of two, the promoted server's only partner
        # IS the dead server, so full replica restoration needs the
        # replacement to join.
        svc.replace_server(0)
        svc.run()
        from repro.core.runtime import replica_key

        for e in svc.directory.entities.values():
            for r in e.replicas:
                assert not svc.servers[r].failed
                assert svc.servers[r].has(replica_key(e))

    def test_refill_on_replacement(self):
        svc = make_service("erasure")
        write_all(svc)
        svc.fail_server(0)
        svc.run()
        svc.replace_server(0)
        svc.run()
        # Parities/replicas owed to server 0 were refilled.
        assert not svc.servers[0].failed


class TestDegradedMode:
    def test_none_mode_never_repairs(self):
        svc = StagingService(
            small_config(),
            ErasurePolicy(recovery=RecoveryConfig(mode="none", repair_on_access=False)),
        )
        write_all(svc)
        svc.fail_server(0)

        def wf():
            yield from svc.get("r0", "v", svc.domain.bbox)

        svc.run_workflow(wf())
        svc.run()
        assert svc.metrics.counters.get("recovered_objects", 0) == 0
        assert svc.metrics.counters.get("degraded_reads", 0) > 0

    def test_degraded_reads_repeat_work(self):
        svc = StagingService(
            small_config(),
            ErasurePolicy(recovery=RecoveryConfig(mode="none", repair_on_access=False)),
        )
        write_all(svc)
        svc.fail_server(0)

        def wf():
            yield from svc.get("r0", "v", svc.domain.bbox)
            yield from svc.get("r0", "v", svc.domain.bbox)

        svc.run_workflow(wf())
        first = svc.metrics.counters["degraded_reads"]
        assert first >= 2  # every read decodes again (nothing cached)
