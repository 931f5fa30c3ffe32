"""Targeted tests for write/read failover edge paths."""

import numpy as np
import pytest

from repro import DataLossError
from repro.core.runtime import primary_key, replica_key
from repro.staging.objects import ResilienceState

from tests.conftest import make_service, stripes_consistent
from tests.core.test_runtime import TestEncodedUpdates, stage_entity


def drive(svc, gen):
    return svc.run_workflow(gen)


class TestEnsureWritablePrimary:
    def test_replicated_promotes_replica(self):
        svc = make_service("replication")

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)

        drive(svc, wf())
        ent = next(iter(svc.directory.entities.values()))
        old_primary = ent.primary
        replica = ent.replicas[0]
        svc.fail_server(old_primary)

        def wf2():
            yield from svc.put("w0", "v", svc.domain.block_bbox(ent.block_id))

        drive(svc, wf2())
        assert ent.primary == replica
        # New primary actually holds the latest bytes; the dead server may
        # remain listed as the *owed* replica target (refilled at
        # replacement time).
        assert svc.servers[ent.primary].has(primary_key(ent))
        assert all(
            svc.servers[r].failed or svc.servers[r].has(replica_key(ent))
            for r in ent.replicas
        )
        svc.replace_server(old_primary)
        svc.run()
        # The sweep refilled the owed copy.
        for r in ent.replicas:
            assert svc.servers[r].has(replica_key(ent))

    def test_encoded_retargets_stripe_slot(self):
        svc = make_service("erasure")

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()
            yield from svc.flush()

        drive(svc, wf())
        svc.run()
        ent = next(
            e for e in svc.directory.entities.values()
            if e.state == ResilienceState.ENCODED
        )
        stripe = ent.stripe
        slot = stripe.member_shard_index(ent.key)
        old_primary = ent.primary
        svc.fail_server(old_primary)
        svc.run()  # aggressive recovery may already relocate

        def wf2():
            yield from svc.put("w0", "v", svc.domain.block_bbox(ent.block_id))

        drive(svc, wf2())
        svc.run()
        assert ent.primary != old_primary
        assert stripe.shard_servers[slot] == ent.primary

    def test_unprotected_moves_to_ring_successor(self):
        svc = make_service("none")
        ent, _ = stage_entity(svc)
        old = ent.primary
        svc.fail_server(old)

        def wf():
            yield from svc.put("w0", "v", svc.domain.block_bbox(ent.block_id))

        drive(svc, wf())
        assert ent.primary != old
        assert not svc.servers[ent.primary].failed

    def test_all_servers_dead_raises(self):
        svc = make_service("none")
        ent, _ = stage_entity(svc)
        for sid in range(svc.config.n_servers):
            svc.servers[sid].failed = True  # direct kill; no policy hooks

        def wf():
            yield from svc.put("w0", "v", svc.domain.block_bbox(ent.block_id))

        with pytest.raises(DataLossError):
            drive(svc, wf())

    def test_pending_redirect_keeps_queue_consistent(self):
        svc = make_service("none")
        ent, _ = stage_entity(svc)
        svc.runtime.enqueue_for_encoding(ent)
        gid = svc.layout.coding_group_id(ent.primary)
        old = ent.primary
        svc.fail_server(old)

        def wf():
            yield from svc.put("w0", "v", svc.domain.block_bbox(ent.block_id))

        drive(svc, wf())
        assert ent.primary != old
        # Its pending-pool registration moved with it.
        assert ent.key in svc.runtime.pending[gid].get(ent.primary, [])
        assert ent.key not in svc.runtime.pending[gid].get(old, [])


class TestRestripePath:
    def test_growing_payload_restripes(self):
        """An update larger than the stripe's shard length re-stripes."""
        svc = make_service("none")
        ents = TestEncodedUpdates().setup_stripe(svc)
        ent = ents[0]
        old_stripe = ent.stripe
        big = svc.synth_payload("v", ent.block_id, 77, old_stripe.shard_len * 2)

        def wf():
            ent.version += 1
            ent.nbytes = int(big.size)
            yield from svc.runtime.update_encoded_entity(ent, big, strategy="delta")

        drive(svc, wf())
        svc.run()
        assert ent.stripe is not old_stripe or ent.stripe is None or ent.state in (
            ResilienceState.PENDING_STRIPE,
            ResilienceState.ENCODED,
        )
        # The big payload is stored and the old slot vacated.
        assert (svc.servers[ent.primary].fetch_bytes(primary_key(ent)) == big).all()
        assert ent.key not in old_stripe.members
        assert stripes_consistent(svc)


class TestPromoteReplicaFallback:
    def test_promote_without_live_replica_reconstructs(self):
        """Aggressive promotion falls back to stripe reconstruction when
        the replicas are gone too (replica target also failed)."""
        from repro.core.recovery import RecoveryConfig
        from repro import ReplicationPolicy, StagingService
        from tests.conftest import small_config

        svc = StagingService(
            small_config(n_servers=8, nodes_per_cabinet=1),
            ReplicationPolicy(recovery=RecoveryConfig(mode="aggressive")),
        )

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()

        drive(svc, wf())
        svc.run()
        ent = next(iter(svc.directory.entities.values()))
        # Kill the replica holder; with pair groups there is no spare, so
        # the copy stays owed until the replacement joins and is refilled.
        replica = ent.replicas[0]
        svc.fail_server(replica)
        svc.run()
        svc.replace_server(replica)
        svc.run()
        assert svc.servers[replica].has(replica_key(ent))
        # Now the primary dies: the refilled replica must carry the reads
        # and aggressive recovery promotes it.
        svc.fail_server(ent.primary)
        svc.run()

        def read():
            yield from svc.get("r0", "v", svc.domain.block_bbox(ent.block_id))

        drive(svc, read())
        assert svc.read_errors == 0


class TestHybridPendingRefresh:
    def test_pending_write_refreshes_replicas(self):
        from repro import CoRECConfig, CoRECPolicy, StagingService
        from tests.conftest import small_config

        # A loose bound keeps everything replicated after the first step.
        svc = StagingService(
            small_config(), CoRECPolicy(CoRECConfig(storage_bound=0.5))
        )

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()

        drive(svc, wf())
        svc.run()
        # Force an entity into the pending state *with* replicas (as a
        # demotion would) and write it again.
        ent = next(
            e for e in svc.directory.entities.values()
            if e.state == ResilienceState.REPLICATED
        )
        svc.runtime.enqueue_for_encoding(ent)
        assert ent.replicas  # kept through the transition

        def wf2():
            yield from svc.put("w0", "v", svc.domain.block_bbox(ent.block_id))

        drive(svc, wf2())
        # The replica copy matches the latest version.
        target = ent.replicas[0]
        primary_bytes = svc.servers[ent.primary].fetch_bytes(primary_key(ent))
        replica_bytes = svc.servers[target].fetch_bytes(replica_key(ent))
        assert (primary_bytes == replica_bytes).all()


class TestRefreshRacesEncoder:
    """A pending entity's writer refreshes its replica copies under the
    entity lock while an encoder, holding only the stripe lock, puts the
    entity in a stripe and reclaims those copies: the refresh must not
    store a copy the entity no longer lists (ROADMAP 3(i), the replica
    leak).  S3D under async protection, a server failed at step 1 and
    replaced at step 2 so recovery, pending encodes and the step's writes
    overlap — the smallest geometries that still race."""

    @pytest.mark.parametrize("shrink, victim", [(8, 2), (4, 5)])
    def test_no_replica_copy_outlives_the_entitys_replica_set(self, shrink, victim):
        from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService
        from repro.chaos.invariants import QUIESCENT, run_invariants
        from repro.workloads.s3d import S3DConfig, S3DWorkload

        cfg = S3DConfig(
            scale_index=1, shrink=shrink, per_core_subdomain=8, element_bytes=8,
            timesteps=3, analysis_every=2,
            failure_plan={1: [("fail", victim)], 2: [("replace", victim)]},
        )
        svc = StagingService(
            StagingConfig(
                n_servers=cfg.n_staging, domain_shape=cfg.domain_shape, element_bytes=8,
                object_max_bytes=4096, async_protection=True, nodes_per_cabinet=1, seed=1,
            ),
            CoRECPolicy(CoRECConfig(storage_bound=0.67)),
        )
        drive(svc, S3DWorkload(svc, cfg).run())
        svc.run()
        assert [str(v) for v in run_invariants(svc, tier=QUIESCENT)] == []
        assert svc.verify_all()["unrecoverable"] == []
