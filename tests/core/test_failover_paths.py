"""Targeted tests for write/read failover edge paths."""

import numpy as np
import pytest

from repro import DataLossError
from repro.core.runtime import primary_key, replica_key
from repro.staging.objects import ResilienceState

from tests.conftest import make_service
from tests.core.test_runtime import stage_entity


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
        assert dict(stripe.holders())[slot] == ent.primary
        assert ent.stripe.stripe_id in svc.directory.stripes_by_server[ent.primary]

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
        # Its queued key moved with it.
        assert ent.key in svc.directory.pending[gid].get(ent.primary, [])
        assert ent.key not in svc.directory.pending[gid].get(old, [])


class TestQueuedKeyFollowsPrimary:
    def test_recovery_onto_a_survivor_rekeys_the_queued_key(self):
        """Aggressive recovery moves a queued entity's primary; the next
        stripe formation must still see one member per server."""
        from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService
        from repro.chaos.invariants import check_reverse_indexes
        from repro.core.recovery import RecoveryConfig

        svc = StagingService(
            StagingConfig(n_servers=8, domain_shape=(64, 64, 32)),
            CoRECPolicy(
                CoRECConfig(storage_bound=0.3, recovery=RecoveryConfig(mode="aggressive"))
            ),
        )

        def put_all():
            for b in range(svc.domain.n_blocks):
                yield from svc.put("w0", "v", svc.domain.block_bbox(b))

        drive(svc, put_all())
        svc.run()
        queued = []
        for sid in (0, 2, 6):
            ent = next(
                e for e in svc.directory.entities_on_server(sid)
                if e.state == ResilienceState.REPLICATED
            )
            svc.runtime.enqueue_for_encoding(ent)
            queued.append(ent)
        svc.fail_server(0)
        svc.run()
        assert queued[0].primary != 0  # recovered onto a survivor
        svc.replace_server(0)
        svc.run()
        assert check_reverse_indexes(svc) == []

        def barrier():
            yield from svc.end_step()
            yield from svc.flush()

        drive(svc, barrier())
        svc.run()
        assert all(e.state == ResilienceState.ENCODED for e in queued)
        assert check_reverse_indexes(svc) == []


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
    leak).  The same race covers placement: a writer redirects a member
    off its failed primary while the encoder gathers, and the stripe must
    place that slot on the member's new server, so rebalance can see and
    undo the doubling (once two shards sat on one server while a group
    member was alive and shard-free).  S3D under async protection, a
    server failed at step 1 and replaced at step 2 so recovery, pending
    encodes and the step's writes overlap — the smallest geometries that
    still race."""

    @pytest.mark.parametrize(
        "shrink, per_core_subdomain, object_max_bytes, victim",
        [(8, 8, 4096, 2), (4, 8, 4096, 5), (8, 8, 4096, 0), (4, 16, 16384, 5)],
    )
    def test_no_replica_copy_outlives_the_entitys_replica_set(
        self, shrink, per_core_subdomain, object_max_bytes, victim
    ):
        from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService
        from repro.chaos.invariants import QUIESCENT, run_invariants
        from repro.workloads.s3d import S3DConfig, S3DWorkload

        cfg = S3DConfig(
            scale_index=1, shrink=shrink, per_core_subdomain=per_core_subdomain,
            element_bytes=8, timesteps=3, analysis_every=2,
            failure_plan={1: [("fail", victim)], 2: [("replace", victim)]},
        )
        svc = StagingService(
            StagingConfig(
                n_servers=cfg.n_staging, domain_shape=cfg.domain_shape, element_bytes=8,
                object_max_bytes=object_max_bytes, async_protection=True,
                nodes_per_cabinet=1, seed=1,
            ),
            CoRECPolicy(CoRECConfig(storage_bound=0.67)),
        )
        drive(svc, S3DWorkload(svc, cfg).run())
        svc.run()
        assert [str(v) for v in run_invariants(svc, tier=QUIESCENT)] == []
        assert svc.verify_all()["unrecoverable"] == []
