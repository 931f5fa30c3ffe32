"""Each invariant checker passes on a healthy service and catches seeded faults."""

import numpy as np
import pytest

from repro.chaos.invariants import (
    ONLINE,
    QUIESCENT,
    run_invariants,
)
from repro.core.runtime import primary_key, replica_key
from repro.sim.resources import Resource
from repro.staging.objects import ResilienceState

from tests.conftest import make_service


def quiesced_service(policy: str = "corec"):
    """A drained service holding both replicated entities and stripes."""
    svc = make_service(policy)

    def wf():
        for name in ("va", "vb"):
            for b in range(svc.domain.n_blocks):
                yield from svc.put("w0", name, svc.domain.block_bbox(b))
        yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(wf())
    svc.run()
    return svc


@pytest.fixture(scope="module")
def healthy():
    return quiesced_service()


def violations_of(svc, name):
    return [v for v in run_invariants(svc, tier=QUIESCENT) if v.invariant == name]


class TestHealthyService:
    def test_full_quiescent_suite_clean(self, healthy):
        assert run_invariants(healthy, tier=QUIESCENT) == []

    def test_has_both_protection_kinds(self, healthy):
        states = {e.state for e in healthy.directory.entities.values()}
        assert ResilienceState.ENCODED in states
        assert ResilienceState.REPLICATED in states
        assert healthy.directory.stripes

    def test_online_tier_runs_mid_flight(self):
        svc = make_service("corec")

        def wf():
            for b in range(svc.domain.n_blocks):
                yield from svc.put("w0", "v", svc.domain.block_bbox(b))

        svc.run_workflow(wf())
        svc.sim.run(until=svc.sim.peek())  # stop between events, not drained
        assert run_invariants(svc, tier=ONLINE) == []

    def test_quiescent_tier_refuses_live_simulator(self):
        svc = make_service("corec")
        svc.sim.timeout(1.0)
        with pytest.raises(RuntimeError, match="drained"):
            run_invariants(svc, tier=QUIESCENT)


class TestDurability:
    def test_lost_replicated_entity_flagged(self):
        svc = quiesced_service()
        ent = next(
            e for e in svc.directory.entities.values()
            if e.state == ResilienceState.REPLICATED
        )
        svc.servers[ent.primary].delete_bytes(primary_key(ent))
        for r in ent.replicas:
            svc.servers[r].delete_bytes(replica_key(ent))
        found = [v for v in run_invariants(svc, tier=ONLINE) if v.invariant == "durability"]
        assert found and f"{ent.name}/{ent.block_id}" in found[0].detail

    def test_pending_without_replicas_exempt(self):
        svc = quiesced_service()
        ent = next(iter(svc.directory.entities.values()))
        ent.state = ResilienceState.PENDING_STRIPE
        ent.replicas = []
        ent.stripe = None
        svc.servers[ent.primary].delete_bytes(primary_key(ent))
        assert [v for v in run_invariants(svc, tier=ONLINE) if v.invariant == "durability"] == []


class TestBytesConservation:
    def test_failed_server_holding_objects_flagged(self):
        svc = quiesced_service()
        kept = dict(svc.servers[0].store)
        svc.servers[0].fail()
        svc.servers[0].store.update(kept)
        found = [
            v for v in run_invariants(svc, tier=ONLINE)
            if v.invariant == "bytes_conservation"
        ]
        assert found and "s0" in found[0].detail


class TestLockLeaks:
    def test_held_lock_flagged(self):
        svc = quiesced_service()
        lock = Resource(svc.sim)
        lock.request()
        svc.sim.run()  # consume the grant event; the slot stays held
        svc.runtime._entity_locks[("leak", 0)] = lock
        found = violations_of(svc, "lock_leaks")
        assert found and "leak" in found[0].detail


class TestAccounting:
    def test_skewed_accountant_flagged(self):
        svc = quiesced_service()
        svc.metrics.storage.replica += 123
        found = violations_of(svc, "accounting")
        assert found and "replica" in found[0].detail


class TestAntiAffinity:
    def test_doubled_shard_with_free_member_flagged(self):
        svc = quiesced_service()
        stripe = next(
            s for s in svc.directory.stripes.values()
            if sum(1 for mk in s.members if mk is not None) >= 2
        )
        # Double the parity onto the first occupied data slot's server while
        # its own server (alive, now shard-free) could host it.
        slot = next(i for i, mk in enumerate(stripe.members) if mk is not None)
        stripe.parity_servers[0] = svc.directory.entities[stripe.members[slot]].primary
        found = violations_of(svc, "anti_affinity")
        assert found and f"stripe {stripe.stripe_id}" in found[0].detail

    def test_vacant_placeholder_is_not_a_holder(self, healthy):
        # holders() drives both the checker and rehoming: vacant slots must
        # not count.
        for stripe in healthy.directory.stripes.values():
            occ = {srv for _, srv in stripe.holders()}
            for i in stripe.vacant_slots():
                if stripe.placeholders[i] not in occ:
                    return  # found a placeholder correctly excluded
        pytest.skip("no stripe with an exclusively-placeholder server")


class TestStoreConsistency:
    def test_orphan_replica_flagged(self):
        svc = quiesced_service()
        svc.servers[0].store_bytes("R/ghost/0", np.zeros(8, dtype=np.uint8))
        found = violations_of(svc, "store_consistency")
        assert found and "orphan replica" in found[0].detail

    def test_unrecognized_key_flagged(self):
        svc = quiesced_service()
        svc.servers[1].store_bytes("junk-key", np.zeros(8, dtype=np.uint8))
        found = violations_of(svc, "store_consistency")
        assert found and "unrecognized" in found[0].detail

    def test_replica_outside_replica_set_flagged(self):
        svc = quiesced_service()
        ent = next(
            e for e in svc.directory.entities.values()
            if e.state == ResilienceState.REPLICATED and e.replicas
        )
        outsider = next(
            s.server_id for s in svc.servers
            if s.server_id != ent.primary and s.server_id not in ent.replicas
        )
        svc.servers[outsider].store_bytes(
            replica_key(ent), np.zeros(ent.nbytes, dtype=np.uint8)
        )
        found = violations_of(svc, "store_consistency")
        assert found and "not in the entity's replica set" in found[0].detail

    # A stale copy is seeded by storing the same bytes under an older
    # version: what a write that never reached that copy leaves behind.
    def test_stale_primary_copy_flagged(self):
        svc = quiesced_service()
        ent = next(iter(svc.directory.entities.values()))
        srv = svc.servers[ent.primary]
        srv.store_bytes(primary_key(ent), srv.fetch_bytes(primary_key(ent)), ent.version - 1)
        found = violations_of(svc, "store_consistency")
        assert [v.detail for v in found] == [
            f"{srv.name}: primary copy {primary_key(ent)!r} holds v{ent.version - 1}, "
            f"entity is at v{ent.version}"
        ]

    def test_stale_replica_copy_flagged(self):
        svc = quiesced_service()
        ent = next(
            e for e in svc.directory.entities.values()
            if e.state == ResilienceState.REPLICATED and e.replicas
        )
        srv = svc.servers[ent.replicas[0]]
        srv.store_bytes(replica_key(ent), srv.fetch_bytes(replica_key(ent)), ent.version - 1)
        found = violations_of(svc, "store_consistency")
        assert found and f"replica {replica_key(ent)!r} holds v{ent.version - 1}" in found[0].detail

    def test_stripe_encoding_an_older_version_flagged(self):
        svc = quiesced_service()
        stripe = next(
            s for s in svc.directory.stripes.values() if any(mk is not None for mk in s.members)
        )
        key = next(mk for mk in stripe.members if mk is not None)
        ent = svc.directory.entities[key]
        stripe.member_versions[key] = ent.version - 1
        found = violations_of(svc, "store_consistency")
        assert found and (
            f"stripe {stripe.stripe_id} encodes v{ent.version - 1} of {primary_key(ent)!r}, "
            f"entity is at v{ent.version}"
        ) in found[0].detail


class TestParityIntegrity:
    def test_corrupt_parity_flagged(self):
        svc = quiesced_service()
        stripe = next(iter(svc.directory.stripes.values()))
        key = stripe.shard_key(stripe.k)
        srv = svc.servers[stripe.parity_servers[0]]
        corrupted = srv.store[key].copy()
        corrupted[0] ^= 0xFF
        srv.store[key] = corrupted
        found = violations_of(svc, "parity_integrity")
        assert found and f"stripe {stripe.stripe_id}" in found[0].detail

    def test_degraded_stripe_skipped_not_crashed(self):
        svc = quiesced_service()
        stripe = next(
            s for s in svc.directory.stripes.values()
            if any(mk is not None for mk in s.members)
        )
        slot = next(i for i, mk in enumerate(stripe.members) if mk is not None)
        svc.servers[svc.directory.entities[stripe.members[slot]].primary].fail()
        # The member's data shard is gone: the parity checker must skip the
        # stripe (durability owns that case) instead of fetching from the
        # failed server.
        assert violations_of(svc, "parity_integrity") == []


class TestReverseIndexes:
    def test_clean_on_healthy_service(self, healthy):
        assert violations_of(healthy, "reverse_indexes") == []

    def test_tampered_primary_index_flagged(self):
        svc = quiesced_service()
        d = svc.directory
        key = next(iter(d.entities))
        d.entities_by_primary[d.entities[key].primary].discard(key)
        found = violations_of(svc, "reverse_indexes")
        assert found and "entities_by_primary" in found[0].detail

    def test_raw_shard_servers_mutation_flagged(self):
        # Bypassing StripeInfo.retarget_shard leaves the stripes_by_server
        # index stale; the cross-check must notice.
        svc = quiesced_service()
        stripe = next(iter(svc.directory.stripes.values()))
        fresh = next(
            s for s in range(svc.config.n_servers)
            if all(s != srv for _, srv in stripe.holders(vacant=True))
        )
        stripe.parity_servers[0] = fresh
        found = violations_of(svc, "reverse_indexes")
        assert found and "stripes_by_server" in found[0].detail

    def test_placeholder_on_an_occupied_slot_flagged(self):
        # An occupied slot's server is its member's primary; a stored
        # placeholder for it would be a second record.
        svc = quiesced_service()
        stripe = next(iter(svc.directory.stripes.values()))
        slot = next(i for i, mk in enumerate(stripe.members) if mk is not None)
        stripe.placeholders[slot] = 0
        found = violations_of(svc, "reverse_indexes")
        assert found and "placeholders" in found[0].detail

    def test_stale_state_set_flagged(self):
        svc = quiesced_service()
        d = svc.directory
        ent = next(iter(d.entities.values()))
        # Plant the key in a state set it does not belong to.
        wrong = next(s for s in ResilienceState if s != ent.state)
        d.entities_by_state[wrong].add(ent.key)
        found = violations_of(svc, "reverse_indexes")
        assert found and "entities_by_state" in found[0].detail

    def test_stale_vacant_entry_flagged(self):
        svc = quiesced_service()
        d = svc.directory
        full = next(
            (s for s in d.stripes.values() if not s.vacant_slots()), None
        )
        if full is None:
            pytest.skip("no fully-occupied stripe in the fixture")
        d.vacant_by_group.setdefault(full.group_id, set()).add(full.stripe_id)
        found = violations_of(svc, "reverse_indexes")
        assert found and "vacant_by_group" in found[0].detail


class TestEncodeQueue:
    """The encode queue holds exactly the pending entities, each once,
    under its primary: the ways a hand-kept copy drifts from them."""

    def queued_service(self):
        svc = quiesced_service()
        ent = svc.directory.entities_in_state(ResilienceState.REPLICATED)[0]
        svc.runtime.enqueue_for_encoding(ent)
        assert violations_of(svc, "reverse_indexes") == []
        return svc, ent

    def test_stale_server_key_flagged(self):
        svc, ent = self.queued_service()
        d = svc.directory
        d.pending_queue(ent.primary).remove(ent.key)
        other = next(
            s for s in svc.layout.coding_group_members(svc.layout.coding_group_id(ent.primary))
            if s != ent.primary
        )
        d.pending_queue(other).append(ent.key)
        found = violations_of(svc, "reverse_indexes")
        assert found and all("pending" in v.detail for v in found)
        assert any(str(other) in v.detail for v in found)

    def test_pending_entity_without_key_flagged(self):
        svc, ent = self.queued_service()
        svc.directory.pending_queue(ent.primary).remove(ent.key)
        found = violations_of(svc, "reverse_indexes")
        assert found and "pending" in found[0].detail and repr(ent.key) in found[0].detail

    def test_key_of_non_pending_entity_flagged(self):
        svc = quiesced_service()
        ent = svc.directory.entities_in_state(ResilienceState.ENCODED)[0]
        svc.directory.pending_queue(ent.primary).append(ent.key)
        found = violations_of(svc, "reverse_indexes")
        assert found and "pending" in found[0].detail and repr(ent.key) in found[0].detail

    def test_key_queued_twice_flagged(self):
        svc, ent = self.queued_service()
        svc.directory.pending_queue(ent.primary).append(ent.key)
        found = violations_of(svc, "reverse_indexes")
        assert found and "queued twice" in found[0].detail


class TestDigestAudit:
    def test_lost_entity_unrecoverable(self):
        svc = quiesced_service()
        ent = next(
            e for e in svc.directory.entities.values()
            if e.state == ResilienceState.REPLICATED
        )
        svc.servers[ent.primary].delete_bytes(primary_key(ent))
        for r in ent.replicas:
            svc.servers[r].delete_bytes(replica_key(ent))
        found = [
            v
            for v in run_invariants(svc, tier=QUIESCENT, names=("digest_audit",))
            if v.invariant == "digest_audit"
        ]
        assert found and f"{ent.name}/{ent.block_id}" in found[0].detail
