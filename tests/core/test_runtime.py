"""Tests for the shared runtime flows (replication, stripes, recovery)."""

import numpy as np
import pytest

from repro import DataLossError
from repro.core.runtime import primary_key, replica_key
from repro.staging.objects import ResilienceState

from tests.conftest import accounting_consistent, make_service, stripes_consistent


def drive(svc, gen):
    return svc.run_workflow(gen)


def stage_entity(svc, block_id=0, version_payloads=1):
    """Write an entity directly through the runtime (no policy)."""
    ent = svc.directory.get_or_create("v", block_id, svc.index.primary_of_block(block_id))
    payloads = []
    for v in range(version_payloads):
        nbytes = svc.domain.nbytes(svc.domain.block_bbox(block_id))
        payload = svc.synth_payload("v", block_id, v, nbytes)
        payloads.append(payload)

        def wf(p=payload):
            from repro.staging.objects import payload_digest

            ent.record_write(svc.step, int(p.size), payload_digest(p))
            yield from svc.runtime.ingest_primary(ent, "w0", p)

        drive(svc, wf())
    return ent, payloads


class TestReplicationFlow:
    def test_replicate_places_copies(self):
        svc = make_service("none")
        ent, payloads = stage_entity(svc)

        def wf():
            yield from svc.runtime.replicate_entity(ent, payloads[-1])

        drive(svc, wf())
        assert ent.state == ResilienceState.REPLICATED
        assert len(ent.replicas) == 1
        target = ent.replicas[0]
        assert (svc.servers[target].fetch_bytes(replica_key(ent)) == payloads[-1]).all()

    def test_replica_targets_in_same_group(self):
        svc = make_service("none")
        ent, payloads = stage_entity(svc)
        drive(svc, svc.runtime.replicate_entity(ent, payloads[-1]))
        group = svc.layout.replication_group(ent.primary)
        assert all(t in group for t in ent.replicas)

    def test_replicate_striped_entity_rejected(self):
        svc = make_service("none")
        ent, payloads = stage_entity(svc)
        ent.stripe = object()  # simulate inconsistent call

        def wf():
            yield from svc.runtime.replicate_entity(ent, payloads[-1])

        with pytest.raises(RuntimeError):
            drive(svc, wf())


class TestStripeFormation:
    def fill_group(self, svc, n_entities=3):
        """Stage n entities whose primaries are in one coding group."""
        ents = []
        gid = None
        for bid in range(svc.domain.n_blocks):
            primary = svc.index.primary_of_block(bid)
            g = svc.layout.coding_group_id(primary)
            if gid is None:
                gid = g
            if g != gid:
                continue
            ent, _ = stage_entity(svc, bid)
            if all(e.primary != ent.primary for e in ents):
                ents.append(ent)
            if len(ents) == n_entities:
                break
        return gid, ents

    def test_form_stripe_encodes_and_registers(self):
        svc = make_service("none")
        gid, ents = self.fill_group(svc, 3)

        def wf():
            yield from svc.runtime.form_stripe(gid, ents)

        drive(svc, wf())
        assert len(svc.directory.stripes) == 1
        stripe = next(iter(svc.directory.stripes.values()))
        assert all(e.state == ResilienceState.ENCODED for e in ents)
        assert all(e.stripe is stripe for e in ents)
        assert stripes_consistent(svc)

    def test_stripe_shard_servers_distinct(self):
        svc = make_service("none")
        gid, ents = self.fill_group(svc, 3)
        drive(svc, svc.runtime.form_stripe(gid, ents))
        stripe = next(iter(svc.directory.stripes.values()))
        servers = [srv for _, srv in stripe.holders(vacant=True)]
        assert len(set(servers)) == len(servers) == stripe.k + stripe.m

    def test_partial_stripe_with_vacancies(self):
        svc = make_service("none")
        gid, ents = self.fill_group(svc, 2)

        def wf():
            yield from svc.runtime.form_stripe(gid, ents + [None])

        drive(svc, wf())
        stripe = next(iter(svc.directory.stripes.values()))
        assert stripe.vacant_slots() != []
        assert stripes_consistent(svc)

    def test_duplicate_primary_rejected(self):
        svc = make_service("none")
        gid, ents = self.fill_group(svc, 2)
        dup = [ents[0], ents[0], ents[1]]
        with pytest.raises(ValueError):
            drive(svc, svc.runtime.form_stripe(gid, dup))

    def test_enqueue_guards(self):
        svc = make_service("none")
        ent, _ = stage_entity(svc)
        svc.runtime.enqueue_for_encoding(ent)
        with pytest.raises(RuntimeError, match="already pending"):
            svc.runtime.enqueue_for_encoding(ent)


class TestEncodedUpdates:
    def setup_stripe(self, svc):
        t = TestStripeFormation()
        gid, ents = t.fill_group(svc, 3)
        drive(svc, svc.runtime.form_stripe(gid, ents))
        return ents

    @pytest.mark.parametrize("strategy", ["delta", "reencode"])
    def test_update_keeps_parity_consistent(self, strategy):
        svc = make_service("none")
        ents = self.setup_stripe(svc)
        ent = ents[1]
        new = svc.synth_payload("v", ent.block_id, 99, ent.nbytes)

        def wf():
            ent.version += 1
            yield from svc.runtime.update_encoded_entity(ent, new, strategy=strategy)

        drive(svc, wf())
        assert (svc.servers[ent.primary].fetch_bytes(primary_key(ent)) == new).all()
        assert stripes_consistent(svc)

    def test_delta_cheaper_than_reencode(self):
        results = {}
        for strategy in ("delta", "reencode"):
            svc = make_service("none")
            ents = self.setup_stripe(svc)
            ent = ents[0]
            new = svc.synth_payload("v", ent.block_id, 5, ent.nbytes)
            t0 = svc.sim.now

            def wf():
                ent.version += 1
                yield from svc.runtime.update_encoded_entity(ent, new, strategy=strategy)

            drive(svc, wf())
            results[strategy] = svc.sim.now - t0
        assert results["delta"] < results["reencode"]

    def test_unknown_strategy_rejected(self):
        svc = make_service("none")
        ents = self.setup_stripe(svc)
        new = svc.synth_payload("v", ents[0].block_id, 5, ents[0].nbytes)
        with pytest.raises(ValueError):
            drive(svc, svc.runtime.update_encoded_entity(ents[0], new, strategy="magic"))


class TestExtractAndRefill:
    def test_extract_restores_unprotected_state(self):
        svc = make_service("none")
        ents = TestEncodedUpdates().setup_stripe(svc)
        ent = ents[0]
        stripe = ent.stripe

        def wf():
            payload = yield from svc.runtime.extract_from_stripe(ent)
            assert payload is not None

        drive(svc, wf())
        assert ent.state == ResilienceState.NONE
        assert ent.stripe is None
        assert stripe.members[0] is None
        assert stripes_consistent(svc)

    def test_extract_all_drops_stripe(self):
        svc = make_service("none")
        ents = TestEncodedUpdates().setup_stripe(svc)
        parity_before = svc.metrics.storage.parity

        def wf():
            for e in list(ents):
                yield from svc.runtime.extract_from_stripe(e)

        drive(svc, wf())
        assert len(svc.directory.stripes) == 0
        assert svc.metrics.storage.parity < parity_before

    def test_refill_vacant_slot(self):
        svc = make_service("none")
        ents = TestEncodedUpdates().setup_stripe(svc)
        ent = ents[0]
        drive(svc, svc.runtime.extract_from_stripe(ent))
        # Re-enqueue: should land back in the vacant slot, not a new stripe.
        svc.runtime.enqueue_for_encoding(ent)
        gid = svc.layout.coding_group_id(ent.primary)
        drive(svc, svc.runtime.encode_pending(gid))
        assert len(svc.directory.stripes) == 1
        assert ent.state == ResilienceState.ENCODED
        assert svc.metrics.counters["slot_refills"] == 1
        assert stripes_consistent(svc)


class TestDegradedReadsAndRecovery:
    def test_degraded_read_returns_exact_bytes(self):
        svc = make_service("none")
        ents = TestEncodedUpdates().setup_stripe(svc)
        ent = ents[0]
        expected = svc.servers[ent.primary].fetch_bytes(primary_key(ent)).copy()
        svc.fail_server(ent.primary)

        def wf():
            payload = yield from svc.runtime.degraded_read(ent, "client")
            assert (payload == expected).all()

        drive(svc, wf())
        assert svc.metrics.counters["degraded_reads"] == 1

    def test_degraded_read_too_many_failures(self):
        svc = make_service("none")
        ents = TestEncodedUpdates().setup_stripe(svc)
        stripe = ents[0].stripe
        # Kill two shard holders: m=1 cannot tolerate it.
        holders = dict(stripe.holders())
        svc.fail_server(holders[0])
        svc.fail_server(holders[1])

        def wf():
            yield from svc.runtime.degraded_read(ents[0], "client")

        with pytest.raises(DataLossError):
            drive(svc, wf())

    def test_recover_primary_from_stripe(self):
        svc = make_service("none")
        ents = TestEncodedUpdates().setup_stripe(svc)
        ent = ents[2]
        expected = svc.servers[ent.primary].fetch_bytes(primary_key(ent)).copy()
        svc.fail_server(ent.primary)
        svc.replace_server(ent.primary)

        def wf():
            yield from svc.runtime.recover_primary(ent)

        drive(svc, wf())
        assert (svc.servers[ent.primary].fetch_bytes(primary_key(ent)) == expected).all()

    def test_recover_primary_from_replica(self):
        svc = make_service("none")
        ent, payloads = stage_entity(svc)
        drive(svc, svc.runtime.replicate_entity(ent, payloads[-1]))
        svc.fail_server(ent.primary)
        svc.replace_server(ent.primary)
        drive(svc, svc.runtime.recover_primary(ent))
        assert (svc.servers[ent.primary].fetch_bytes(primary_key(ent)) == payloads[-1]).all()

    def test_recover_parity(self):
        svc = make_service("none")
        ents = TestEncodedUpdates().setup_stripe(svc)
        stripe = ents[0].stripe
        psid = stripe.parity_servers[0]
        svc.fail_server(psid)
        svc.replace_server(psid)
        drive(svc, svc.runtime.recover_parity(stripe, stripe.k))
        assert svc.servers[psid].has(stripe.shard_key(stripe.k))
        assert stripes_consistent(svc)

    def test_read_entity_unrecoverable_raises(self):
        svc = make_service("none")
        ent, _ = stage_entity(svc)
        svc.fail_server(ent.primary)

        def wf():
            yield from svc.runtime.read_entity(ent, "client")

        with pytest.raises(DataLossError):
            drive(svc, wf())


class TestBreakdownAttribution:
    def test_encode_time_attributed(self):
        svc = make_service("none")
        TestEncodedUpdates().setup_stripe(svc)
        assert svc.metrics.breakdown["encode"] > 0
        assert svc.metrics.breakdown["transport"] > 0
        assert svc.metrics.breakdown["metadata"] > 0

    def test_recovery_time_attributed(self):
        svc = make_service("none")
        ents = TestEncodedUpdates().setup_stripe(svc)
        ent = ents[0]
        svc.fail_server(ent.primary)
        svc.replace_server(ent.primary)
        drive(svc, svc.runtime.recover_primary(ent))
        assert svc.metrics.breakdown["recovery"] > 0
