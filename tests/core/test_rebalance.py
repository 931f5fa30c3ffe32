"""Tests for shard rebalancing and repair-on-update after replacements."""

import pytest

from repro import ErasurePolicy, StagingService
from repro.core.recovery import RecoveryConfig
from repro.core.runtime import primary_key
from repro.staging.objects import ResilienceState

from tests.conftest import make_service, small_config, stripes_consistent


def write_all(svc, steps=2):
    def wf():
        for _ in range(steps):
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(wf())
    svc.run()


class TestRebalance:
    def test_aggressive_recovery_then_rebalance(self):
        """Aggressive recovery displaces shards off-group (the survivor
        tiers avoid doubling); the replacement pulls them back in-group."""
        svc = make_service("erasure")
        write_all(svc)
        group = set(svc.layout.coding_group(0))
        svc.fail_server(0)
        svc.run()
        def servers(s):
            return [srv for _, srv in s.holders(vacant=True)]

        displaced = [
            s
            for s in svc.directory.stripes.values()
            if group & set(servers(s)) and any(srv not in group for srv in servers(s))
        ]
        assert displaced, "expected off-group shards after aggressive recovery"
        # Never doubled, even while displaced.
        for s in svc.directory.stripes.values():
            assert len(set(servers(s))) == len(servers(s))
        svc.replace_server(0)
        svc.run()
        for s in svc.directory.stripes.values():
            assert len(set(servers(s))) == len(servers(s))
            owning = set(svc.layout.coding_group_members(s.group_id))
            assert all(srv in owning for srv in servers(s))
        assert stripes_consistent(svc)

    def test_sequential_double_failure_survives(self):
        """After rebalance, a second failure in the same group is tolerable."""
        svc = make_service("erasure")
        write_all(svc)
        svc.fail_server(0)
        svc.run()
        svc.replace_server(0)
        svc.run()
        # Second failure hits a different server of the same group.
        group = svc.layout.coding_group(0)
        second = next(s for s in group if s != 0)
        svc.fail_server(second)

        def wf():
            _, payloads = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        svc.run()
        assert svc.read_errors == 0

    def test_corec_sequential_double_failure(self):
        svc = make_service("corec")
        write_all(svc, steps=3)
        svc.fail_server(1)

        def touch():
            yield from svc.get("r0", "v", svc.domain.bbox)

        svc.run_workflow(touch())
        svc.replace_server(1)
        svc.run_workflow(touch())  # repair-on-access restores server 1
        svc.run()
        svc.fail_server(5)
        svc.run_workflow(touch())
        svc.run()
        assert svc.read_errors == 0

    def test_rebalance_counter(self):
        svc = make_service("erasure")
        write_all(svc)
        svc.fail_server(0)
        svc.run()
        svc.replace_server(0)
        svc.run()
        assert svc.metrics.counters.get("rebalanced_shards", 0) > 0


    def test_rehomed_parity_stays_in_the_stripes_own_sets(self):
        """A stripe's group is ``group_id``, never slot 0's server.  Under
        coding_sets, two failures in the group leave aggressive recovery
        no free member, so slot 0 is rehomed to another group; when the
        parity server then fails, its replacement must still come from
        the stripe's own candidates (menu, then members), not from the
        group slot 0 now sits in."""
        svc = StagingService(
            small_config(n_servers=16, nodes_per_cabinet=1, placement_mode="coding_sets"),
            ErasurePolicy(recovery=RecoveryConfig(mode="aggressive")),
        )
        write_all(svc, steps=1)
        stripe = min(
            (s for s in svc.directory.stripes.values() if all(s.members)),
            key=lambda s: s.stripe_id,
        )
        named = [srv for _, srv in stripe.holders(vacant=True)]
        free = [s for s in svc.layout.coding_group_members(stripe.group_id) if s not in named]
        for sid in [*free, named[0]]:
            svc.fail_server(sid)
            svc.run()
        slot0 = dict(stripe.holders())[0]
        assert svc.layout.coding_group_id(slot0) != stripe.group_id
        svc.fail_server(stripe.parity_servers[0])
        svc.run()
        assert stripe.parity_servers[0] in svc.layout.parity_candidates(stripe.group_id)
        assert stripes_consistent(svc)


class TestRepairOnUpdate:
    def test_missing_parity_rebuilt_by_update(self):
        """A replaced parity holder is repaired the moment its stripe is
        updated (paper Section III-D, repair on query/update)."""
        svc = StagingService(
            small_config(),
            ErasurePolicy(
                update_strategy="delta",
                recovery=RecoveryConfig(mode="lazy", mtbf_s=1e6),  # sweep far away
            ),
        )
        write_all(svc, steps=1)
        stripe = next(iter(svc.directory.stripes.values()))
        psid = stripe.parity_servers[0]
        svc.fail_server(psid)
        svc.replace_server(psid)
        assert not svc.servers[psid].has(stripe.shard_key(stripe.k))
        # Update a member entity: the delta path must first rebuild parity.
        member = svc.directory.entities[next(m for m in stripe.members if m)]

        def wf():
            box = svc.domain.block_bbox(member.block_id)
            yield from svc.put("w0", "v", box)

        svc.run_workflow(wf())
        svc.run()
        assert svc.servers[psid].has(stripe.shard_key(stripe.k))
        assert svc.metrics.counters.get("recovered_parities", 0) >= 1
        assert stripes_consistent(svc)

    def test_degraded_stripe_update_keeps_consistency(self):
        """Updating a member while another member's server is down must
        leave the stripe decodable for the down member afterwards."""
        svc = make_service("corec")
        write_all(svc, steps=3)
        # Find an encoded entity and kill a *different* member's server.
        ent = next(
            e
            for e in svc.directory.entities.values()
            if e.state == ResilienceState.ENCODED
            and sum(1 for m in e.stripe.members if m) >= 2
        )
        other_key = next(m for m in ent.stripe.members if m and m != ent.key)
        other = svc.directory.entities[other_key]
        svc.fail_server(other.primary)

        def wf():
            box = svc.domain.block_bbox(ent.block_id)
            yield from svc.put("w0", "v", box)
            # Now read the dead member through the updated stripe.
            box2 = svc.domain.block_bbox(other.block_id)
            yield from svc.get("r0", "v", box2)

        svc.run_workflow(wf())
        svc.run()
        assert svc.read_errors == 0


class TestParityMoveRace:
    def test_move_parity_serializes_with_updates(self):
        """Regression: moving a parity shard concurrently with stripe
        updates must never install a stale copy (the move is stripe-locked
        and re-fetches at its application instant)."""
        svc = make_service("erasure")
        write_all(svc, steps=1)
        stripe = next(iter(svc.directory.stripes.values()))
        idx = stripe.k  # the parity slot
        old_sid = stripe.parity_servers[0]
        # Pick a destination outside the stripe.
        onto = next(
            s for s in range(svc.config.n_servers)
            if all(s != srv for _, srv in stripe.holders(vacant=True))
        )
        member_key = next(m for m in stripe.members if m is not None)
        member = svc.directory.entities[member_key]
        new_payload = svc.synth_payload("v", member.block_id, 99, member.nbytes)

        def mover():
            yield from svc.policy.recovery._move_parity(stripe, idx, onto)

        def updater():
            # Starts at the same instant; must wait for the stripe lock.
            member.version += 1
            yield from svc.runtime.update_encoded_entity(
                member, new_payload, strategy="reencode"
            )

        p1 = svc.sim.process(mover())
        p2 = svc.sim.process(updater())
        from repro.sim.engine import AllOf

        def wf():
            yield AllOf(svc.sim, [p1, p2])

        svc.run_workflow(wf())
        svc.run()
        assert stripe.parity_servers[0] == onto
        assert svc.servers[onto].has(stripe.shard_key(idx))
        assert not svc.servers[old_sid].has(stripe.shard_key(idx))
        assert stripes_consistent(svc)
