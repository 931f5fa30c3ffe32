"""Tests for the metadata directory."""

import pytest

from repro.staging.domain import Domain
from repro.staging.metadata import MetadataDirectory
from repro.staging.objects import ResilienceState, StripeInfo


def make_dir():
    return MetadataDirectory(Domain((16,), (4,)), n_servers=4)


class TestEntityRegistry:
    def test_get_or_create_idempotent(self):
        d = make_dir()
        a = d.get_or_create("v", 1, primary=2)
        b = d.get_or_create("v", 1, primary=3)  # primary arg ignored on reuse
        assert a is b
        assert a.primary == 2

    def test_get_missing_returns_none(self):
        assert make_dir().get("v", 0) is None

    def test_require_missing_raises(self):
        with pytest.raises(KeyError):
            make_dir().require("v", 0)

    def test_entity_bbox_from_domain(self):
        d = make_dir()
        e = d.get_or_create("v", 2, 0)
        assert e.bbox.lb == (8,)

    def test_owner_is_stable_and_in_range(self):
        d = make_dir()
        o1 = d.owner_of(("v", 3))
        o2 = d.owner_of(("v", 3))
        assert o1 == o2
        assert 0 <= o1 < 4

    def test_owner_is_the_hash_taken_once_per_key(self, monkeypatch):
        from repro.staging import metadata
        from repro.util.rng import stable_hash

        hashed = []

        def counting(text):
            hashed.append(text)
            return stable_hash(text)

        monkeypatch.setattr(metadata, "stable_hash", counting)
        d = MetadataDirectory(Domain((64,), (4,)), n_servers=7)
        keys = [(name, b) for name in ("v", "pressure", "é/x") for b in range(16)]
        for _ in range(3):
            for name, b in keys:
                assert d.owner_of((name, b)) == stable_hash(f"meta:{name}/{b}") % 7
        assert len(hashed) == len(keys)

    def test_entities_on_server(self):
        d = make_dir()
        d.get_or_create("v", 0, primary=1)
        d.get_or_create("v", 1, primary=2)
        d.get_or_create("v", 2, primary=1)
        assert {e.block_id for e in d.entities_on_server(1)} == {0, 2}

    def test_entities_in_state(self):
        d = make_dir()
        e = d.get_or_create("v", 0, 0)
        e.state = ResilienceState.REPLICATED
        assert d.entities_in_state(ResilienceState.REPLICATED) == [e]
        assert d.entities_in_state(ResilienceState.ENCODED) == []


class TestStripeRegistry:
    def test_stripe_ids_monotonic(self):
        d = make_dir()
        assert d.new_stripe_id() == 0
        assert d.new_stripe_id() == 1

    def test_register_and_drop(self):
        d = make_dir()
        s = StripeInfo(0, 2, 1, [("v", 0), ("v", 1)], {}, [0, 1, 2], [4, 4], 4)
        d.register_stripe(s)
        assert d.stripes[0] is s
        d.drop_stripe(0)
        assert 0 not in d.stripes
        d.drop_stripe(0)  # idempotent


class TestReverseIndexes:
    def test_create_indexes_primary_and_state(self):
        d = make_dir()
        e = d.get_or_create("v", 0, primary=2)
        assert ("v", 0) in d.entities_by_primary[2]
        assert ("v", 0) in d.entities_by_state[ResilienceState.NONE]
        assert e.seq == 0
        assert d.get_or_create("v", 1, primary=2).seq == 1

    def test_primary_move_updates_index(self):
        d = make_dir()
        e = d.get_or_create("v", 0, primary=1)
        e.primary = 3
        assert ("v", 0) not in d.entities_by_primary.get(1, set())
        assert ("v", 0) in d.entities_by_primary[3]
        assert d.entities_on_server(1) == []
        assert d.entities_on_server(3) == [e]

    def test_state_change_moves_between_sets(self):
        d = make_dir()
        e = d.get_or_create("v", 0, 0)
        e.state = ResilienceState.REPLICATED
        e.state = ResilienceState.ENCODED
        assert ("v", 0) not in d.entities_by_state[ResilienceState.REPLICATED]
        assert ("v", 0) in d.entities_by_state[ResilienceState.ENCODED]

    def test_replica_list_reassignment_diffs_servers(self):
        d = make_dir()
        e = d.get_or_create("v", 0, 0)
        e.replicas = [1, 2]
        e.replicas = [2, 3]
        assert ("v", 0) not in d.replicas_by_server.get(1, set())
        assert ("v", 0) in d.replicas_by_server[2]
        assert ("v", 0) in d.replicas_by_server[3]
        e.replicas = []
        assert all(("v", 0) not in s for s in d.replicas_by_server.values())

    def test_consumer_apis_preserve_insertion_order(self):
        d = make_dir()
        # Insert out of block order; seq order must win over key order.
        for bid in (3, 0, 2):
            d.get_or_create("v", bid, primary=1)
        assert [e.block_id for e in d.entities_on_server(1)] == [3, 0, 2]
        assert [e.block_id for e in d.entities_in_state(ResilienceState.NONE)] == [3, 0, 2]

    def test_register_stripe_indexes_all_shard_servers(self):
        d = make_dir()
        s = StripeInfo(0, 2, 1, [("v", 0), ("v", 1)], {}, [0, 1, 2], [4, 4], 4,
                       group_id=0)
        d.register_stripe(s)
        for srv in (0, 1, 2):
            assert 0 in d.stripes_by_server[srv]
        assert d.vacant_by_group.get(0, set()) == set()  # no vacant slots
        d.drop_stripe(0)
        assert all(0 not in ids for ids in d.stripes_by_server.values())
        assert s._dir is None

    def test_vacate_fill_cycle_maintains_free_list(self):
        d = make_dir()
        s = StripeInfo(1, 2, 1, [("v", 0), ("v", 1)], {}, [0, 1, 2], [4, 4], 4,
                       group_id=5)
        d.register_stripe(s)
        s.vacate_slot(0)
        assert 1 in d.vacant_by_group[5]
        assert [st.stripe_id for st in d.vacant_stripes(5)] == [1]
        s.fill_slot(0, ("w", 9), 3)
        assert 1 not in d.vacant_by_group[5]
        # The placeholder server 0 held no other slot, so it is dropped
        # while the new server 3 is picked up.
        assert 1 not in d.stripes_by_server.get(0, set())
        assert 1 in d.stripes_by_server[3]

    def test_retarget_keeps_server_with_remaining_slot(self):
        d = make_dir()
        # Server 0 holds both slot 0 and the parity slot.
        s = StripeInfo(2, 2, 1, [("v", 0), ("v", 1)], {}, [0, 1, 0], [4, 4], 4,
                       group_id=0)
        d.register_stripe(s)
        s.retarget_shard(0, 3)
        # Server 0 still holds the parity, so it must stay indexed.
        assert 2 in d.stripes_by_server[0]
        assert 2 in d.stripes_by_server[3]
        s.retarget_shard(2, 1)
        assert 2 not in d.stripes_by_server.get(0, set())

    def test_partial_stripe_registered_on_free_list(self):
        d = make_dir()
        s = StripeInfo(3, 2, 1, [("v", 0), None], {}, [0, 1, 2], [4, 0], 4,
                       group_id=7)
        d.register_stripe(s)
        assert 3 in d.vacant_by_group[7]

    def test_op_stats_count_index_reads(self):
        d = make_dir()
        for bid in range(4):
            d.get_or_create("v", bid, primary=bid % 2)
        before = d.op_stats["entity_touches"]
        d.entities_on_server(0)
        assert d.op_stats["entity_touches"] == before + 2
        assert d.op_stats["full_scans"] == 0
        d.storage_breakdown()
        assert d.op_stats["full_scans"] == 1


class TestStorageBreakdown:
    def test_empty(self):
        d = make_dir()
        b = d.storage_breakdown()
        assert b == {"original": 0, "replica_overhead": 0, "parity_overhead": 0}
        assert d.storage_efficiency() == 1.0

    def test_replicated_entity(self):
        d = make_dir()
        e = d.get_or_create("v", 0, 0)
        e.record_write(0.0, 0, 100, "x")
        e.state = ResilienceState.REPLICATED
        e.replicas = [1]
        b = d.storage_breakdown()
        assert b["original"] == 100
        assert b["replica_overhead"] == 100
        assert d.storage_efficiency() == 0.5

    def test_encoded_entities_count_stripe_once(self):
        d = make_dir()
        s = StripeInfo(0, 2, 1, [("v", 0), ("v", 1)], {}, [0, 1, 2], [100, 100], 100)
        d.register_stripe(s)
        for bid in (0, 1):
            e = d.get_or_create("v", bid, bid)
            e.record_write(0.0, 0, 100, "x")
            e.state = ResilienceState.ENCODED
            e.stripe = s
        b = d.storage_breakdown()
        assert b["original"] == 200
        assert b["parity_overhead"] == 100
        assert d.storage_efficiency() == pytest.approx(200 / 300)

    def test_unwritten_entity_ignored(self):
        d = make_dir()
        d.get_or_create("v", 0, 0)
        assert d.storage_breakdown()["original"] == 0
