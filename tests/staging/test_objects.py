"""Tests for the object model (ids, entities, stripes)."""

import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.staging.domain import BBox
from repro.staging.objects import (
    BlockEntity,
    DataObject,
    ObjectId,
    ResilienceState,
    StripeInfo,
    content_id,
    payload_digest,
)


class TestObjectId:
    def test_key(self):
        oid = ObjectId("temp", 3, 7)
        assert oid.key() == "temp/3@7"

    def test_entity_key(self):
        assert ObjectId("temp", 3, 7).entity_key() == ("temp", 3)

    def test_frozen(self):
        oid = ObjectId("a", 0, 0)
        with pytest.raises(AttributeError):
            oid.version = 1


def _view_shapes():
    """2-D, strided, odd-offset, read-only and empty views of one grid."""
    grid = np.random.default_rng(0).integers(0, 256, (64, 64), dtype=np.uint8)
    frozen = grid.copy()
    frozen.flags.writeable = False
    return (grid, grid[:, ::2], grid.ravel()[1:], frozen, grid[:0])


class TestPayloadDigest:
    def test_deterministic(self):
        a = np.arange(100, dtype=np.uint8)
        assert payload_digest(a) == payload_digest(a.copy())

    def test_distinct(self):
        a = np.zeros(10, dtype=np.uint8)
        b = np.ones(10, dtype=np.uint8)
        assert payload_digest(a) != payload_digest(b)

    def test_value_is_crc32_of_the_bytes_whatever_the_view(self):
        for view in _view_shapes():
            assert payload_digest(view) == "%08x" % zlib.crc32(view.tobytes())
        assert payload_digest(np.arange(100, dtype=np.uint8)) == "58c932f5"

    def test_hashes_a_mebibyte_in_place(self):
        block = np.zeros(1 << 20, dtype=np.uint8)
        payload_digest(block)
        tracemalloc.start()
        try:
            payload_digest(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestContentId:
    def test_value_is_blake2b_of_the_bytes_whatever_the_view(self):
        # Baked into pinned projections and committed tapes.
        for view in _view_shapes():
            want = hashlib.blake2b(view.tobytes(), digest_size=12).hexdigest()
            assert content_id(view) == want
        assert content_id(np.arange(100, dtype=np.uint8)) == "809caf3820d5f479cb61ccec"


class TestDataObject:
    def test_payload_flattened_to_uint8(self):
        obj = DataObject(ObjectId("v", 0, 0), BBox((0,), (4,)), np.arange(4, dtype=np.int64))
        assert obj.payload.dtype == np.uint8
        assert obj.payload.ndim == 1

    def test_nbytes(self):
        obj = DataObject(ObjectId("v", 0, 0), BBox((0,), (4,)), np.zeros(16, np.uint8))
        assert obj.nbytes == 16


class TestBlockEntity:
    def make(self):
        return BlockEntity(name="v", block_id=2, bbox=BBox((0,), (4,)), primary=1)

    def test_initial_state(self):
        e = self.make()
        assert e.version == -1
        assert e.state == ResilienceState.NONE
        assert e.ref_counter == 0

    def test_record_write_increments(self):
        e = self.make()
        e.record_write(1.0, 0, 100, "d1")
        e.record_write(2.0, 1, 100, "d2")
        assert e.version == 1
        assert e.write_count == 2
        assert e.ref_counter == 2
        assert e.last_write_step == 1
        assert e.digest == "d2"

    def test_reset_ref_counter(self):
        e = self.make()
        e.record_write(1.0, 0, 100, "d")
        e.reset_ref_counter()
        assert e.ref_counter == 0
        assert e.write_count == 1  # lifetime count unaffected

    def test_keys(self):
        e = self.make()
        e.record_write(0.0, 0, 4, "d")
        assert e.key == ("v", 2)
        assert e.current_oid == ObjectId("v", 2, 0)
        assert e.primary_key() == "v/2"


class TestStripeInfo:
    def make(self):
        return StripeInfo(
            stripe_id=5,
            k=3,
            m=1,
            members=[("v", 0), None, ("v", 2)],
            member_versions={("v", 0): 1, ("v", 2): 2},
            shard_servers=[0, 1, 2, 3],
            lengths=[10, 0, 8],
            shard_len=10,
        )

    def test_servers(self):
        s = self.make()
        assert s.data_servers() == [0, 1, 2]
        assert s.parity_servers() == [3]

    def test_shard_key(self):
        assert self.make().shard_key(3) == "stripe5/shard3"

    def test_member_index(self):
        s = self.make()
        assert s.member_shard_index(("v", 2)) == 2
        with pytest.raises(ValueError):
            s.member_shard_index(("v", 9))

    def test_vacancy(self):
        s = self.make()
        assert s.vacant_slots() == [1]
        assert not s.is_empty()
        s.members = [None, None, None]
        assert s.is_empty()
