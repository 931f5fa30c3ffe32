"""Reed-Solomon encode/decode/update tests, including property-based ones."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.gf256 import GF256
from repro.erasure.reedsolomon import RSCode, StripeCodec


def make_shards(rng, k, length):
    return [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(k)]


class TestRSCodeConstruction:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            RSCode(0, 1)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            RSCode(3, -1)

    def test_field_size_bound(self):
        with pytest.raises(ValueError):
            RSCode(200, 100)

    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            RSCode(3, 1, construction="zigzag")

    def test_n_property(self):
        code = RSCode(3, 2)
        assert code.n == 5


@pytest.mark.parametrize("construction", ["cauchy", "vandermonde"])
class TestEncodeDecode:
    def test_roundtrip_no_loss(self, construction):
        rng = np.random.default_rng(0)
        code = RSCode(3, 2, construction)
        data = make_shards(rng, 3, 100)
        present = {i: d for i, d in enumerate(data)}
        rec = code.decode(present)
        assert all((a == b).all() for a, b in zip(rec, data))

    def test_all_single_erasures(self, construction):
        rng = np.random.default_rng(1)
        code = RSCode(4, 2, construction)
        data = make_shards(rng, 4, 64)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        for lost in range(code.n):
            present = {i: s for i, s in full.items() if i != lost}
            rec = code.decode(present)
            assert all((a == b).all() for a, b in zip(rec, data))

    def test_all_double_erasures(self, construction):
        rng = np.random.default_rng(2)
        code = RSCode(4, 2, construction)
        data = make_shards(rng, 4, 32)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        for lost in itertools.combinations(range(code.n), 2):
            present = {i: s for i, s in full.items() if i not in lost}
            rec = code.decode(present)
            assert all((a == b).all() for a, b in zip(rec, data))

    def test_too_many_erasures_raises(self, construction):
        rng = np.random.default_rng(3)
        code = RSCode(3, 1, construction)
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        present = {0: data[0], 3: parity[0]}  # only 2 of 3 needed shards
        with pytest.raises(ValueError, match="unrecoverable"):
            code.decode(present)


class TestEncodeValidation:
    def test_wrong_shard_count(self):
        code = RSCode(3, 1)
        with pytest.raises(ValueError):
            code.encode([np.zeros(8, np.uint8)] * 2)

    def test_unequal_lengths(self):
        code = RSCode(2, 1)
        with pytest.raises(ValueError):
            code.encode([np.zeros(8, np.uint8), np.zeros(9, np.uint8)])

    def test_decode_index_out_of_range(self):
        code = RSCode(2, 1)
        with pytest.raises(IndexError):
            code.decode({0: np.zeros(4, np.uint8), 5: np.zeros(4, np.uint8)})

    def test_zero_parity_code(self):
        code = RSCode(3, 0)
        data = [np.arange(4, dtype=np.uint8)] * 3
        assert code.encode(data) == []


class TestParityUpdate:
    @pytest.mark.parametrize("k,m", [(3, 1), (4, 2), (6, 3)])
    def test_delta_update_matches_reencode(self, k, m):
        rng = np.random.default_rng(k * 10 + m)
        code = RSCode(k, m)
        data = make_shards(rng, k, 50)
        parity = code.encode(data)
        for j in range(k):
            new = rng.integers(0, 256, 50, dtype=np.uint8)
            updated = code.update_parity(parity, j, data[j], new)
            reference = code.encode(data[:j] + [new] + data[j + 1 :])
            assert all((a == b).all() for a, b in zip(updated, reference))

    def test_update_out_of_range(self):
        code = RSCode(3, 1)
        with pytest.raises(IndexError):
            code.update_parity([np.zeros(4, np.uint8)], 3, np.zeros(4, np.uint8), np.zeros(4, np.uint8))

    def test_update_wrong_parity_count(self):
        code = RSCode(3, 2)
        with pytest.raises(ValueError):
            code.update_parity([np.zeros(4, np.uint8)], 0, np.zeros(4, np.uint8), np.zeros(4, np.uint8))

    def test_noop_update(self):
        rng = np.random.default_rng(9)
        code = RSCode(3, 1)
        data = make_shards(rng, 3, 20)
        parity = code.encode(data)
        updated = code.update_parity(parity, 1, data[1], data[1])
        assert (updated[0] == parity[0]).all()


class TestReconstructShard:
    def test_reconstruct_data_shard(self):
        rng = np.random.default_rng(4)
        code = RSCode(3, 2)
        data = make_shards(rng, 3, 24)
        parity = code.encode(data)
        present = {0: data[0], 2: data[2], 3: parity[0]}
        rec = code.reconstruct_shard(present, 1)
        assert (rec == data[1]).all()

    def test_reconstruct_parity_shard(self):
        rng = np.random.default_rng(5)
        code = RSCode(3, 2)
        data = make_shards(rng, 3, 24)
        parity = code.encode(data)
        present = {0: data[0], 1: data[1], 2: data[2]}
        rec = code.reconstruct_shard(present, 4)
        assert (rec == parity[1]).all()

    def test_reconstruct_present_shard_copies(self):
        rng = np.random.default_rng(6)
        code = RSCode(2, 1)
        data = make_shards(rng, 2, 8)
        rec = code.reconstruct_shard({0: data[0], 1: data[1]}, 0)
        assert (rec == data[0]).all()
        rec[0] ^= 0xFF
        assert rec[0] != data[0][0]  # returned buffer must not alias input

    def test_reconstruct_out_of_range(self):
        code = RSCode(2, 1)
        with pytest.raises(IndexError):
            code.reconstruct_shard({0: np.zeros(4, np.uint8)}, 9)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 6),
    m=st.integers(1, 3),
    length=st.integers(1, 128),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_property_any_m_erasures_recoverable(k, m, length, seed, data):
    """MDS property end-to-end: losing any <= m shards is always recoverable."""
    rng = np.random.default_rng(seed)
    code = RSCode(k, m)
    shards = make_shards(rng, k, length)
    parity = code.encode(shards)
    full = {i: s for i, s in enumerate(shards + parity)}
    n_lost = data.draw(st.integers(0, m))
    lost = data.draw(
        st.lists(st.integers(0, code.n - 1), min_size=n_lost, max_size=n_lost, unique=True)
    )
    present = {i: s for i, s in full.items() if i not in lost}
    rec = code.decode(present)
    assert all((a == b).all() for a, b in zip(rec, shards))


class TestStripeCodec:
    def test_unequal_object_sizes(self):
        rng = np.random.default_rng(7)
        sc = StripeCodec(3, 2)
        objs = [rng.integers(0, 256, n, dtype=np.uint8) for n in (50, 64, 33)]
        stripe = sc.encode_objects(objs)
        assert stripe.shard_len == 64
        present = {1: stripe.shards[1], 3: stripe.shards[3], 4: stripe.shards[4]}
        rec = sc.decode_objects(stripe.lengths, present)
        assert all((a == b).all() for a, b in zip(rec, objs))

    def test_wrong_object_count(self):
        sc = StripeCodec(3, 1)
        with pytest.raises(ValueError):
            sc.encode_objects([np.zeros(4, np.uint8)] * 2)

    def test_empty_objects_rejected(self):
        sc = StripeCodec(2, 1)
        with pytest.raises(ValueError):
            sc.encode_objects([np.zeros(0, np.uint8), np.zeros(0, np.uint8)])

    def test_lengths_must_match_k(self):
        sc = StripeCodec(2, 1)
        objs = [np.ones(4, np.uint8), np.ones(4, np.uint8)]
        stripe = sc.encode_objects(objs)
        with pytest.raises(ValueError):
            sc.decode_objects([4], {0: stripe.shards[0], 1: stripe.shards[1]})


class TestXorConstruction:
    def test_parity_is_xor(self):
        rng = np.random.default_rng(0)
        code = RSCode(4, 1, "xor")
        data = make_shards(rng, 4, 32)
        parity = code.encode(data)
        expected = data[0] ^ data[1] ^ data[2] ^ data[3]
        assert (parity[0] == expected).all()

    def test_single_erasure_recovery(self):
        rng = np.random.default_rng(1)
        code = RSCode(3, 1, "xor")
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        for lost in range(4):
            present = {i: s for i, s in full.items() if i != lost}
            rec = code.decode(present)
            assert all((a == b).all() for a, b in zip(rec, data))

    def test_delta_update(self):
        rng = np.random.default_rng(2)
        code = RSCode(3, 1, "xor")
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        new = rng.integers(0, 256, 16, dtype=np.uint8)
        updated = code.update_parity(parity, 1, data[1], new)
        ref = code.encode([data[0], new, data[2]])
        assert (updated[0] == ref[0]).all()

    def test_rejects_multi_parity(self):
        with pytest.raises(ValueError):
            RSCode(3, 2, "xor")

    def test_mds_for_single_parity(self):
        code = RSCode(4, 1, "xor")
        assert code.generator.is_mds_generator(4)

    def test_end_to_end_service_with_xor(self):
        from repro import ReplicationPolicy, ErasurePolicy, StagingConfig, StagingService

        svc = StagingService(
            StagingConfig(
                n_servers=8,
                domain_shape=(32, 32, 32),
                element_bytes=1,
                object_max_bytes=4096,
                rs_construction="xor",
                seed=1,
            ),
            ErasurePolicy(),
        )

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()
            yield from svc.flush()
            svc.fail_server(1)
            _, payloads = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        svc.run()
        assert svc.read_errors == 0


def all_erasure_patterns(n, m):
    """Every way to lose at most m of n shards."""
    for r in range(m + 1):
        yield from itertools.combinations(range(n), r)


def roundtrip_configs():
    for k in (1, 3, 6, 10):
        for m in (0, 1, 3, 4):
            for construction in ("cauchy", "vandermonde"):
                yield k, m, construction
            if m <= 1:
                yield k, m, "xor"


@pytest.mark.parametrize("k,m,construction", list(roundtrip_configs()))
def test_roundtrip_every_erasure_pattern(k, m, construction):
    """Exhaustive MDS check: every erasure pattern of size <= m round-trips."""
    rng = np.random.default_rng(1000 * k + 10 * m)
    code = RSCode(k, m, construction, decode_cache_capacity=2048)
    data = make_shards(rng, k, 8)
    parity = code.encode(data)
    full = {i: s for i, s in enumerate(data + parity)}

    for lost in all_erasure_patterns(code.n, m):
        present = {i: s for i, s in full.items() if i not in lost}
        rec = code.decode(present)
        assert all((a == b).all() for a, b in zip(rec, data))


class TestSinglePassReconstruction:
    """A single missing shard must cost exactly one fused kernel pass."""

    @pytest.fixture
    def stripe(self):
        rng = np.random.default_rng(63)
        code = RSCode(6, 3)
        data = make_shards(rng, 6, 2048)
        parity = code.encode(data)
        return code, data, parity, {i: s for i, s in enumerate(data + parity)}

    def test_missing_data_shard_is_one_pass(self, stripe):
        code, data, _, full = stripe
        present = {i: s for i, s in full.items() if i != 2}
        GF256.reset_kernel_stats()
        rec = code.reconstruct_shard(present, 2)
        assert GF256.KERNEL_STATS["matmul_calls"] == 1
        assert (rec == data[2]).all()

    def test_missing_parity_shard_is_one_pass(self, stripe):
        code, _, parity, full = stripe
        present = {i: s for i, s in full.items() if i != 7}
        GF256.reset_kernel_stats()
        rec = code.reconstruct_shard(present, 7)
        assert GF256.KERNEL_STATS["matmul_calls"] == 1
        assert (rec == parity[1]).all()

    def test_parity_with_data_losses_one_pass(self, stripe):
        # Survivor set mixes data and parity rows, so the combination row
        # composes the parity generator with the decode matrix — still one
        # payload-sized kernel pass.
        code, _, parity, full = stripe
        present = {i: s for i, s in full.items() if i not in (0, 1, 6)}
        GF256.reset_kernel_stats()
        rec = code.reconstruct_shard(present, 6)
        assert GF256.KERNEL_STATS["matmul_calls"] == 1
        assert (rec == parity[0]).all()

    def test_warm_row_cache_stays_one_pass(self, stripe):
        code, data, _, full = stripe
        present = {i: s for i, s in full.items() if i != 4}
        code.reconstruct_shard(present, 4)  # builds and caches the row
        GF256.reset_kernel_stats()
        rec = code.reconstruct_shard(present, 4)
        assert GF256.KERNEL_STATS["matmul_calls"] == 1
        assert (rec == data[4]).all()


class TestDecodeCacheLRU:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RSCode(3, 1, decode_cache_capacity=0)

    def test_cache_stays_bounded_and_evicts(self):
        rng = np.random.default_rng(50)
        code = RSCode(4, 4, decode_cache_capacity=4)
        data = make_shards(rng, 4, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        patterns = list(itertools.combinations(range(code.n), 2))
        for lost in patterns:  # 28 distinct patterns through a 4-entry cache
            code.decode({i: s for i, s in full.items() if i not in lost})
        assert len(code._decode_cache) <= 4
        assert code.decode_cache_evictions > 0
        assert code.decode_cache_misses > 4  # more distinct inversions than fit

    def test_hot_pattern_survives_cold_sweep(self):
        rng = np.random.default_rng(51)
        code = RSCode(4, 4, decode_cache_capacity=4)
        data = make_shards(rng, 4, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        hot = {i: s for i, s in full.items() if i not in (1, 2)}
        code.decode(hot)  # one miss to warm the hot pattern
        # Each cold loss pair maps to a distinct chosen-survivor set, so
        # every cold decode below is a genuine miss.
        cold_patterns = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
        for lost in cold_patterns:
            # Re-touching the hot pattern between cold one-offs keeps it at
            # the warm end of the LRU, so it must never be re-inverted.
            code.decode(hot)
            code.decode({i: s for i, s in full.items() if i not in lost})
        misses_for_hot = code.decode_cache_misses - len(cold_patterns) - 1
        assert misses_for_hot == 0
        assert len(code._decode_cache) <= 4

    def test_warm_decode_cache_builds_misses_only(self):
        rng = np.random.default_rng(52)
        code = RSCode(3, 2)
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        survivors = tuple(sorted(i for i in full if i not in (0,)))
        built = code.warm_decode_cache([survivors, survivors, (0, 1, 2)])
        assert built == 1  # duplicate and the all-data fast path build nothing
        code.decode({i: s for i, s in full.items() if i != 0})
        assert code.decode_cache_hits == 1

    def test_warm_decode_cache_skips_short_patterns(self):
        code = RSCode(3, 1)
        assert code.warm_decode_cache([(0, 1)]) == 0


class TestDecodeCache:
    def test_cache_hits_on_repeated_pattern(self):
        rng = np.random.default_rng(11)
        code = RSCode(4, 2)
        data = make_shards(rng, 4, 32)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        present = {i: s for i, s in full.items() if i not in (1, 3)}
        for _ in range(5):
            rec = code.decode(present)
            assert all((a == b).all() for a, b in zip(rec, data))
        assert code.decode_cache_misses == 1
        assert code.decode_cache_hits == 4

    @pytest.mark.parametrize("lost", [1, 4], ids=["data-target", "parity-target"])
    def test_reconstruct_shard_lookups_are_counted(self, lost):
        """One row-cache lookup per reconstruct: a miss, then hits.

        ``lost=4`` leaves every data shard present — the row is a generator
        row and no decode matrix is consulted — and still counts.
        """
        rng = np.random.default_rng(14)
        code = RSCode(4, 2)
        data = make_shards(rng, 4, 32)
        full = dict(enumerate(data + code.encode(data)))
        present = {i: s for i, s in full.items() if i != lost}
        for _ in range(5):
            assert (code.reconstruct_shard(present, lost) == full[lost]).all()
        assert (code.decode_cache_misses, code.decode_cache_hits) == (1, 4)

    def test_distinct_patterns_distinct_entries(self):
        rng = np.random.default_rng(12)
        code = RSCode(3, 2)
        data = make_shards(rng, 3, 16)
        parity = code.encode(data)
        full = {i: s for i, s in enumerate(data + parity)}
        code.decode({i: s for i, s in full.items() if i != 0})
        code.decode({i: s for i, s in full.items() if i != 1})
        assert code.decode_cache_misses == 2

    def test_fast_path_skips_cache(self):
        rng = np.random.default_rng(13)
        code = RSCode(3, 1)
        data = make_shards(rng, 3, 8)
        code.decode({i: d for i, d in enumerate(data)})
        assert code.decode_cache_misses == 0


@pytest.mark.parametrize("kernel", ["table", "reference"])
def test_numpy_kernels_through_the_rows_entry_point(kernel):
    """Encode -> decode -> reconstruct on the fallback kernels, split raggedly.

    The expected bytes come from the kernel the selection rule picks (native
    when it loaded), so this is also the native-vs-numpy byte comparison.
    Odd k, and a shard length that leaves the 4 KiB-aligned column split a
    1809-byte tail; the direct ``matmul_rows`` calls use ranges aligned to
    nothing at all.
    """
    k, m, length = 5, 3, 10001
    rng = np.random.default_rng(k * m)
    data = make_shards(rng, k, length)
    ref = RSCode(k, m)
    want_parity = ref.encode(data)
    shards = data + want_parity
    survivors = {i: shards[i] for i in range(k + m) if i not in (0, 3, 6)}

    def run_inline(tasks):
        for task in tasks:
            task()

    code = RSCode(k, m)
    code.parallel_map = run_inline
    code.parallel_min_bytes, code.parallel_chunk_bytes = 1, 4096
    GF256.set_kernel(kernel)
    GF256.reset_kernel_stats()
    try:
        parity = code.encode(data)
        decoded = code.decode(survivors)
        rebuilt = [code.reconstruct_shard(survivors, t) for t in (0, 3, 6)]
        ranged = [np.full(length, 0xEE, dtype=np.uint8) for _ in range(m)]
        for a, b in [(0, 1), (1, 4097), (4097, 9000), (9000, length)]:
            GF256.matmul_rows(code.parity_rows, data, ranged, offset=a, length=b - a)
        passes = GF256.KERNEL_STATS["matmul_calls"]
        assert GF256.KERNEL_STATS[kernel] == passes
    finally:
        GF256.set_kernel(None)
    assert code.parallel_stats["passes"] == 5  # every RSCode product fanned out
    assert passes == 5 * 3 + 4  # three column ranges each, plus the direct calls
    for got in (parity, ranged):
        assert all(np.array_equal(w, g) for w, g in zip(want_parity, got))
    assert all(np.array_equal(w, g) for w, g in zip(data, decoded))
    assert all(np.array_equal(shards[t], g) for t, g in zip((0, 3, 6), rebuilt))

