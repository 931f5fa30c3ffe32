"""Cross-kernel oracle for the scalar and parity-fold GF(2^8) passes.

``addmul_bytes`` / ``mul_bytes`` are 1x1 products and ``RSCode.fold_parity``
a 1x3 product ``[1 c c] . [P; old; new]`` over ``GF256.matmul_rows``, so
whichever kernel is in charge computes them.  Every kernel this host can
run (``reference`` included) must agree byte for byte with the product
table itself, over every coefficient, over lengths on both sides of the
16/32/64-byte SIMD block edges, and on views that start at odd byte offsets
of a larger buffer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.erasure import RSCode
from repro.erasure.gf256 import GF256

LENGTHS = [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4096, (1 << 20) + 1]
CODES = [RSCode(6, 3), RSCode(3, 2, "vandermonde"), RSCode(4, 1, "xor")]


def odd_view(rng, length: int, offset: int) -> np.ndarray:
    """``length`` random bytes starting ``offset`` bytes into their buffer."""
    return rng.integers(0, 256, length + offset, dtype=np.uint8)[offset:]


@pytest.fixture(autouse=True)
def restore_selection_rule():
    yield
    GF256.set_kernel(None)


def each_kernel():
    """Force every kernel this host can run, in turn."""
    for name in GF256.available_kernels():
        GF256.set_kernel(name)
        yield name


@pytest.mark.parametrize("length", LENGTHS)
def test_addmul_and_mul_match_the_product_table(length):
    rng = np.random.default_rng(length)
    buf = odd_view(rng, length, 1)
    acc0 = odd_view(rng, length, 3)
    for c in range(256):
        product = GF256.MUL[c][buf]
        for name in each_kernel():
            acc = acc0.copy()
            GF256.addmul_bytes(acc, c, buf)
            assert np.array_equal(acc, acc0 ^ product), (name, c)
            out = odd_view(rng, length, 5)
            assert GF256.mul_bytes(c, buf, out=out) is out
            assert np.array_equal(out, product), (name, c)
    assert np.array_equal(GF256.mul_bytes(0x57, buf), GF256.MUL[0x57][buf])


@pytest.mark.parametrize("code", CODES, ids=repr)
@pytest.mark.parametrize("length", LENGTHS)
def test_fold_and_update_parity_match_the_product_table(code, length):
    rng = np.random.default_rng(length + code.k)
    old, new = odd_view(rng, length, 1), odd_view(rng, length, 3)
    parities = [odd_view(rng, length, 5 + 2 * i) for i in range(code.m)]
    for j in range(code.k):
        coeffs = [int(code.parity_rows[i, j]) for i in range(code.m)]
        want = [p ^ GF256.MUL[c][old ^ new] for p, c in zip(parities, coeffs)]
        want_filled = [p ^ GF256.MUL[c][new] for p, c in zip(parities, coeffs)]
        before = [p.copy() for p in parities]
        for name in each_kernel():
            for i, parity in enumerate(parities):
                got = code.fold_parity(parity, i, j, old, new)
                assert np.array_equal(got, want[i]), (name, i, j)
                assert not np.shares_memory(got, parity)
                # A vacant side is all zeros: its column is dropped.
                for vacant in ((None, new), (new, None)):
                    got = code.fold_parity(parity, i, j, *vacant)
                    assert np.array_equal(got, want_filled[i]), (name, i, j)
                got = code.fold_parity(parity, i, j, None, None)
                got = code.fold_parity(got, i, j, old, old)
                assert np.array_equal(got, parity), (name, i, j)
            updated = code.update_parity(parities, j, old, new)
            assert all(np.array_equal(u, w) for u, w in zip(updated, want)), (name, j)
            # The parities the folds read were never written.
            assert all(np.array_equal(p, b) for p, b in zip(parities, before))
            same = code.update_parity(parities, j, old, old)
            assert all(np.array_equal(s, p) for s, p in zip(same, parities))


def test_fold_counts_one_kernel_pass_and_nothing_for_a_vacant_pair():
    code = RSCode(6, 3)
    rng = np.random.default_rng(1)
    old, new, parity = (rng.integers(0, 256, 4096, dtype=np.uint8) for _ in range(3))
    GF256.reset_kernel_stats()
    code.fold_parity(parity, 2, 4, old, new)
    code.fold_parity(parity, 2, 4, None, new)
    assert GF256.KERNEL_STATS["matmul_calls"] == 2
    assert code.fold_parity(parity, 2, 4, None, None) is not parity
    assert GF256.KERNEL_STATS["matmul_calls"] == 2


@pytest.mark.parametrize("code", CODES, ids=repr)
@pytest.mark.parametrize("length", [1, 33, 4096])
def test_a_none_shard_is_explicit_zeros_in_one_pass_fewer_columns(code, length):
    """A vacant slot given as ``None`` drops its kernel column: encode and
    single-shard reconstruction return the bytes explicit zeros give, on
    every kernel, in the same number of passes."""
    rng = np.random.default_rng(length + code.n)
    data = [rng.integers(0, 256, length, dtype=np.uint8) for _ in range(code.k)]
    vacant = set(range(0, code.k, 2))  # every other slot, slot 0 included
    zeros = [np.zeros(length, np.uint8) if j in vacant else d for j, d in enumerate(data)]
    nones = [None if j in vacant else d for j, d in enumerate(data)]
    stripe = zeros + code.encode(zeros)
    lost = max(set(range(code.k)) - vacant)  # a member slot
    for name in each_kernel():
        GF256.reset_kernel_stats()
        want = code.encode(zeros)
        got = code.encode(nones)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), name
        for target in (lost, code.n - 1):
            survivors = [i for i in range(code.n) if i != target][: code.k]
            present = {i: None if i in vacant else stripe[i] for i in survivors}
            present_zeros = {i: stripe[i] for i in survivors}
            want_shard = code.reconstruct_shard(present_zeros, target)
            assert np.array_equal(code.reconstruct_shard(present, target), want_shard), name
            assert np.array_equal(want_shard, stripe[target]), name
        assert GF256.KERNEL_STATS["matmul_calls"] == 2 + 4, name
    with pytest.raises(ValueError):
        code.encode([None] * code.k)


@pytest.mark.parametrize(
    "parity",
    [
        np.zeros(32, np.uint8)[::2],  # strided: never a bare pointer
        np.zeros(8, np.uint8),  # shorter than the shards
        np.zeros(16, np.uint16),
        bytearray(16),
    ],
)
def test_fold_rejects_a_parity_buffer_it_cannot_write_in_place(parity):
    """The parity goes to the kernel as a bare row: anything but a
    contiguous uint8 array of the shards' length is refused, not copied."""
    code = RSCode(2, 1)
    shard = np.arange(16, dtype=np.uint8)
    with pytest.raises(ValueError):
        code.fold_parity(parity, 0, 0, shard, shard[::-1])
    with pytest.raises(ValueError):
        code.fold_parity(np.zeros(16, np.uint8), 0, 0, shard, shard[:8])
