"""Property-based codec tests: seeded-random geometry, sizes and patterns.

The unit tests in ``test_reedsolomon.py`` / ``test_gf256.py`` pin known
cases; this file asserts the *algebraic contracts* over randomly drawn
instances (hypothesis, derandomized so CI is stable):

- encode and decode are byte-identical to the reference kernel for
  every registered kernel;
- any erasure pattern of ≤ m shards decodes back to the original bytes,
  for random k, m, and object sizes (including zero-length objects and
  totals that are not multiples of k);
- delta parity updates equal full re-encode;
- per-shard reconstruction equals the original shard.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.gf256 import GF256
from repro.erasure.reedsolomon import RSCode, StripeCodec

# Derandomized: the same example sequence every run (seeded workloads are
# a repo-wide invariant — a flaky property test would poison bisection).
COMMON = dict(deadline=None, derandomize=True)


@st.composite
def stripe_problem(draw, max_k: int = 6, max_m: int = 3, max_len: int = 300):
    """(k, m, object payloads) with at least one non-empty object."""
    k = draw(st.integers(2, max_k))
    m = draw(st.integers(1, max_m))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    lengths = [int(n) for n in rng.integers(0, max_len + 1, size=k)]
    if max(lengths) == 0:
        lengths[0] = 1 + int(rng.integers(max_len))
    objects = [rng.integers(0, 256, size=n, dtype=np.uint8) for n in lengths]
    return k, m, objects


@settings(max_examples=40, **COMMON)
@given(stripe_problem())
def test_every_erasure_pattern_decodes(problem):
    """Losing any ≤ m shards must recover every original object exactly."""
    k, m, objects = problem
    codec = StripeCodec(k, m)
    stripe = codec.encode_objects(objects)
    n = k + m
    for lost_count in range(m + 1):
        for lost in itertools.combinations(range(n), lost_count):
            present = {
                i: stripe.shards[i] for i in range(n) if i not in lost
            }
            decoded = codec.decode_objects(stripe.lengths, present)
            for orig, got in zip(objects, decoded):
                assert got.dtype == np.uint8
                assert np.array_equal(orig, got), (
                    f"k={k} m={m} lost={lost} object mismatch"
                )


@settings(max_examples=20, **COMMON)
@given(stripe_problem(max_k=5, max_m=3, max_len=200))
def test_every_kernel_matches_reference(problem):
    """All registered GF kernels produce the reference kernel's bytes."""
    k, m, objects = problem
    shard_len = max(int(o.size) for o in objects)
    data = np.zeros((k, shard_len), dtype=np.uint8)
    for i, o in enumerate(objects):
        data[i, : o.size] = o
    code = RSCode(k, m)
    try:
        GF256.set_kernel("reference")
        want = GF256.matmul_bytes(code.parity_rows, data)
        for name in GF256.available_kernels():
            GF256.set_kernel(name)
            got = GF256.matmul_bytes(code.parity_rows, data)
            assert np.array_equal(want, got), f"kernel {name} diverges"
    finally:
        GF256.set_kernel(None)


@settings(max_examples=25, **COMMON)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_delta_parity_update_matches_reencode(k, m, seed):
    rng = np.random.default_rng(seed)
    code = RSCode(k, m)
    length = int(rng.integers(1, 200))
    data = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]
    parities = code.encode(data)
    j = int(rng.integers(k))
    new_shard = rng.integers(0, 256, size=length, dtype=np.uint8)
    updated = code.update_parity(parities, j, data[j], new_shard)
    data[j] = new_shard
    full = code.encode(data)
    for a, b in zip(updated, full):
        assert np.array_equal(a, b)


@settings(max_examples=25, **COMMON)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_reconstruct_each_lost_shard(k, m, seed):
    rng = np.random.default_rng(seed)
    code = RSCode(k, m)
    length = int(rng.integers(1, 150))
    data = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]
    shards = data + code.encode(data)
    for target in range(k + m):
        present = {i: shards[i] for i in range(k + m) if i != target}
        got = code.reconstruct_shard(present, target)
        assert np.array_equal(shards[target], got)


# ---------------------------------------------------------------------------
# pinned edge cases (explicit, not drawn — cheap and self-documenting)
# ---------------------------------------------------------------------------
def test_zero_length_object_in_stripe_roundtrips():
    codec = StripeCodec(3, 1)
    objects = [
        np.arange(100, dtype=np.uint8),
        np.zeros(0, dtype=np.uint8),  # empty member: pure padding shard
        np.arange(37, dtype=np.uint8),  # total 137 bytes: not a multiple of k
    ]
    stripe = codec.encode_objects(objects)
    assert stripe.shard_len == 100
    present = {0: stripe.shards[0], 2: stripe.shards[2], 3: stripe.shards[3]}
    decoded = codec.decode_objects(stripe.lengths, present)
    for orig, got in zip(objects, decoded):
        assert np.array_equal(orig, got)


def test_all_empty_stripe_rejected():
    codec = StripeCodec(2, 1)
    empties = [np.zeros(0, dtype=np.uint8)] * 2
    with pytest.raises(ValueError):
        codec.encode_objects(empties)


def test_too_many_erasures_raises():
    code = RSCode(3, 2)
    data = [np.arange(16, dtype=np.uint8)] * 3
    shards = data + code.encode(data)
    present = {i: shards[i] for i in range(2)}  # only 2 of k=3 survive
    with pytest.raises(ValueError):
        code.decode(present)
