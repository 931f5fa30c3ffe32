"""Codec passes run concurrently on one codec are byte-identical to serial ones.

One ``RSCode`` shared by several threads must give every caller the bytes
a lone caller gets: the decode-matrix and reconstruction-row caches are
locked and the kernel scratch is thread-local.  Each test pushes a batch
of stripes through a thread pool, one ``encode`` / ``decode`` /
``reconstruct_shard`` call per task — for every registered kernel, the
native kernel (when loaded), every worker count, and the awkward shapes
(zero-length shards, lengths that are not multiples of k or of 4 KiB).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.erasure.gf256 import GF256
from repro.erasure.reedsolomon import RSCode

from tests.conftest import padded

# Kernels to exercise: every pure-numpy kernel (with the native kernel
# masked off so the stacked path runs) plus the native kernel.
KERNEL_CASES = [
    (name, False) for name in GF256.available_kernels() if name != "native"
]
if GF256.native_kernel() is not None:
    KERNEL_CASES.append(("native", True))


def _concurrently(workers: int, fn, jobs) -> list:
    """``fn`` over ``jobs`` on a ``workers``-thread pool, results in order."""
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, jobs))


def _random_stripes(rng, k: int, n_stripes: int) -> list[list[np.ndarray]]:
    stripes = []
    for _ in range(n_stripes):
        length = int(rng.choice([0, 1, 4097, 20000, 40001]))
        stripes.append(
            [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(k)]
        )
    return stripes


@pytest.mark.parametrize("kernel,use_native", KERNEL_CASES)
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_parallel_encode_batch_matches_serial(
    kernel, use_native, workers, monkeypatch
):
    rng = np.random.default_rng(workers * 101 + len(kernel))
    k, m = 4, 2
    stripes = _random_stripes(rng, k, 5)
    if not use_native:
        monkeypatch.setattr(GF256, "_NATIVE", None)
        GF256.set_kernel(kernel)
    try:
        serial = list(map(RSCode(k, m).encode, stripes))
        parallel = _concurrently(workers, RSCode(k, m).encode, stripes)
    finally:
        GF256.set_kernel(None)
    for want, got in zip(serial, parallel):
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("kernel,use_native", KERNEL_CASES)
@pytest.mark.parametrize("workers", [1, 2, 5, 8])
def test_parallel_decode_batch_matches_serial(
    kernel, use_native, workers, monkeypatch
):
    rng = np.random.default_rng(workers * 211 + len(kernel))
    k, m = 4, 2
    jobs = []
    for stripe in _random_stripes(rng, k, 4):
        if not stripe[0].size:
            continue
        shards = stripe + RSCode(k, m).encode(stripe)
        lost = rng.choice(k + m, size=int(rng.integers(0, m + 1)), replace=False)
        jobs.append({i: shards[i] for i in range(k + m) if i not in lost})
    if not use_native:
        monkeypatch.setattr(GF256, "_NATIVE", None)
        GF256.set_kernel(kernel)
    try:
        serial = list(map(RSCode(k, m).decode, jobs))
        parallel = _concurrently(workers, RSCode(k, m).decode, jobs)
    finally:
        GF256.set_kernel(None)
    for want, got in zip(serial, parallel):
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", list(range(1, 9)))
def test_parallel_encode_objects_batch_matches_serial(workers):
    """Variable-size object groups, each zero-padded to its stripe's shard length."""
    rng = np.random.default_rng(workers)
    k, m = 3, 2
    stripes = []
    for _ in range(4):
        lengths = rng.integers(0, 30000, size=k)
        lengths[int(rng.integers(k))] = 24001  # non-multiple-of-4096 pad target
        stripes.append(
            padded([rng.integers(0, 256, size=int(n), dtype=np.uint8) for n in lengths])
        )
    serial = list(map(RSCode(k, m).encode, stripes))
    parallel = _concurrently(workers, RSCode(k, m).encode, stripes)
    for want, got in zip(serial, parallel):
        for a, b in zip(want, got):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 4, 8])
def test_parallel_reconstruct_shard_matches_serial(workers):
    rng = np.random.default_rng(workers * 7)
    k, m = 5, 3
    data = [rng.integers(0, 256, size=30000, dtype=np.uint8) for _ in range(k)]
    code = RSCode(k, m)
    shards = data + code.encode(data)
    par = RSCode(k, m)

    def rebuild(target: int) -> np.ndarray:
        present = {i: shards[i] for i in range(k + m) if i != target}
        return par.reconstruct_shard(present, target)

    got = _concurrently(workers, rebuild, range(k + m))
    for target in range(k + m):
        assert np.array_equal(shards[target], got[target])
