"""Library performance — GF(2^8)/Reed-Solomon kernel throughput.

Not a paper figure: these benchmarks track the host-side performance of
the erasure substrate itself (the part that does real computation), so
regressions in the vectorized kernels are caught. Numbers are whatever
the host delivers; the assertions guard against de-vectorization — the
serial floors sit under what the numpy ``table`` fallback delivers, so
only a Python loop over the payload trips them, while the stripe-parallel
floor presumes the native kernel (``REPRO_GF_NATIVE=0`` fails it).  The
scalar ``addmul`` and the parity delta-update run on the kernel in charge,
so their floors are ten times higher where the native kernel loaded: a
scalar pass that fell back to the numpy gather trips them.

``benchmarks/check_regression.py`` complements these floors with a
committed-baseline comparison (BENCH_codec.json) run in CI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.erasure import RSCode
from repro.erasure.gf256 import GF256

SHARD = 1 << 20  # 1 MiB shards
NATIVE = GF256.native_kernel() is not None


@pytest.fixture(scope="module")
def shards():
    rng = np.random.default_rng(0)
    return [rng.integers(0, 256, SHARD, dtype=np.uint8) for _ in range(6)]


def test_gf_addmul_throughput(benchmark, shards):
    acc = np.zeros(SHARD, dtype=np.uint8)

    def run():
        GF256.addmul_bytes(acc, 0x57, shards[0])

    benchmark(run)
    mbps = SHARD / benchmark.stats["mean"] / 1e6
    benchmark.extra_info["MB_per_s"] = mbps
    floor = 1500 if NATIVE else 150
    assert mbps > floor, f"GF addmul off the kernel in charge? {mbps:.1f} MB/s"


@pytest.mark.parametrize("k,m", [(3, 1), (6, 3)])
def test_rs_encode_throughput(benchmark, shards, k, m):
    code = RSCode(k, m)

    def run():
        return code.encode(shards[:k])

    benchmark(run)
    data_mb = k * SHARD / 1e6
    mbps = data_mb / benchmark.stats["mean"]
    benchmark.extra_info["data_MB_per_s"] = mbps
    assert mbps > 100, f"RS({k},{m}) encode too slow: {mbps:.1f} MB/s"


def test_rs_encode_parallel_throughput(benchmark, shards):
    """Stripe-parallel encode: column splits over a worker pool.

    This is the configuration the live backend runs (RSCode.parallel_map
    wired to the engine's codec pool).  The absolute floor is 2x the
    serial encode baseline committed before the native kernel landed
    (433.8 MB/s) — the tentpole acceptance bar.
    """
    from concurrent.futures import ThreadPoolExecutor

    code = RSCode(6, 3)
    with ThreadPoolExecutor(max_workers=8) as pool:

        def pool_map(tasks):
            futs = [pool.submit(task) for task in tasks[1:]]
            tasks[0]()
            for fut in futs:
                fut.result()

        code.parallel_map = pool_map

        def run():
            return code.encode(shards[:6])

        benchmark(run)
    assert code.parallel_stats["passes"] >= 1, "encode never fanned out"
    mbps = 6 * SHARD / 1e6 / benchmark.stats["mean"]
    benchmark.extra_info["data_MB_per_s"] = mbps
    benchmark.extra_info["parallel_passes"] = code.parallel_stats["passes"]
    assert mbps > 867.6, f"parallel encode below 2x serial floor: {mbps:.1f} MB/s"


def test_rs_decode_throughput(benchmark, shards):
    code = RSCode(4, 2)
    parity = code.encode(shards[:4])
    present = {0: shards[0], 2: shards[2], 4: parity[0], 5: parity[1]}

    def run():
        return code.decode(present)

    benchmark(run)
    mbps = 4 * SHARD / 1e6 / benchmark.stats["mean"]
    benchmark.extra_info["data_MB_per_s"] = mbps
    assert mbps > 50


def test_rs_reconstruct_shard_throughput(benchmark, shards):
    # Single missing shard: one combination-row kernel pass, so this must
    # run ~k times faster (per stripe) than the full decode above.
    code = RSCode(6, 3)
    parity = code.encode(shards[:6])
    full = {i: s for i, s in enumerate(shards[:6] + parity)}
    present = {i: s for i, s in full.items() if i != 3}

    def run():
        return code.reconstruct_shard(present, 3)

    benchmark(run)
    mbps = SHARD / 1e6 / benchmark.stats["mean"]
    benchmark.extra_info["shard_MB_per_s"] = mbps
    assert mbps > 50, f"single-shard reconstruct too slow: {mbps:.1f} MB/s"


def test_parity_delta_update_throughput(benchmark, shards):
    # RS(6,3): three parity copies, one fused [c c].[old; new] pass each.
    code = RSCode(6, 3)
    parity = code.encode(shards)
    new = shards[0]

    def run():
        return code.update_parity(parity, 1, shards[1], new)

    benchmark(run)
    mbps = SHARD / 1e6 / benchmark.stats["mean"]
    benchmark.extra_info["MB_per_s"] = mbps
    floor = 300 if NATIVE else 30
    assert mbps > floor, f"parity delta-update too slow: {mbps:.1f} MB/s"
