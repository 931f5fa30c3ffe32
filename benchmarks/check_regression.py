#!/usr/bin/env python
"""Codec performance regression gate.

Measures the erasure-kernel data path (the only part of the reproduction
doing real host-side computation) and compares it against the committed
baseline ``benchmarks/BENCH_codec.json``:

- absolute throughputs (MB/s) may not drop more than ``--tolerance``
  (default 30%) below the baseline;
- the machine-relative speedup ratio — fused encode vs the seed per-cell
  kernel — must stay above its acceptance floor (3x) regardless of host
  speed; where the native kernel loaded, so must the scalar ``addmul`` vs
  the same pass forced onto the numpy ``table`` kernel (4x): the parity
  delta of a rewrite runs at kernel speed, not at gather speed;
- every timed path must clear an *absolute* floor that only de-vectorization
  trips (``MIN_MB_S``), whatever the baseline says; for the stripe-parallel
  encode path (column splits over a worker pool, the configuration the live
  backend runs) it is 2x the pre-native-kernel serial baseline (867.6 MB/s).

Usage:
    PYTHONPATH=src python benchmarks/check_regression.py                  # gate
    PYTHONPATH=src python benchmarks/check_regression.py --write-baseline # record
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.erasure import RSCode
from repro.erasure.gf256 import GF256

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_codec.json")

SHARD = 1 << 20  # 1 MiB shards

MIN_ENCODE_SPEEDUP_VS_SEED = 3.0
# Scalar products follow the kernel in charge; only meaningful (and only
# gated) where that kernel is not the table fallback itself.
MIN_ADDMUL_SPEEDUP_VS_TABLE = 4.0
# Absolute floors in MB/s, (native kernel loaded, numpy ``table`` fallback).
# The serial ones sit under what the fallback delivers, so only a Python loop
# over the payload trips them; the scalar ``addmul`` and the parity delta run
# on the kernel in charge, so theirs are ten times higher where native loaded:
# a scalar pass that fell back to the numpy gather trips them.  The parallel
# floor is 2x the serial rs_encode_6_3_mb_s baseline committed before the
# native kernel and the parallel splits landed (433.8 MB/s) and presumes the
# native kernel.
MIN_MB_S = {
    "gf_addmul_mb_s": (1500, 150),
    "rs_encode_3_1_mb_s": (100, 100),
    "rs_encode_6_3_mb_s": (100, 100),
    "rs_decode_4_2_mb_s": (50, 50),
    "rs_reconstruct_shard_mb_s": (50, 50),
    "rs_update_parity_mb_s": (300, 30),
    "rs_encode_parallel_mb_s": (867.6, 867.6),
}


def best_time(fn, reps: int) -> float:
    """Best-of-``reps`` wall time — robust to scheduler noise."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure(reps: int) -> dict[str, float]:
    rng = np.random.default_rng(0)
    shards = [rng.integers(0, 256, SHARD, dtype=np.uint8) for _ in range(6)]
    metrics: dict[str, float] = {}

    acc = np.zeros(SHARD, dtype=np.uint8)
    t = best_time(lambda: GF256.addmul_bytes(acc, 0x57, shards[0]), reps)
    metrics["gf_addmul_mb_s"] = SHARD / t / 1e6
    GF256.set_kernel("table")
    try:
        t = best_time(lambda: GF256.addmul_bytes(acc, 0x57, shards[0]), reps)
    finally:
        GF256.set_kernel(None)
    metrics["gf_addmul_table_mb_s"] = SHARD / t / 1e6
    metrics["addmul_speedup_vs_table"] = (
        metrics["gf_addmul_mb_s"] / metrics["gf_addmul_table_mb_s"]
    )

    small = RSCode(3, 1)
    small.encode(shards[:3])  # warm
    t = best_time(lambda: small.encode(shards[:3]), reps)
    metrics["rs_encode_3_1_mb_s"] = 3 * SHARD / t / 1e6

    code = RSCode(6, 3)
    code.encode(shards)  # warm
    t = best_time(lambda: code.encode(shards), reps)
    metrics["rs_encode_6_3_mb_s"] = 6 * SHARD / t / 1e6

    # Same product through the seed per-cell kernel: the speedup ratio is
    # machine-relative, so it gates vectorization quality, not host speed.
    GF256.set_kernel("reference")
    try:
        t = best_time(lambda: code.encode(shards), max(1, reps // 2))
    finally:
        GF256.set_kernel(None)
    metrics["rs_encode_seed_kernel_mb_s"] = 6 * SHARD / t / 1e6
    metrics["encode_speedup_vs_seed"] = (
        metrics["rs_encode_6_3_mb_s"] / metrics["rs_encode_seed_kernel_mb_s"]
    )

    dec = RSCode(4, 2)
    parity = dec.encode(shards[:4])
    present = {0: shards[0], 2: shards[2], 4: parity[0], 5: parity[1]}
    dec.decode(present)  # warm decode-matrix cache
    t = best_time(lambda: dec.decode(present), reps)
    metrics["rs_decode_4_2_mb_s"] = 4 * SHARD / t / 1e6

    rparity = code.encode(shards)
    # The write path of an encoded block: one data shard changes, every
    # parity is copied and delta-updated (bytes of the rewritten shard / s).
    t = best_time(lambda: code.update_parity(rparity, 1, shards[1], shards[0]), reps)
    metrics["rs_update_parity_mb_s"] = SHARD / t / 1e6

    full = {i: s for i, s in enumerate(shards + rparity)}
    rec_present = {i: s for i, s in full.items() if i != 3}
    code.reconstruct_shard(rec_present, 3)  # warm row cache
    t = best_time(lambda: code.reconstruct_shard(rec_present, 3), reps)
    metrics["rs_reconstruct_shard_mb_s"] = SHARD / t / 1e6

    # Stripe-parallel encode: the exact configuration the live backend
    # runs — column splits fanned over a small worker pool, first split
    # inline on the calling thread (LiveEngine.codec_map's discipline).
    workers = min(8, os.cpu_count() or 1)
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="bench-codec")
    try:
        pcode = RSCode(6, 3)

        def pool_map(tasks):
            futs = [pool.submit(task) for task in tasks[1:]]
            tasks[0]()
            for fut in futs:
                fut.result()

        pcode.parallel_map = pool_map
        pcode.encode(shards)  # warm + verify the splits actually fan out
        t = best_time(lambda: pcode.encode(shards), reps)
    finally:
        pool.shutdown(wait=True)
    metrics["rs_encode_parallel_mb_s"] = 6 * SHARD / t / 1e6
    metrics["parallel_passes"] = float(pcode.parallel_stats["passes"])

    return metrics


def check_floors(metrics: dict[str, float]) -> list[str]:
    native = GF256.native_kernel() is not None
    failures = []
    if metrics["encode_speedup_vs_seed"] < MIN_ENCODE_SPEEDUP_VS_SEED:
        failures.append(
            f"fused encode is only {metrics['encode_speedup_vs_seed']:.2f}x the "
            f"seed kernel (floor {MIN_ENCODE_SPEEDUP_VS_SEED}x)"
        )
    if native and metrics["addmul_speedup_vs_table"] < MIN_ADDMUL_SPEEDUP_VS_TABLE:
        failures.append(
            f"scalar addmul is only {metrics['addmul_speedup_vs_table']:.2f}x the "
            f"table kernel (floor {MIN_ADDMUL_SPEEDUP_VS_TABLE}x with native loaded)"
        )
    for key, floors in MIN_MB_S.items():
        floor = floors[0] if native else floors[1]
        if metrics[key] < floor:
            failures.append(
                f"{key}: {metrics[key]:.1f} MB/s is below the absolute floor {floor} MB/s"
            )
    if metrics["parallel_passes"] < 1:
        failures.append("parallel encode never fanned out (0 parallel passes)")
    return failures


def check_baseline(metrics: dict[str, float], baseline: dict, tolerance: float) -> list[str]:
    failures = []
    for key, base in baseline["metrics"].items():
        if not key.endswith("_mb_s"):
            continue  # ratios are gated by their own floors, not the baseline
        now = metrics.get(key)
        if now is None:
            failures.append(f"metric {key} missing from this run")
            continue
        if now < base * (1.0 - tolerance):
            failures.append(
                f"{key}: {now:.1f} MB/s is {(1 - now / base) * 100:.0f}% below "
                f"baseline {base:.1f} MB/s (tolerance {tolerance * 100:.0f}%)"
            )
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default=BASELINE_PATH)
    ap.add_argument("--tolerance", type=float, default=0.30)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument(
        "--write-baseline",
        action="store_true",
        help="record this run as the new committed baseline instead of gating",
    )
    args = ap.parse_args()

    metrics = measure(args.reps)
    for key in sorted(metrics):
        unit = " MB/s" if key.endswith("_mb_s") else ""
        print(f"  {key:32s} {metrics[key]:10.2f}{unit}")

    failures = check_floors(metrics)

    if args.write_baseline:
        if failures:
            print("\nrefusing to record a baseline that fails the floors:")
            for f in failures:
                print(f"  FAIL: {f}")
            return 1
        payload = {
            "note": "codec throughput baseline for benchmarks/check_regression.py",
            "shard_bytes": SHARD,
            "kernels": GF256.selected_kernels(),
            "metrics": {k: round(v, 3) for k, v in metrics.items()},
        }
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"\nbaseline written to {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"\nno baseline at {args.baseline}; run with --write-baseline first")
        return 1
    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures += check_baseline(metrics, baseline, args.tolerance)

    if failures:
        print("\ncodec performance regression:")
        for f in failures:
            print(f"  FAIL: {f}")
        return 1
    print("\nok: no codec regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
