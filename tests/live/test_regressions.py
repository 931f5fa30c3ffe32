"""Pinned regressions for latent-state bugs the live backend flushed out.

The simulator is single-threaded and virtual-time, so two classes of bug
hide in it indefinitely: shared mutable module state that only races
under real threads, and host-side work whose *position in the event
stream* silently matters.  Building the live backend surfaced both; the
tests here pin the fixes so they cannot quietly regress.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.erasure.gf256 import GF256
from repro.erasure.reedsolomon import RSCode


def test_gf256_scratch_is_thread_isolated():
    """GF(2^8) scratch buffers must be per-thread, not module-global.

    Regression: the mul/addmul scratch pool was one module-level dict.
    Two threads using equal-length buffers shared a scratch array, so a
    live worker-thread encode could corrupt the loop thread's in-flight
    delta-parity update (same length: 4 KiB shards both ways).  The pool
    is now ``threading.local``; this hammers the exact collision shape —
    same buffer length on N threads — and checks every result against a
    single-threaded reference.
    """
    length = 4096
    n_threads = 4
    iters = 60
    rng = np.random.default_rng(42)
    bufs = [rng.integers(0, 256, size=length, dtype=np.uint8) for _ in range(n_threads)]
    coeffs = [int(c) for c in rng.integers(1, 256, size=n_threads)]
    want = [GF256.mul_bytes(c, b) for c, b in zip(coeffs, bufs)]

    failures: list[str] = []
    barrier = threading.Barrier(n_threads)

    def hammer(i: int) -> None:
        barrier.wait()
        for _ in range(iters):
            got = GF256.mul_bytes(coeffs[i], bufs[i])
            if not np.array_equal(got, want[i]):
                failures.append(f"thread {i}: mul_bytes corrupted")
                return
            acc = np.zeros(length, dtype=np.uint8)
            GF256.addmul_bytes(acc, coeffs[i], bufs[i])
            if not np.array_equal(acc, want[i]):
                failures.append(f"thread {i}: addmul_bytes corrupted")
                return

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert failures == []


def test_concurrent_matmul_matches_reference():
    """Full kernel passes from many threads must stay bit-exact."""
    code = RSCode(3, 1)
    rng = np.random.default_rng(7)
    shards = rng.integers(0, 256, size=(3, 4096), dtype=np.uint8)
    want = GF256.matmul_bytes(code.parity_rows, shards)
    failures: list[str] = []
    barrier = threading.Barrier(4)

    def hammer(i: int) -> None:
        barrier.wait()
        for _ in range(40):
            got = GF256.matmul_bytes(code.parity_rows, shards)
            if not np.array_equal(want, got):
                failures.append(f"thread {i}: matmul diverged")
                return

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert failures == []


def test_sim_compute_hook_adds_no_events():
    """``StagingRuntime.compute`` must be yield-free on the simulator.

    The live backend routes codec work through ``compute`` so it can
    charge it to the request's trace.  On the simulator the hook must run
    the function *inline with zero yields*: one extra event per encode would
    shift every downstream timestamp and invalidate the golden benchmark
    outputs.  Pin the contract directly: a sim-mode runtime's compute
    generator returns without ever yielding.
    """
    from tests.conftest import make_service

    svc = make_service("corec")
    gen = svc.runtime.compute(lambda: "inline-result")
    try:
        yielded = next(gen)
    except StopIteration as stop:
        assert stop.value == "inline-result"
    else:  # pragma: no cover - the regression itself
        raise AssertionError(f"sim compute() yielded {yielded!r}")
