"""What the stripe write paths cost in kernel passes, pinned as counts.

The delta update ``P' = P + G[k+i, j] * (old + new)`` is the write path of
every ENCODED entity.  Wall time proves nothing on a shared box, but the
number of kernel passes and the payload-sized blocks a rewrite allocates
repeat exactly, on the simulator and on the live engine: one overwriting
``[1 c c] . [P; old; new]`` pass per live parity, each into the fresh
parity it stores, and nothing else - no copy of the stored parity, no
``old ^ new`` delta, no gather scratch.  A vacant slot is a dropped kernel
column, never a zero buffer.  Forming a stripe (or re-encoding one) is one
``RSCode.encode``: one pass, straight from the runtime - there is no tier
between them.  Holds on the ``table`` fallback too.
"""

from __future__ import annotations

import asyncio
import contextlib
import tracemalloc

import numpy as np
import pytest

from repro.core.policies import NoResilience
from repro.erasure.gf256 import GF256
from repro.live import conformance
from repro.live.service import LiveStagingService
from repro.staging.objects import ResilienceState

from tests.conftest import make_service, small_config, stripes_consistent
from tests.core import test_runtime as rt

BLOCK = 64 * 1024


@contextlib.contextmanager
def deployment(backend: str, **overrides):
    """A ``none``-policy service whose workflows run on ``backend``."""
    if backend == "sim":
        yield make_service("none", **overrides)
        return
    loop = asyncio.new_event_loop()

    async def start() -> LiveStagingService:
        return LiveStagingService(small_config(**overrides), NoResilience())

    live = loop.run_until_complete(start())
    svc = live.service
    # The runtime test helpers drive workflows through ``run_workflow``:
    # here each one runs to completion on the live engine instead.
    svc.run_workflow = lambda gen: loop.run_until_complete(live.engine.run_process(gen))
    try:
        yield svc
    finally:
        loop.run_until_complete(live.close())
        loop.close()


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, above the level at entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# RS(3, m) with m + 1 replicas: the server count both groupings divide.
@pytest.mark.parametrize("backend", ["sim", "live"])
@pytest.mark.parametrize("m, n_servers", [(1, 8), (2, 15)])
def test_rewrite_of_an_encoded_entity_is_m_passes_and_m_fresh_parities(m, n_servers, backend):
    with deployment(
        backend,
        n_servers=n_servers,
        domain_shape=(128, 128, 64),
        object_max_bytes=BLOCK,
        n_level=m,
    ) as svc:
        ent = rt.TestEncodedUpdates().setup_stripe(svc)[1]
        stripe = ent.stripe
        assert ent.state == ResilienceState.ENCODED and ent.nbytes == BLOCK
        assert stripe.m == m and stripe.shard_len == BLOCK
        assert all(svc.runtime.alive(sid) for _, sid in stripe.holders(vacant=True))
        parity_slots = [
            (svc.servers[sid].store, stripe.shard_key(stripe.k + j))
            for j, sid in enumerate(stripe.parity_servers)
        ]

        def rewrite(version):
            new = svc.synth_payload("v", ent.block_id, version, ent.nbytes)

            def wf():
                ent.version += 1
                yield from svc.runtime.update_encoded_entity(ent, new, strategy="delta")

            held = [store[key] for store, key in parity_slots]
            snapshot = [p.copy() for p in held]
            calls = GF256.KERNEL_STATS["matmul_calls"]
            updates = svc.metrics.counters["parity_updates"]
            peak = traced_peak(lambda: rt.drive(svc, wf()))
            # Copy-on-write: each parity is a new stored object, and the one
            # a reader fetched before the rewrite still holds its bytes.
            for (store, key), p, before in zip(parity_slots, held, snapshot):
                assert store[key] is not p
                assert np.array_equal(p, before)
            return (
                GF256.KERNEL_STATS["matmul_calls"] - calls,
                svc.metrics.counters["parity_updates"] - updates,
                peak,
            )

        rewrite(1)  # warm: the fallback kernel grows its scratch row once
        for version in (2, 3):
            passes, updates, peak = rewrite(version)
            assert passes == m
            assert updates == 1
            # The m fresh parities, and not one more payload-sized block.
            # (The fallback's gather widens its indices inside numpy: a
            # transient of the kernel, not of the write path.)
            if GF256.selected_kernels()["large"] == "native":
                assert m * BLOCK <= peak < m * BLOCK + BLOCK // 2
        assert stripes_consistent(svc)


@pytest.mark.parametrize("backend", ["sim", "live"])
def test_a_reconstruct_over_a_vacant_slot_allocates_only_its_output(backend):
    """RS(3, 1) with slot 2 vacant: rebuilding the parity decodes from the
    two members and the vacant slot's zeros, which are a dropped kernel
    column - one pass, one payload-sized block (the parity it returns)."""
    with deployment(backend, domain_shape=(128, 128, 64), object_max_bytes=BLOCK) as svc:
        gid, ents = rt.TestStripeFormation().fill_group(svc, 2)
        rt.drive(svc, svc.runtime.form_stripe(gid, [*ents, None]))
        stripe = ents[0].stripe
        assert stripe.members[2] is None and stripe.shard_len == BLOCK
        psrv = svc.servers[stripe.parity_servers[0]]
        want = psrv.store[stripe.shard_key(3)]
        psrv.delete_bytes(stripe.shard_key(3))

        def rebuild():
            out = []

            def wf():
                out.append((yield from svc.runtime.reconstruct_shard(stripe, 3)))

            rt.drive(svc, wf())
            return out[0][0]

        rebuild()  # warm: decode-row cache and the fallback's scratch row
        calls = GF256.KERNEL_STATS["matmul_calls"]
        got = []
        peak = traced_peak(lambda: got.append(rebuild()))
        assert GF256.KERNEL_STATS["matmul_calls"] - calls == 1
        assert np.array_equal(got[0], want)
        if GF256.selected_kernels()["large"] == "native":
            assert BLOCK <= peak < BLOCK + BLOCK // 2


@pytest.mark.parametrize("strategy", ["form", "reencode"])
def test_one_stripe_encode_is_one_kernel_pass(strategy):
    svc = make_service("none")
    calls = GF256.KERNEL_STATS["matmul_calls"]
    ent = rt.TestEncodedUpdates().setup_stripe(svc)[1]
    if strategy == "reencode":
        calls = GF256.KERNEL_STATS["matmul_calls"]
        new = svc.synth_payload("v", ent.block_id, 1, ent.nbytes)

        def wf():
            ent.version += 1
            yield from svc.runtime.update_encoded_entity(ent, new, strategy="reencode")

        rt.drive(svc, wf())
    assert GF256.KERNEL_STATS["matmul_calls"] - calls == 1
    assert stripes_consistent(svc)


def test_hybrid_conformance_tape_kernel_counts_are_pinned():
    """Measured at the commit that still had the encode-deferral tier:
    5 stripe formations + 9 single-parity delta updates = 14 passes, all
    on the kernel in charge."""
    GF256.reset_kernel_stats()
    projection, _ = conformance.run(conformance.WORKLOADS["hybrid"], "sim")
    assert len(projection["stripes"]) == 5
    kernel = GF256.selected_kernels()["large"]
    ran = {name: n for name, n in GF256.KERNEL_STATS.items() if n}
    assert ran == {"matmul_calls": 14, kernel: 14}
