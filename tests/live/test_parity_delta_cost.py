"""What the stripe write paths cost in kernel passes, pinned as counts.

The delta update ``P' = P + G[k+i, j] * (old + new)`` is the write path of
every ENCODED entity.  Wall time proves nothing on a shared box, but on
the simulator the number of kernel passes and the payload-sized blocks a
rewrite allocates repeat exactly: one fused ``[c c] . [old; new]`` pass per
live parity, into a copy of that parity, and nothing else - no ``old ^ new``
delta, no gather scratch.  Forming a stripe (or re-encoding one) is one
``RSCode.encode``: one pass, straight from the runtime - there is no tier
between them.  Holds on the ``table`` fallback too.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.erasure.gf256 import GF256
from repro.live import conformance
from repro.staging.objects import ResilienceState

from tests.conftest import make_service, stripes_consistent
from tests.core import test_runtime as rt

BLOCK = 64 * 1024


# RS(3, m) with m + 1 replicas: the server count both groupings divide.
@pytest.mark.parametrize("m, n_servers", [(1, 8), (2, 15)])
def test_rewrite_of_an_encoded_entity_is_m_passes_and_m_parity_copies(m, n_servers):
    svc = make_service(
        "none",
        n_servers=n_servers,
        domain_shape=(128, 128, 64),
        object_max_bytes=BLOCK,
        n_level=m,
    )
    ent = rt.TestEncodedUpdates().setup_stripe(svc)[1]
    stripe = ent.stripe
    assert ent.state == ResilienceState.ENCODED and ent.nbytes == BLOCK
    assert stripe.m == m and stripe.shard_len == BLOCK
    assert all(svc.runtime.alive(sid) for sid in stripe.shard_servers)

    def rewrite(version):
        new = svc.synth_payload("v", ent.block_id, version, ent.nbytes)

        def wf():
            ent.version += 1
            yield from svc.runtime.update_encoded_entity(ent, new, strategy="delta")

        calls = GF256.KERNEL_STATS["matmul_calls"]
        updates = svc.metrics.counters["parity_updates"]
        tracemalloc.start()
        try:
            rt.drive(svc, wf())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
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
        # The m parity copies, and not one more payload-sized block.  (The
        # fallback's gather widens its indices inside numpy: a transient
        # of the kernel, not of the write path.)
        if GF256.selected_kernels()["large"] == "native":
            assert m * BLOCK <= peak < m * BLOCK + BLOCK // 2
    assert stripes_consistent(svc)


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
