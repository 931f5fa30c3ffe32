"""Operation counts of one live request: what the engine schedules and computes.

The ``repro.scaling`` discipline applied to the live control plane: wall
time on a shared one-core box proves nothing, but the number of actions a
request defers to the microqueue and the number of host compute calls it
makes repeat exactly, so they are pinned as counts.  Everything runs
in-process on one loop (no socket), after a warm step so entities, locks
and stripes exist and every put is a rewrite.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import CoRECConfig, CoRECPolicy, ErasurePolicy
from repro.core.recovery import RecoveryConfig
from repro.erasure.gf256 import GF256
from repro.live.service import LiveStagingService
from repro.staging.objects import ResilienceState
from repro.staging.service import StagingConfig

from tests.conftest import small_config


class Deployment:
    """A warmed CoREC deployment with one block per ``block_bytes``."""

    def __init__(self, block_bytes: int, domain_shape: tuple[int, int, int]):
        config = StagingConfig(
            n_servers=8,
            domain_shape=domain_shape,
            element_bytes=1,
            object_max_bytes=block_bytes,
            seed=1,
        )
        self.live = LiveStagingService(
            config, CoRECPolicy(CoRECConfig(storage_bound=0.67)), time_scale=0.0
        )
        self.engine = self.live.engine
        domain = self.live.domain
        self.boxes = [domain.block_bbox(b) for b in range(domain.n_blocks)]
        self.data = np.arange(block_bytes, dtype=np.uint8)

    async def warm(self) -> None:
        for box in self.boxes:
            await self.live.put("w", "v", box, self.data)
        await self.live.end_step()
        await self.live.quiesce()

    def counts(self) -> tuple[int, int]:
        eng = self.engine
        return eng.actions_scheduled, eng.compute_calls

    async def cost(self, op) -> tuple[int, int]:
        """(scheduled actions, compute calls) of ``await op``."""
        before = self.counts()
        await op
        return tuple(b - a for a, b in zip(before, self.counts()))


def run(body, block_bytes=4096, domain_shape=(32, 32, 64), warm=True):
    async def main():
        dep = Deployment(block_bytes, domain_shape)
        try:
            if warm:
                await dep.warm()
            return await body(dep)
        finally:
            await dep.live.close()

    return asyncio.run(main())


def test_small_rewrite_put_schedules_at_most_six_actions_and_no_hop():
    """Six was the bound before a request ran on its caller's stack.  Now a
    rewrite that spawns nothing schedules *nothing*: it runs to completion
    inside ``run_process``.  A rewrite of an encoded block spawns CoREC's
    promotion process, and that is its two: the promotion's start, and the
    ack, which queues behind it so the start is never overtaken."""

    async def body(dep):
        state = lambda b: dep.live.directory.get("v", b).state  # noqa: E731
        blocks = range(len(dep.boxes))
        hot = [b for b in blocks if state(b) == ResilienceState.REPLICATED][:4]
        cold = [b for b in blocks if state(b) == ResilienceState.ENCODED][:4]
        assert len(hot) == len(cold) == 4
        for chosen, actions in ((hot, 0), (cold, 2)):
            costs = [
                await dep.cost(dep.live.put("w", "v", dep.boxes[b], dep.data)) for b in chosen
            ]
            # (scheduled actions, compute calls: the digest)
            assert costs == [(actions, 1)] * 4, costs

    run(body)


def test_small_verified_get_schedules_at_most_five_actions_and_no_hop():
    """... and a verified get none at all."""

    async def body(dep):
        costs = [
            await dep.cost(dep.live.get("r", "v", box, True)) for box in dep.boxes[:8]
        ]
        assert costs == [(0, 1)] * 8  # the one compute call is the verify digest

    run(body)


def test_a_put_that_spawns_a_demotion_acks_after_the_demotions_first_step():
    """The clause ``run_process`` hangs its direct return on.

    Four first writes to blocks of one primary, on a cold deployment: each
    spawns a demotion,
    which starts through the microqueue.  Acked from the handler's stack,
    the put would overtake it — the client's ``flush`` would find nothing
    pending, the demotions would enqueue their entities afterwards, and
    ``flush + quiesce`` would leave them ``PENDING_STRIPE``.
    """

    async def body(dep):
        live, eng = dep.live, dep.engine
        primary_of = live.service.index.primary_of_block
        blocks = [b for b in range(len(dep.boxes)) if primary_of(b, "v") == 0][:4]
        assert len(blocks) == 4
        order = []

        def announced(gen, name):
            order.append(f"step {name}")
            return (yield from gen)

        process = eng.process
        eng.process = lambda gen, name="": process(announced(gen, name), name)
        for b in blocks:
            scheduled, _ = await dep.cost(live.put("w", "v", dep.boxes[b], dep.data))
            order.append(f"ack {b}")
            assert scheduled == 2  # the demotion's start, and the ack behind it
        assert order == [
            line for b in blocks for line in (f"step demote-v-{b}", f"ack {b}")
        ]
        await live.flush()
        await live.quiesce()
        states = {live.directory.get("v", b).state for b in blocks}
        assert states == {ResilienceState.ENCODED}

    run(body, domain_shape=(32, 32, 128), warm=False)


def test_a_put_that_fails_in_its_first_step_is_an_error_response_not_a_crash():
    """A flow stepped in place that raises is a failed process: whoever
    joins it gets the exception (the error response); the spawner — the
    connection handler — does not, and nothing lands in ``engine.errors``."""
    from repro.live import LiveClient, serve_in_thread
    from repro.live.protocol import RemoteOpError

    config = StagingConfig(n_servers=8, domain_shape=(32, 32, 32), element_bytes=1, seed=3)
    with serve_in_thread(config, CoRECPolicy) as handle:
        with LiveClient(handle.host, handle.port, name="c", timeout=10.0) as cli:
            with pytest.raises(RemoteOpError) as outside:  # raised by put's own first step
                cli.put("v", (64, 64, 64), (65, 65, 65))
            assert outside.value.error_type == "ValueError"
            with pytest.raises(RemoteOpError) as unstaged:  # ... by a gathered child's
                cli.get("v", (0, 0, 0), (1, 1, 1))
            assert unstaged.value.error_type == "KeyError"
            cli.put("v", (0, 0, 0), (1, 1, 1))  # the connection is still good
            cli.quiesce()  # would raise LiveProcessError had a crash been kept
    assert handle.live.engine.errors == []
    assert handle._server._inflight == 0


def test_one_mib_put_hashes_once_on_the_loop():
    async def body(dep):
        computed = []
        runtime = dep.live.runtime
        hook = runtime.compute_hook

        def recording_hook(fn, charge):
            computed.append(charge)
            return hook(fn, charge)

        runtime.compute_hook = recording_hook
        for box in dep.boxes[:4]:
            computed.clear()
            await dep.live.put("w", "v", box, dep.data)
            # Whatever protects the block, its bytes are hashed once; any
            # other compute call is a kernel pass, on the loop as well.
            assert computed.count("digest") == 1
            assert set(computed) <= {"digest", "codec"}

    run(body, block_bytes=1 << 20, domain_shape=(128, 128, 128))


def test_concurrent_puts_to_one_block_serialise_through_a_scheduled_grant():
    """Contention is still a real wait.

    Puts run start to finish without blocking, so two of them never meet
    on their own.  Here the test holds the entity lock while it issues
    both: each queues, and each grant — an event with a waiter — goes
    through the microqueue.
    """

    async def body(dep):
        # A replicated block: its rewrite spawns nothing to schedule.
        state = lambda b: dep.live.directory.get("v", b).state  # noqa: E731
        bid = next(b for b in range(len(dep.boxes)) if state(b) == ResilienceState.REPLICATED)
        box = dep.boxes[bid]
        lock = dep.live.runtime.entity_lock(("v", bid))
        solo, _ = await dep.cost(dep.live.put("w", "v", box, dep.data))
        version = dep.live.directory.get("v", bid).version
        held = lock.request()
        assert held.processed  # the lock was free: granted on the spot
        before = dep.counts()
        puts = asyncio.gather(
            dep.live.put("a", "v", box, dep.data),
            dep.live.put("b", "v", box, dep.data),
        )
        await asyncio.sleep(0)  # both puts take their first step, and queue
        assert lock.queued == 2
        lock.release(held)
        queued_at_release = []
        release = lock.release

        def watched_release(req=None):
            queued_at_release.append(lock.queued)
            release(req)

        lock.release = watched_release
        await puts
        both = dep.counts()[0] - before[0]
        assert queued_at_release == [1, 0]  # b waited for a's release
        # Alone, a put schedules nothing.  Parked, each schedules its grant,
        # then the completions that now have a waiter: the block flow, the
        # gather over it and the put itself.
        assert (solo, both) == (0, 2 * 4), (solo, both)
        assert lock.in_use == 0 and lock.queued == 0
        assert dep.live.directory.get("v", bid).version == version + 2

    run(body)


def test_mebibyte_kernel_passes_run_on_the_loop_unsplit():
    """A stripe encode over k x 1 MiB and the decode behind a 1 MiB degraded
    get are each one compute call and one kernel call, on the loop."""

    async def main():
        # Eight 1 MiB blocks: four RS(3,1) stripes, two of them full.
        config = small_config(domain_shape=(128, 128, 512), object_max_bytes=1 << 20)
        live = LiveStagingService(config, ErasurePolicy(RecoveryConfig(mode="none")))
        eng = live.engine

        def counts() -> list[int]:
            return [eng.compute_calls, GF256.KERNEL_STATS["matmul_calls"]]

        def since(before: list[int]) -> list[int]:
            return [b - a for a, b in zip(before, counts())]

        try:
            before = counts()
            blocks = live.domain.n_blocks
            for b in range(blocks):
                await live.put("w", "v", live.domain.block_bbox(b))
            await live.flush()
            await live.quiesce()
            encodes = live.metrics.counters["stripe_encodes"]
            assert encodes == 4
            assert since(before) == [blocks + encodes, encodes]  # digests + passes
            live.fail_server(live.directory.get("v", 0).primary)
            before = counts()
            _, got = await live.get("r", "v", live.domain.block_bbox(0))
            assert live.metrics.counters["degraded_reads"] == 1
            assert got[0].size == 1 << 20
            assert since(before) == [2, 1]  # the reconstruct pass and the digest
        finally:
            await live.close()

    asyncio.run(main())


def test_boundary_counters_are_in_the_registry_and_the_prometheus_dump():
    async def body(dep):
        await dep.live.put("w", "v", dep.boxes[0], dep.data)
        eng = dep.engine
        expected = {
            "live.events.ready_total": eng.events_ready,
            "live.events.scheduled_total": eng.actions_scheduled,
            "live.compute.calls_total": eng.compute_calls,
        }
        snapshot = dep.live.metrics.registry.snapshot()
        assert {name: snapshot[name] for name in expected} == expected
        assert expected["live.events.ready_total"] > expected["live.events.scheduled_total"] > 0
        text = dep.live.metrics_text()
        for name, value in expected.items():
            assert f"{name.replace('.', '_')} {float(value)}" in text

    run(body)
