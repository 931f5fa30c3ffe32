"""Nothing of a deployment outlives it: an object census, not an RSS reading.

Five live and five simulator deployments are built, driven through one
timestep (puts, reads, the step barrier, a fail/replace) and closed in one
process.  After a collection, the number of reachable ``Event`` / ``Process``
/ ``Resource`` / ``StagingServer`` / ``LiveEngine`` / ``Simulator`` objects is
what it was before the first one was built, and so is the thread count — a
retained callback, a module-level registry or an executor that was never shut
down would each leave some behind.
"""

from __future__ import annotations

import asyncio
import gc
import threading
from collections import Counter

import numpy as np

from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService
from repro.live.engine import LiveEngine
from repro.live.service import LiveStagingService
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource, Store
from repro.staging.server import StagingServer

CENSUS_TYPES = (Event, Resource, Store, StagingServer, LiveEngine, Simulator)
DEPLOYMENTS = 5


def census() -> Counter:
    """Reachable instances of the engine/server classes, by concrete type."""
    gc.collect()
    return Counter(
        type(obj).__name__ for obj in gc.get_objects() if isinstance(obj, CENSUS_TYPES)
    )


def config() -> StagingConfig:
    return StagingConfig(
        n_servers=8, domain_shape=(32, 32, 64), element_bytes=1, object_max_bytes=4096, seed=1
    )


def policy() -> CoRECPolicy:
    return CoRECPolicy(CoRECConfig(storage_bound=0.67))


def one_sim_deployment(before: Counter) -> None:
    svc = StagingService(config(), policy())
    boxes = [svc.domain.block_bbox(b) for b in range(svc.domain.n_blocks)]

    def step():
        for box in boxes:
            yield from svc.put("w", "v", box)
        yield from svc.get("r", "v", boxes[0])
        yield from svc.end_step()

    svc.run_workflow(step())
    svc.fail_server(2)
    svc.run()
    svc.replace_server(2)
    svc.run()
    assert svc.verify_all()["unrecoverable"] == []
    alive = census() - before  # the census does see a deployment while it lives
    assert alive["Simulator"] == 1 and alive["StagingServer"] == 8 and alive["Resource"] > 8


async def one_live_deployment(before: Counter) -> None:
    live = LiveStagingService(config(), policy(), time_scale=0.0)
    try:
        boxes = [live.domain.block_bbox(b) for b in range(live.domain.n_blocks)]
        data = np.arange(4096, dtype=np.uint8)
        for box in boxes:
            await live.put("w", "v", box, data)
        await live.get("r", "v", boxes[0], True)
        await live.end_step()
        live.fail_server(2)
        await live.quiesce()
        live.replace_server(2)
        await live.quiesce()
        assert (await live.verify_all())["unrecoverable"] == []
        alive = census() - before
        assert alive["LiveEngine"] == 1 and alive["StagingServer"] == 8 and alive["Resource"] > 8
    finally:
        await live.close()


def test_closed_deployments_leave_no_engine_objects_and_no_threads():
    threads_before = threading.active_count()
    before = census()
    for _ in range(DEPLOYMENTS):
        one_sim_deployment(before)
    for _ in range(DEPLOYMENTS):
        asyncio.run(one_live_deployment(before))
    after = census()
    assert after == before, f"left behind: {dict(after - before)}"
    assert threading.active_count() == threads_before
