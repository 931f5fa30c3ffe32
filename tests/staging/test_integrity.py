"""One flipped bit is caught wherever a read can take its bytes from.

The request path checks a CRC-32 (``payload_digest``), not the 96-bit
``content_id``; these cases pin that the cheaper function still does the
job it is there for.  Each scenario flips a single bit in one stored copy
— the primary, the replica a read falls back to, a data shard or the
parity a degraded decode multiplies — and the victim's verified get and
the ``verify_all`` audit must both refuse the bytes, on the simulator and
on the live engine.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import DataLossError, ErasurePolicy, ReplicationPolicy, StagingService
from repro.core.runtime import primary_key, replica_key
from repro.live.service import LiveStagingService
from repro.staging.objects import ResilienceState

from tests.conftest import small_config


def flip_bit(svc, sid: int, key: str) -> None:
    """Flip one bit of the copy of ``key`` held by server ``sid``."""
    copy = svc.servers[sid].store[key].copy()
    copy[copy.size // 3] ^= 0x08
    svc.servers[sid].store[key] = copy


def encoded_with_neighbour(svc):
    """An encoded entity whose stripe holds at least one other member."""
    for ent in svc.directory.entities.values():
        if ent.state == ResilienceState.ENCODED:
            others = [mk for mk in ent.stripe.members if mk not in (None, ent.key)]
            if others:
                return ent, svc.directory.entities[others[0]]
    raise AssertionError("no stripe with two occupied slots")


def primary_copy(svc):
    ent, _ = encoded_with_neighbour(svc)
    flip_bit(svc, ent.primary, primary_key(ent))
    return ent


def replica_on_fallback(svc):
    ent = next(e for e in svc.directory.entities.values() if e.replicas)
    svc.fail_server(ent.primary)
    flip_bit(svc, ent.replicas[0], replica_key(ent))
    return ent


def data_shard_of_a_degraded_decode(svc):
    ent, neighbour = encoded_with_neighbour(svc)
    svc.fail_server(ent.primary)
    flip_bit(svc, neighbour.primary, primary_key(neighbour))
    return ent


def parity_of_a_degraded_decode(svc):
    ent, _ = encoded_with_neighbour(svc)
    stripe = ent.stripe
    svc.fail_server(ent.primary)
    flip_bit(svc, stripe.shard_servers[stripe.k], stripe.shard_key(stripe.k))
    return ent


SCENARIOS = {
    "primary": (ErasurePolicy, primary_copy),
    "replica-on-fallback": (ReplicationPolicy, replica_on_fallback),
    "data-shard": (ErasurePolicy, data_shard_of_a_degraded_decode),
    "parity": (ErasurePolicy, parity_of_a_degraded_decode),
}


def writes(svc):
    """Every block of one variable, then a step and a flush (generators)."""
    for b in range(svc.domain.n_blocks):
        yield svc.put("w", "v", svc.domain.block_bbox(b))
    yield svc.end_step()
    yield svc.flush()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_sim_read_paths_catch_one_flipped_bit(scenario):
    policy, corrupt = SCENARIOS[scenario]
    svc = StagingService(small_config(), policy())
    for flow in writes(svc):
        svc.run_workflow(flow)
    svc.run()
    assert svc.verify_all()["unrecoverable"] == []
    ent = corrupt(svc)
    with pytest.raises(DataLossError, match="digest mismatch"):
        svc.run_workflow(svc.get("r", ent.name, svc.domain.block_bbox(ent.block_id), True))
    assert svc.read_errors == 1
    assert ent.key in svc.verify_all()["unrecoverable"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_live_read_paths_catch_one_flipped_bit(scenario):
    policy, corrupt = SCENARIOS[scenario]

    async def main():
        live = LiveStagingService(small_config(), policy())
        try:
            svc = live.service
            for flow in writes(svc):
                await live.engine.run_process(flow, name="stage")
            await live.quiesce()
            assert (await live.verify_all())["unrecoverable"] == []
            ent = corrupt(svc)
            with pytest.raises(DataLossError, match="digest mismatch"):
                await live.get("r", ent.name, svc.domain.block_bbox(ent.block_id), True)
            assert svc.read_errors == 1
            assert ent.key in (await live.verify_all())["unrecoverable"]
        finally:
            await live.close()

    asyncio.run(main())
