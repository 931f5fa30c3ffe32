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

from repro import CoRECPolicy, DataLossError, ErasurePolicy, ReplicationPolicy, StagingService
from repro.core.recovery import RecoveryConfig
from repro.core.runtime import primary_key, replica_key
from repro.erasure.gf256 import GF256
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
    flip_bit(svc, stripe.parity_servers[0], stripe.shard_key(stripe.k))
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


def _counting_digest(monkeypatch):
    """Count the request path's ``payload_digest`` calls."""
    import repro.staging.service as service_mod

    calls = []
    real = service_mod.payload_digest

    def counted(data):
        calls.append(int(data.size))
        return real(data)

    monkeypatch.setattr(service_mod, "payload_digest", counted)
    return calls


def test_sim_pass_budget_one_digest_per_put_and_per_verified_get(monkeypatch):
    """A put hashes its payload once, a verified get once, an unverified get
    never — background work it sets off included."""
    svc = StagingService(small_config(), CoRECPolicy())
    for flow in writes(svc):
        svc.run_workflow(flow)
    svc.run()
    calls = _counting_digest(monkeypatch)
    box = svc.domain.block_bbox(0)
    for flow, hashed in ((svc.put("w", "v", box), 1), (svc.get("r", "v", box, True), 1),
                         (svc.get("r", "v", box, False), 0)):
        calls.clear()
        svc.run_workflow(flow)
        svc.run()
        assert calls == [box.volume] * hashed


def test_live_pass_budget_one_digest_per_put_and_per_verified_get(monkeypatch):
    async def main():
        live = LiveStagingService(small_config(), CoRECPolicy())
        try:
            svc = live.service
            for flow in writes(svc):
                await live.engine.run_process(flow, name="stage")
            await live.quiesce()
            calls = _counting_digest(monkeypatch)
            box = svc.domain.block_bbox(0)
            for op, hashed in ((live.put("w", "v", box), 1), (live.get("r", "v", box, True), 1),
                               (live.get("r", "v", box, False), 0)):
                calls.clear()
                await op
                await live.quiesce()
                assert calls == [box.volume] * hashed
        finally:
            await live.close()

    asyncio.run(main())


# Lazy recovery: nothing rebuilds the failed primary until a replacement
# joins, so the get's own passes are the only ones (an aggressive burst
# would decode the same entity beside it on the live engine).
def degraded_policy():
    return ErasurePolicy(RecoveryConfig(mode="lazy"))


def _degraded_get_budget(svc, calls, ent, kernel_before, degraded_before):
    assert calls == [ent.nbytes]
    assert GF256.KERNEL_STATS["matmul_calls"] - kernel_before == 1
    assert svc.metrics.counters["degraded_reads"] - degraded_before == 1


def test_sim_pass_budget_one_digest_and_one_kernel_pass_per_degraded_verified_get(monkeypatch):
    """A verified get whose primary is lost decodes it in one kernel pass
    and hashes the result once, background work it sets off included."""
    svc = StagingService(small_config(), degraded_policy())
    for flow in writes(svc):
        svc.run_workflow(flow)
    svc.run()
    ent, _ = encoded_with_neighbour(svc)
    svc.fail_server(ent.primary)
    calls = _counting_digest(monkeypatch)
    before = GF256.KERNEL_STATS["matmul_calls"], svc.metrics.counters["degraded_reads"]
    svc.run_workflow(svc.get("r", ent.name, svc.domain.block_bbox(ent.block_id), True))
    svc.run()
    _degraded_get_budget(svc, calls, ent, *before)


def test_live_pass_budget_one_digest_and_one_kernel_pass_per_degraded_verified_get(monkeypatch):
    async def main():
        live = LiveStagingService(small_config(), degraded_policy())
        try:
            svc = live.service
            for flow in writes(svc):
                await live.engine.run_process(flow, name="stage")
            await live.quiesce()
            ent, _ = encoded_with_neighbour(svc)
            svc.fail_server(ent.primary)
            calls = _counting_digest(monkeypatch)
            before = GF256.KERNEL_STATS["matmul_calls"], svc.metrics.counters["degraded_reads"]
            await live.get("r", ent.name, svc.domain.block_bbox(ent.block_id), True)
            await live.quiesce()
            _degraded_get_budget(svc, calls, ent, *before)
        finally:
            await live.close()

    asyncio.run(main())
