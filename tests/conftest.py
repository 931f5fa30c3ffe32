"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CoRECPolicy,
    ErasurePolicy,
    NoResilience,
    ReplicationPolicy,
    SimpleHybridPolicy,
    StagingConfig,
    StagingService,
)
from repro.core.runtime import primary_key


def small_config(**overrides) -> StagingConfig:
    """A small 8-server deployment used throughout the tests."""
    defaults = dict(
        n_servers=8,
        domain_shape=(32, 32, 32),
        element_bytes=1,
        object_max_bytes=4096,
        seed=1,
    )
    defaults.update(overrides)
    return StagingConfig(**defaults)


def make_service(policy_name: str = "corec", **overrides) -> StagingService:
    policy = {
        "none": lambda: NoResilience(),
        "replication": lambda: ReplicationPolicy(),
        "erasure": lambda: ErasurePolicy(),
        "hybrid": lambda: SimpleHybridPolicy(rng=np.random.default_rng(11)),
        "corec": lambda: CoRECPolicy(),
    }[policy_name]()
    return StagingService(small_config(**overrides), policy)


def padded(objects) -> list[np.ndarray]:
    """Each object zero-padded to the longest: one stripe's data shards."""
    shards = [np.zeros(max(o.size for o in objects), np.uint8) for _ in objects]
    for shard, o in zip(shards, objects):
        shard[: o.size] = o
    return shards


def stripes_consistent(svc: StagingService) -> bool:
    """Recompute every stripe's parity from the stored primary copies."""
    code = svc.codec.code
    for s in svc.directory.stripes.values():
        shards = []
        skip = False
        for i in range(s.k):
            mk = s.members[i]
            if mk is None:
                shards.append(np.zeros(s.shard_len, np.uint8))
                continue
            ent = svc.directory.entities[mk]
            raw = svc.servers[ent.primary].store.get(primary_key(ent))
            if raw is None:
                skip = True  # shard lost; consistency undefined until repair
                break
            pad = np.zeros(s.shard_len, np.uint8)
            pad[: raw.size] = raw
            shards.append(pad)
        if skip:
            continue
        parities = code.encode(shards)
        for i in range(s.m):
            srv = svc.servers[s.parity_servers[i]]
            stored = srv.store.get(s.shard_key(s.k + i))
            if stored is not None and not (stored == parities[i]).all():
                return False
    return True


def accounting_consistent(svc: StagingService) -> bool:
    """The O(1) storage accountant must match the directory-derived view."""
    logical = svc.directory.storage_breakdown()
    acc = svc.metrics.storage
    return (
        logical["original"] == acc.original
        and logical["replica_overhead"] == acc.replica
        and logical["parity_overhead"] == acc.parity
    )


@pytest.fixture
def corec_service() -> StagingService:
    return make_service("corec")


@pytest.fixture
def replication_service() -> StagingService:
    return make_service("replication")


@pytest.fixture
def erasure_service() -> StagingService:
    return make_service("erasure")
