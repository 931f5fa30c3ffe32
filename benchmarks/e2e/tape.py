"""Seeded op tapes for the live workloads.

A tape is pure data: a warm-up op list (part of set-up), a measured op
list, and the payload pool the puts draw from.  The program under test
only ever sees these ops; the seed never reaches it.  Every replay path
(TCP client, in-process service, simulator) executes the same tape, so
their timings are comparable op for op and their counters repeat exactly.

Ops are ``(kind, arg, pool_index)`` tuples:

- ``("put", block_id, i)`` stages ``pool[i]`` onto one block-aligned box,
- ``("get", block_id, -1)`` reads that box back (verified by the replayer),
- ``("step"|"flush"|"quiesce", -1, -1)`` are the workflow barriers,
- ``("fail", server, -1)`` / ``("replace", server, -1)`` inject a fault,
- ``("settle", -1, -1)`` is step + flush + quiesce timed as one recovery.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

VAR = "field"
N_SERVERS = 8
STORAGE_BOUND = 0.67
POOL = 8  # distinct random payloads the puts draw from

Op = tuple[str, int, int]
STEP: Op = ("step", -1, -1)
FLUSH: Op = ("flush", -1, -1)
QUIESCE: Op = ("quiesce", -1, -1)
SETTLE: Op = ("settle", -1, -1)


@dataclass(frozen=True)
class LiveSpec:
    """Geometry and size of one live workload (CoREC, 8 servers, 1 B elements)."""

    name: str
    domain_shape: tuple[int, int, int]
    object_max_bytes: int
    n_ops: int  # puts (small_put_hot), put/get pairs (block_rw_1m), unused otherwise
    cycles: int  # fail -> read-all -> replace -> settle rounds per lap

    def config(self):
        from repro import StagingConfig

        return StagingConfig(
            n_servers=N_SERVERS,
            domain_shape=self.domain_shape,
            element_bytes=1,
            object_max_bytes=self.object_max_bytes,
            seed=1,
        )

    @staticmethod
    def policy():
        from repro import CoRECConfig, CoRECPolicy

        return CoRECPolicy(CoRECConfig(storage_bound=STORAGE_BOUND))


# Lap sizes are from probe runs on the reference host: a lap takes 2-2.5 s
# there, so a 25 s run holds nine or more.
LIVE_SPECS = {
    "small_put_hot": LiveSpec("small_put_hot", (64, 64, 64), 4096, 2400, 8),
    "block_rw_1m": LiveSpec("block_rw_1m", (256, 256, 256), 1 << 20, 160, 8),
    "fail_recover": LiveSpec("fail_recover", (256, 256, 256), 1 << 16, 0, 8),
}
# Tenth-size tapes for the self-test.
SMOKE_SPECS = {
    name: replace(spec, n_ops=spec.n_ops // 10, cycles=2) for name, spec in LIVE_SPECS.items()
}


@dataclass
class Tape:
    spec: LiveSpec
    seed: int
    boxes: list[tuple[tuple, tuple]]  # block id -> (lb, ub), block-aligned
    block_bytes: int
    pool: list[np.ndarray]
    warmup: list[Op]
    ops: list[Op]
    sha256: str = field(default="")


def _cycles(rng, n_blocks: int, cycles: int, rewrite: list[int] | None = None) -> list[Op]:
    """Failure rounds, one server each, rotating from a seeded start.

    ``rewrite`` puts fresh versions of those blocks before every failure
    so replicated (hot) and encoded (cold) data both sit on the victim.
    """
    ops: list[Op] = []
    first = int(rng.integers(0, N_SERVERS))
    for c in range(cycles):
        victim = (first + c) % N_SERVERS
        if rewrite:
            ops += [("put", b, int(rng.integers(0, POOL))) for b in rewrite]
            ops += [STEP, QUIESCE]
        ops.append(("fail", victim, -1))
        ops += [("get", int(b), -1) for b in rng.permutation(n_blocks)]
        ops.append(("replace", victim, -1))
        ops.append(SETTLE)
    return ops


def build_tape(spec: LiveSpec, seed: int) -> Tape:
    from repro.staging.service import build_geometry

    _, domain, _, _ = build_geometry(spec.config())
    boxes = [(bb.lb, bb.ub) for _, bb in domain.iter_blocks()]
    n_blocks = len(boxes)
    block_bytes = domain.nbytes(domain.block_bbox(0))
    rng = np.random.default_rng([seed, sorted(LIVE_SPECS).index(spec.name)])
    pool = [rng.integers(0, 256, size=block_bytes, dtype=np.uint8) for _ in range(POOL)]

    def put(block) -> Op:
        return ("put", int(block), int(rng.integers(0, POOL)))

    warmup = [put(b) for b in rng.permutation(n_blocks)] + [STEP, QUIESCE]
    ops: list[Op] = []
    if spec.name == "small_put_hot":
        hot = rng.choice(n_blocks, size=8, replace=False)
        for i in range(spec.n_ops):
            pick = hot if rng.random() < 0.8 else range(n_blocks)
            ops.append(put(pick[int(rng.integers(0, len(pick)))]))
            if i % 4 == 3:
                ops.append(("get", int(rng.integers(0, n_blocks)), -1))
            if i % 64 == 63:
                ops += [STEP, QUIESCE]
        ops += _cycles(rng, n_blocks, spec.cycles)
    elif spec.name == "block_rw_1m":
        for i in range(spec.n_ops):
            block = int(rng.integers(0, n_blocks))
            ops += [put(block), ("get", block, -1)]
            if i % 16 == 15:
                ops += [STEP, QUIESCE]
        ops += _cycles(rng, n_blocks, spec.cycles)
    elif spec.name == "fail_recover":
        hot = [int(b) for b in rng.choice(n_blocks, size=n_blocks // 4, replace=False)]
        for _ in range(3):  # three more steps: the hot quarter stays replicated
            warmup += [put(b) for b in hot] + [STEP, QUIESCE]
        warmup += [FLUSH, QUIESCE]
        ops += _cycles(rng, n_blocks, spec.cycles, rewrite=hot)
    else:
        raise ValueError(f"no tape for workload {spec.name!r}")

    digest = hashlib.sha256(json.dumps([warmup, ops]).encode())
    for payload in pool:
        digest.update(payload.tobytes())
    return Tape(spec, seed, boxes, block_bytes, pool, warmup, ops, digest.hexdigest())
