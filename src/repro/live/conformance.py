"""Differential sim-vs-live-vs-cluster conformance harness.

The live backends' correctness claim is *state equivalence*: the same
seeded workload, driven through the simulator, the live engine and the
sharded cluster, must leave the deployment in byte-identical shape — same
object contents, same directory and stripe metadata, same durability
classifications.  Timing and costs are allowed (expected) to differ;
placement, versions, digests and protection state are not.

The harness has three parts:

- seeded workload specs (:data:`WORKLOADS`), each a *generator of a
  tape*: :func:`build_tape` turns a spec's seed into a
  :class:`~repro.workloads.capture.Tape` of single-block
  put/get/step/flush/fail/replace ops, every one followed by a
  ``quiesce`` row;
- one runner, :func:`run`, that plays the tape through
  :func:`~repro.workloads.load.apply_op` on an
  :func:`~repro.workloads.load.open_target` client of any backend.  The
  **full drain between ops** is in the tape, so all backends pass through
  the same sequence of quiescent states — this is what makes
  lock-acquisition and background protection ordering irrelevant to the
  comparison;
- :func:`conformance_projection`: the timing-free projection of a
  deployment's state that must match across backends (read payload
  digests are returned per-op by :func:`run`).

Determinism notes baked into the specs: ops touch one block at a time
(multi-block requests fan out sibling processes whose *completion* order
is timing-dependent; their final state is not, but single-block ops keep
the read-back comparison trivially ordered), and the CoREC spec disables
access promotions (:func:`~repro.core.policies.replay_spec`).
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.policies import replay_spec
from repro.core.runtime import primary_key
from repro.staging.objects import content_id
from repro.staging.service import StagingConfig, StagingService, build_geometry
from repro.workloads.capture import Tape, block_digests, config_meta
from repro.workloads.load import apply_op, open_target

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "build_config",
    "build_tape",
    "policy_spec",
    "run",
    "conformance_projection",
    "normalize_projection",
    "diff_projections",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """One seeded differential workload: policy + op-tape parameters."""

    name: str
    policy: str  # "replicate" | "corec"
    seed: int
    n_vars: int = 2
    n_blocks: int = 12  # distinct blocks touched (first N of the grid)
    n_steps: int = 4
    puts_per_step: int = 6
    gets_per_step: int = 3
    rewrite_fraction: float = 0.5
    failures: tuple[tuple[int, int], ...] = ()  # (step, server) pairs
    config_overrides: dict[str, Any] = field(default_factory=dict)
    # Extra CoRECConfig fields ("corec" specs only).  The sharded
    # differential tests set enforcement_scope="group" on *both* sides of
    # the comparison — group-scoped storage-bound enforcement is what a
    # sharded deployment can actually compute, so the single-process
    # reference must enforce the same way.
    policy_overrides: dict[str, Any] = field(default_factory=dict)

    def with_overrides(self, **policy_overrides: Any) -> "WorkloadSpec":
        """Copy of this spec with extra policy overrides merged in."""
        return replace(
            self, policy_overrides={**self.policy_overrides, **policy_overrides}
        )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # Pure replication: exercises ingest, replica placement, redirect.
        WorkloadSpec(name="replication-only", policy="replicate", seed=101),
        # Hybrid CoREC: demotions, stripe formation, delta parity updates.
        WorkloadSpec(
            name="hybrid",
            policy="corec",
            seed=202,
            n_blocks=16,
            puts_per_step=8,
            n_steps=5,
        ),
        # Failure injected mid-run, replacement next step: redirected
        # writes, degraded reads, lazy sweep + rebalance all inside the
        # comparison window.
        WorkloadSpec(
            name="failure-and-recover",
            policy="corec",
            seed=303,
            n_blocks=16,
            puts_per_step=8,
            n_steps=5,
            failures=((2, 3),),
        ),
    )
}


def build_config(spec: WorkloadSpec) -> StagingConfig:
    """Small 8-server deployment (mirrors the test suite's default)."""
    defaults: dict[str, Any] = dict(
        n_servers=8,
        domain_shape=(64, 64, 32),  # 32 blocks of 16^3 = one 4 KiB object each
        element_bytes=1,
        object_max_bytes=4096,
        seed=1,
    )
    defaults.update(spec.config_overrides)
    return StagingConfig(**defaults)


def policy_spec(spec: WorkloadSpec) -> tuple[str, dict[str, Any]]:
    """Picklable policy spec for ``spec`` (what every backend builds from)."""
    return replay_spec(spec.policy, **spec.policy_overrides)


def build_tape(spec: WorkloadSpec) -> Tape:
    """Deterministic op tape for ``spec`` (depends only on the spec).

    Single-block ``put``/``get`` plus ``step``/``flush``/``fail``/
    ``replace``, each followed by a ``quiesce`` row; the meta record
    carries the spec's config and policy, so the tape replays anywhere.
    """
    config = build_config(spec)
    _, domain, _, _ = build_geometry(config)
    tape = Tape(
        meta={"config": config_meta(config), "policy": list(policy_spec(spec))}
    )

    def emit(op: str, var: str | None = None, block: int | None = None, **fields: Any):
        if block is not None:
            box = domain.block_bbox(block)
            fields.update(var=var, lb=tuple(box.lb), ub=tuple(box.ub))
        tape.record(0.0, op, "w", **fields)
        tape.record(0.0, "quiesce", "w")  # drain all background work before the next op

    rng = np.random.default_rng(spec.seed)
    variables = [f"var{v}" for v in range(spec.n_vars)]
    written: list[tuple[str, int]] = []
    fail_at = {step: sid for step, sid in spec.failures}
    pending_replace: list[int] = []
    for step in range(spec.n_steps):
        for sid in pending_replace:
            emit("replace", server=sid)
        pending_replace.clear()
        for _ in range(spec.puts_per_step):
            var = variables[int(rng.integers(len(variables)))]
            if written and rng.random() < spec.rewrite_fraction:
                var, block = written[int(rng.integers(len(written)))]
            else:
                block = int(rng.integers(spec.n_blocks))
            emit("put", var, block)
            if (var, block) not in written:
                written.append((var, block))
        if step in fail_at:
            emit("fail", server=fail_at[step])
            pending_replace.append(fail_at[step])
        for _ in range(spec.gets_per_step):
            var, block = written[int(rng.integers(len(written)))]
            emit("get", var, block)
        emit("step")
    emit("flush")
    # Read everything back at the end: every staged object must be
    # servable on every backend with identical bytes.
    for var, block in sorted(written):
        emit("get", var, block)
    return tape


def run(spec: WorkloadSpec, backend: str, **live_kwargs: Any) -> tuple[dict, list[str]]:
    """Play ``spec``'s tape on ``backend``; returns (projection, read digests).

    ``backend`` and ``live_kwargs`` are :func:`open_target`'s (``"cluster"``
    needs ``n_shards=``).  The projection comes back JSON-normalized (wire
    projections pass through JSON headers), so results from any two
    backends compare directly with :func:`diff_projections`.
    """
    reads: list[str] = []
    with open_target(backend, build_config(spec), policy_spec(spec), **live_kwargs) as connect:
        with closing(connect("w")) as client:
            for op in build_tape(spec).ops:
                payloads = apply_op(client, op)
                if payloads is not None:
                    reads.extend(block_digests(payloads).values())
            projection = normalize_projection(client.projection())
    return projection, reads


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------
def conformance_projection(svc: StagingService) -> dict:
    """Timing-free projection of deployment state for differential compare.

    Everything here must be identical across backends at a quiescent
    point: directory metadata, stripe geometry and membership, each
    server's store contents (key → ``content_id``), pending-encode pools
    and durability-relevant counters.  Clock readings, response times and
    transfer stats are deliberately excluded.
    """
    # Each store payload is hashed once, here; an entity's digest is its
    # primary copy's entry in that table (absent while the primary is down),
    # so the projection never reads the request path's CRC.
    stores = {
        srv.server_id: {key: content_id(srv.store[key]) for key in sorted(srv.store)}
        for srv in svc.servers
    }
    entities = {}
    for (name, block), ent in sorted(svc.directory.entities.items()):
        entities[f"{name}/{block}"] = {
            "version": ent.version,
            "state": ent.state.value,
            "primary": ent.primary,
            "replicas": sorted(ent.replicas),
            "stripe": None if ent.stripe is None else ent.stripe.stripe_id,
            "digest": stores[ent.primary].get(primary_key(ent)),
            "nbytes": ent.nbytes,
        }
    stripes = {}
    for sid, stripe in sorted(svc.directory.stripes.items()):
        stripes[sid] = {
            "servers": list(stripe.shard_servers),
            "members": [
                None if mk is None else f"{mk[0]}/{mk[1]}" for mk in stripe.members
            ],
            "lengths": list(stripe.lengths),
            "shard_len": stripe.shard_len,
        }
    servers = [
        {
            "server": srv.server_id,
            "failed": srv.failed,
            "epoch": srv.epoch,
            "store": stores[srv.server_id],
        }
        for srv in svc.servers
    ]
    pending = {
        gid: {
            srv: [f"{k[0]}/{k[1]}" for k in queue]
            for srv, queue in sorted(group.items())
            if queue
        }
        for gid, group in sorted(svc.runtime.pending.items())
        if any(queue for queue in group.values())
    }
    storage = svc.metrics.storage
    return {
        "entities": entities,
        "stripes": stripes,
        "servers": servers,
        "pending": pending,
        "storage": {
            "original": storage.original,
            "replica": storage.replica,
            "parity": storage.parity,
        },
        "read_errors": svc.read_errors,
    }


def normalize_projection(projection: dict) -> dict:
    """JSON round-trip of a projection (int dict keys become strings).

    Wire projections pass through JSON headers, which stringifies the
    stripe-id and group-id keys; normalizing the in-process reference the
    same way makes :func:`diff_projections` comparisons exact.
    """
    return json.loads(json.dumps(projection))


def diff_projections(
    a: dict, b: dict, labels: tuple[str, str] = ("left", "right"), prefix: str = ""
) -> list[str]:
    """Human-readable list of paths where two projections differ.

    ``labels`` names the two sides in "only in ..." lines.
    """
    out: list[str] = []
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                out.append(f"{path}: only in {labels[1]}")
            elif key not in b:
                out.append(f"{path}: only in {labels[0]}")
            else:
                out.extend(diff_projections(a[key], b[key], labels, path))
    elif a != b:
        out.append(f"{prefix}: {a!r} != {b!r}")
    return out
