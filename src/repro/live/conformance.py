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
- :meth:`StagingService.projection`: the timing-free projection of a
  deployment's state that must match across backends (read payload
  digests are returned per-op by :func:`run`).

Determinism notes baked into the specs: ops touch one block at a time
(multi-block requests fan out sibling processes whose *completion* order
is timing-dependent; their final state is not, but single-block ops keep
the read-back comparison trivially ordered), and the CoREC spec disables
access promotions (:func:`~repro.core.policies.replay_spec`).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.policies import replay_spec
from repro.staging.service import StagingConfig, build_geometry, normalize_projection
from repro.workloads.capture import Tape, block_digests, config_meta
from repro.workloads.load import apply_op, open_target

__all__ = [
    "WorkloadSpec",
    "WORKLOADS",
    "build_config",
    "build_tape",
    "policy_spec",
    "run",
]


REWRITE_FRACTION = 0.5  # share of a step's puts that rewrite a staged block
N_VARS = 2  # variables a tape's puts pick from


@dataclass(frozen=True)
class WorkloadSpec:
    """One seeded differential workload: policy + op-tape parameters."""

    name: str
    policy: str  # "replicate" | "corec"
    seed: int
    n_blocks: int = 12  # distinct blocks touched (first N of the grid)
    n_steps: int = 4
    puts_per_step: int = 6
    gets_per_step: int = 3
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
    variables = [f"var{v}" for v in range(N_VARS)]
    written: list[tuple[str, int]] = []
    fail_at = {step: sid for step, sid in spec.failures}
    pending_replace: list[int] = []
    for step in range(spec.n_steps):
        for sid in pending_replace:
            emit("replace", server=sid)
        pending_replace.clear()
        for _ in range(spec.puts_per_step):
            var = variables[int(rng.integers(len(variables)))]
            if written and rng.random() < REWRITE_FRACTION:
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
    backends compare directly with
    :func:`~repro.staging.service.diff_projections`.
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
