"""Resilience-policy interface and the paper's three baselines.

A policy decides *when* the runtime's flows run:

- :class:`NoResilience` — plain DataSpaces staging ("DataSpaces" bars in
  Figure 8): fastest, loses data on failure;
- :class:`ReplicationPolicy` — every entity keeps ``n_level`` full copies
  ("Replicate"): fast writes, 1/(N_level+1) storage efficiency;
- :class:`ErasurePolicy` — every entity is erasure coded ("Erasure"):
  best storage efficiency, expensive updates (the paper's Section II-A
  naive read-modify-write re-encode), aggressive recovery by default.

:mod:`repro.core.hybrid` and :mod:`repro.core.corec` build on the same
base class.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Generator

import numpy as np

from repro.core.recovery import RecoveryConfig, RecoveryManager
from repro.core.runtime import DataLossError, StagingRuntime, primary_key, replica_key
from repro.staging.objects import BlockEntity, ResilienceState

__all__ = [
    "ResiliencePolicy",
    "NoResilience",
    "ReplicationPolicy",
    "ErasurePolicy",
    "DataLossError",
    "policy_from_spec",
    "bounded_spec",
    "replay_spec",
]


def _noop() -> Generator:
    """An empty generator (for default hooks)."""
    return
    yield  # pragma: no cover


class ResiliencePolicy:
    """Base class: lifecycle hooks invoked by the staging service.

    Subclasses implement :meth:`on_write`; the other hooks have sensible
    defaults.  All generator hooks are driven inside simulator processes.
    """

    name = "base"

    def __init__(self, recovery: RecoveryConfig | None = None):
        self.recovery_config = recovery or RecoveryConfig()
        self.rt: StagingRuntime | None = None
        self.recovery: RecoveryManager | None = None

    # ------------------------------------------------------------------
    def attach(self, runtime: StagingRuntime) -> None:
        """Bind to a runtime; called once by the service at assembly."""
        self.rt = runtime
        self.recovery = RecoveryManager(runtime, self.recovery_config)

    def on_write(
        self,
        ent: BlockEntity,
        client_name: str,
        payload: np.ndarray,
        step: int,
        is_new: bool,
    ) -> Generator:
        """Stage ``payload`` as the entity's new version, with protection."""
        raise NotImplementedError

    def on_read(self, ent: BlockEntity, step: int) -> None:
        """Notification (not a flow) that a read of ``ent`` succeeded.

        Called synchronously from the service's get path after the payload
        is assembled — policies use it to feed access statistics; it must
        not yield, block or mutate entity protection state.
        """

    def on_step_end(self, step: int) -> Generator:
        """Barrier hook after all writers of a timestep complete."""
        return _noop()

    def on_flush(self) -> Generator:
        """Ensure every staged entity is fully protected (workflow barrier)."""
        return _noop()

    def on_server_failed(self, sid: int) -> None:
        self.recovery.on_server_failed(sid)

    def on_server_replaced(self, sid: int) -> None:
        self.recovery.on_server_replaced(sid)

    @property
    def repair_on_access(self) -> bool:
        return self.recovery.repair_on_access

    # ------------------------------------------------------------------
    # shared transition flows (used by hybrid and CoREC)
    # ------------------------------------------------------------------
    def _refresh_replicated(self, ent: BlockEntity, client_name: str, payload: np.ndarray) -> Generator:
        """Update path for a replicated entity: primary + all replicas."""
        yield from self.rt.ingest_primary(ent, client_name, payload)
        yield from self.rt.replicate_entity(ent, payload)

    def _demote_to_encoded(self, ent: BlockEntity, executor: int | None = None) -> Generator:
        """Replicated -> erasure coded: join/refill a stripe.

        The replica copies are *kept* while the entity waits in the pending
        pool (it stays protected through the whole transition) and are
        reclaimed by the encode itself.  Caller must hold the entity lock.
        """
        if ent.state != ResilienceState.REPLICATED:
            return
        self.rt.enqueue_for_encoding(ent)
        yield from self.rt.metadata_update(ent, ent.primary)
        gid = self.rt.layout.coding_group_id(ent.primary)
        if self.rt.stripe_ready(gid):
            yield from self.rt.encode_pending(gid, executor=executor)

    def _promote_to_replicated(self, ent: BlockEntity) -> Generator:
        """Erasure coded -> replicated: vacate the stripe slot, replicate.

        Caller must hold the entity lock.
        """
        if ent.state != ResilienceState.ENCODED or ent.stripe is None:
            return
        if not self.rt.alive(ent.primary):
            raise DataLossError(f"cannot promote {ent.key}: primary down")
        payload = yield from self.rt.extract_from_stripe(ent)
        if payload is None:  # primary died between extract and here
            raise DataLossError(f"promotion of {ent.key} lost its payload")
        yield from self.rt.replicate_entity(ent, payload)


class NoResilience(ResiliencePolicy):
    """Plain staging: primary copy only (the paper's "DataSpaces" bars)."""

    name = "none"

    def __init__(self):
        super().__init__(recovery=RecoveryConfig(mode="none", repair_on_access=False))

    def on_write(self, ent, client_name, payload, step, is_new) -> Generator:
        yield from self.rt.ingest_primary(ent, client_name, payload)


class ReplicationPolicy(ResiliencePolicy):
    """Full replication of every entity (the paper's "Replicate" bars)."""

    name = "replication"

    def __init__(self, recovery: RecoveryConfig | None = None):
        super().__init__(recovery=recovery or RecoveryConfig(mode="lazy"))

    def on_write(self, ent, client_name, payload, step, is_new) -> Generator:
        yield from self._refresh_replicated(ent, client_name, payload)


class ErasurePolicy(ResiliencePolicy):
    """Erasure coding of every entity (the paper's "Erasure" bars).

    Updates use the naive re-encode read-modify-write of Section II-A, and
    recovery is aggressive — both choices match the baseline the paper
    measures against.
    """

    name = "erasure"

    def __init__(self, recovery: RecoveryConfig | None = None, update_strategy: str = "reencode"):
        super().__init__(recovery=recovery or RecoveryConfig(mode="aggressive"))
        self.update_strategy = update_strategy

    def on_write(self, ent, client_name, payload, step, is_new) -> Generator:
        if ent.state == ResilienceState.ENCODED:
            yield from self.rt.ingest_primary(ent, client_name, payload, store=False)
            yield from self.rt.update_encoded_entity(ent, payload, strategy=self.update_strategy)
            return
        # First write, or still pending: stage and (re)queue for encoding.
        yield from self.rt.ingest_primary(ent, client_name, payload)
        if ent.state == ResilienceState.ENCODED:
            # An encoder raced the ingest (the entity joined a stripe
            # mid-transfer); fold the landed bytes into the parity instead
            # of re-enqueueing a striped entity.
            yield from self.rt.reconcile_encoded_member(ent)
            return
        if ent.state != ResilienceState.PENDING_STRIPE:
            self.rt.enqueue_for_encoding(ent)
        gid = self.rt.layout.coding_group_id(ent.primary)
        if self.rt.stripe_ready(gid):
            yield from self.rt.encode_pending(gid)

    def on_step_end(self, step: int) -> Generator:
        # Close out stragglers each timestep so no entity stays unprotected.
        for gid in range(self.rt.layout.n_coding_groups()):
            yield from self.rt.flush_pending(gid)

    def on_flush(self) -> Generator:
        for gid in range(self.rt.layout.n_coding_groups()):
            yield from self.rt.flush_pending(gid)


# ----------------------------------------------------------------------
# the one policy factory
# ----------------------------------------------------------------------
def policy_from_spec(
    spec: tuple[str, dict[str, Any]],
    seed: int | None = None,
    recovery: RecoveryConfig | None = None,
) -> ResiliencePolicy:
    """Build a fresh policy from a picklable ``(name, options)`` spec.

    Every deployment — CLI, chaos campaign, shard process, conformance
    run, tape replay, figure bench — builds its policy here, so a spec
    written into a tape or shipped to a shard means one thing.  Names:
    ``none``/``dataspaces``, ``replicate``, ``erasure``, ``hybrid``,
    ``corec``.  ``options`` are the policy's own tunables (``erasure``:
    ``update_strategy``; ``hybrid``: ``storage_bound``,
    ``update_strategy``; ``corec``: any
    :class:`~repro.core.corec.CoRECConfig` field but ``recovery``).
    ``seed`` feeds ``hybrid``'s random selection stream; ``recovery``
    replaces the policy's default recovery configuration.  An unknown name
    or option is a ``ValueError`` (specs arrive from tape files).
    """
    # Imported here: both modules subclass ResiliencePolicy from this one.
    from repro.core.corec import CoRECConfig, CoRECPolicy
    from repro.core.hybrid import SimpleHybridPolicy

    name, options = spec
    allowed = {
        "none": (),
        "dataspaces": (),
        "replicate": (),
        "erasure": ("update_strategy",),
        "hybrid": ("storage_bound", "update_strategy"),
        "corec": tuple(f.name for f in fields(CoRECConfig) if f.name != "recovery"),
    }
    if name not in allowed:
        raise ValueError(f"unknown policy {name!r} (choose from {sorted(allowed)})")
    unknown = sorted(set(options) - set(allowed[name]))
    if unknown:
        raise ValueError(
            f"policy {name!r} takes no option {unknown} (allowed: {sorted(allowed[name])})"
        )
    if name in ("none", "dataspaces"):
        if recovery is not None:
            raise ValueError(f"policy {name!r} never recovers; it takes no recovery config")
        return NoResilience()
    kwargs = dict(options)
    if recovery is not None:
        kwargs["recovery"] = recovery
    if name == "replicate":
        return ReplicationPolicy(**kwargs)
    if name == "erasure":
        return ErasurePolicy(**kwargs)
    if name == "hybrid":
        if seed is None:
            raise ValueError("policy 'hybrid' draws at random and needs a seed")
        return SimpleHybridPolicy(rng=np.random.default_rng(seed), **kwargs)
    return CoRECPolicy(CoRECConfig(**kwargs))


def bounded_spec(
    name: str, storage_bound: float, **options: Any
) -> tuple[str, dict[str, Any]]:
    """Spec for ``name`` carrying ``storage_bound`` iff that policy enforces one.

    For callers that hold one bound next to a policy *name* (CLI flags, a
    chaos config, the Table I benches): only ``hybrid`` and ``corec`` have
    a storage bound, and :func:`policy_from_spec` rejects it elsewhere.
    """
    if name in ("hybrid", "corec"):
        options = {"storage_bound": storage_bound, **options}
    return (name, options)


def replay_spec(name: str, **options: Any) -> tuple[str, dict[str, Any]]:
    """Spec for ``name`` whose decisions depend on op order alone.

    CoREC promotions react to access order in wall-clock time and race the
    background compaction scan; with them off, hot/cold transitions depend
    only on the step counter, which every backend advances identically —
    what conformance runs, captures and replays need to stay comparable.
    Pass ``enforcement_scope="group"`` on top when a sharded cluster is one
    of the backends (the only storage-bound scope a shard can evaluate).
    """
    if name == "corec":
        options = {"promote_on_access": False, "max_promotions_per_step": 0, **options}
    return (name, options)
