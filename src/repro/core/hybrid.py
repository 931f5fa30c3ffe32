"""Simple hybrid erasure coding — the classification-free strawman.

The paper's "Hybrid" baseline: "candidate data objects for replication and
erasure coding are selected randomly without any data classification"
(Section II-D.1), under the same storage-efficiency constraint as CoREC.
Because the choice is re-drawn per write, the same object oscillates
between replication and erasure coding, paying the full transition cost
each time — the behaviour responsible for its "longest total transportation
time" in the paper's Case 1 discussion.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.model import CoRECModel, ModelParams
from repro.core.policies import ResiliencePolicy
from repro.core.recovery import RecoveryConfig
from repro.core.runtime import StagingRuntime, primary_key
from repro.staging.objects import BlockEntity, ResilienceState

__all__ = ["SimpleHybridPolicy"]


class SimpleHybridPolicy(ResiliencePolicy):
    """Random replicate-or-encode selection under a storage bound."""

    name = "hybrid"

    def __init__(
        self,
        storage_bound: float = 0.67,
        rng: np.random.Generator | None = None,
        update_strategy: str = "reencode",
        recovery: RecoveryConfig | None = None,
    ):
        super().__init__(recovery=recovery or RecoveryConfig(mode="lazy"))
        if rng is None:
            raise ValueError("SimpleHybridPolicy requires an rng stream")
        self.storage_bound = storage_bound
        self.rng = rng
        self.update_strategy = update_strategy
        self.p_replicate = 0.0  # resolved at attach from the code geometry

    def attach(self, runtime: StagingRuntime) -> None:
        super().attach(runtime)
        layout = runtime.layout
        model = CoRECModel(ModelParams(n_level=layout.m, n_node=layout.k))
        # The replicated fraction that exactly meets the storage bound.
        self.p_replicate = model.p_r_at_constraint(self.storage_bound)

    # ------------------------------------------------------------------
    def _draw(self) -> str:
        return "replicate" if self.rng.random() < self.p_replicate else "encode"

    def on_write(self, ent: BlockEntity, client_name, payload, step, is_new) -> Generator:
        desired = self._draw()  # re-drawn on every write, new or update

        if is_new:
            yield from self.rt.ingest_primary(ent, client_name, payload)
            if desired == "replicate":
                yield from self.rt.replicate_entity(ent, payload)
            else:
                self.rt.enqueue_for_encoding(ent)
                gid = self.rt.layout.coding_group_id(ent.primary)
                if self.rt.stripe_ready(gid):
                    yield from self.rt.encode_pending(gid)
            return

        state = ent.state
        if (desired == "replicate" and state == ResilienceState.REPLICATED) or (
            desired == "encode" and state == ResilienceState.ENCODED
        ):
            # No switch: plain in-state update.
            if state == ResilienceState.REPLICATED:
                yield from self._refresh_replicated(ent, client_name, payload)
            else:
                yield from self.rt.ingest_primary(ent, client_name, payload, store=False)
                yield from self.rt.update_encoded_entity(ent, payload, strategy=self.update_strategy)
            return

        # Switching states on the write path — the churn the paper calls out.
        self.rt.metrics.count("hybrid_switches")
        if desired == "replicate":
            if state == ResilienceState.ENCODED:
                from repro.core.runtime import DataLossError

                yield from self.rt.ingest_primary(ent, client_name, payload, store=False)
                try:
                    yield from self.rt.extract_from_stripe(ent)
                except DataLossError:
                    # Primary failed mid-switch: keep the stripe protection
                    # and apply the write as a plain encoded update instead.
                    yield from self.rt.update_encoded_entity(
                        ent, payload, strategy=self.update_strategy
                    )
                    return
                yield from self.rt.busy(
                    ent.primary, self.rt.costs.store_cost(int(payload.size)), "store"
                )
                if not self.rt.server(ent.primary).failed:
                    self.rt.server(ent.primary).store_bytes(primary_key(ent), payload)
                    ent.stored_version = ent.version
                yield from self.rt.replicate_entity(ent, payload)
            else:  # PENDING or NONE -> replicate directly
                if state == ResilienceState.PENDING_STRIPE:
                    # The switch decision overtakes the queued demotion;
                    # leaving the key queued would let a later flush encode
                    # a replicated entity.
                    self.rt.dequeue_pending(ent)
                yield from self.rt.ingest_primary(ent, client_name, payload)
                if ent.state == ResilienceState.ENCODED:
                    # An encoder popped the key before the dequeue and raced
                    # the ingest: keep the stripe protection and fold the
                    # write into the parity (replicate_entity rejects
                    # striped entities).
                    yield from self.rt.reconcile_encoded_member(ent)
                else:
                    yield from self.rt.replicate_entity(ent, payload)
        else:  # desired == "encode"
            yield from self.rt.ingest_primary(ent, client_name, payload)
            if state == ResilienceState.REPLICATED:
                # The entity keeps its replicas while pending; they must
                # carry this write's bytes too, or a balanced read could
                # serve the stale copy.
                yield from self.rt.refresh_replica_copies(ent, payload)
                yield from self._demote_to_encoded(ent)
            elif state == ResilienceState.NONE:
                self.rt.enqueue_for_encoding(ent)
                gid = self.rt.layout.coding_group_id(ent.primary)
                if self.rt.stripe_ready(gid):
                    yield from self.rt.encode_pending(gid)

    def on_step_end(self, step: int) -> Generator:
        for gid in range(self.rt.layout.n_coding_groups()):
            yield from self.rt.flush_pending(gid)

    def on_flush(self) -> Generator:
        for gid in range(self.rt.layout.n_coding_groups()):
            yield from self.rt.flush_pending(gid)
