"""The CoREC policy: classification-driven hybrid resilience.

Ties together every mechanism of the paper:

- **online hot/cold classification** (Section II-C) via
  :class:`~repro.core.classifier.HotColdClassifier` — recency, spatial
  neighbourhood promotion and multi-timestep temporal lookahead;
- **hot data replicated, cold data erasure coded**, under the
  storage-efficiency lower bound ``S``: when replication overhead pushes
  efficiency below ``S``, the replicated entities with the lowest access
  frequency are demoted to erasure coding; encoded entities with the
  highest access frequency are promoted back when headroom exists
  (Section II-C, last paragraph);
- **asynchronous transitions through the encoding-token workflow**
  (Section III-B): demotions run in background processes, serialized per
  replication group by the token and executed on the group's least-loaded
  member, keeping encodes off the write path and away from busy servers;
- **delta parity updates** for writes that land on (still-)cold entities;
- **lazy recovery** with the MTBF/4 deadline (Section III-D).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.core.classifier import ClassifierConfig, HotColdClassifier
from repro.core.policies import ResiliencePolicy
from repro.core.recovery import RecoveryConfig
from repro.core.runtime import StagingRuntime
from repro.core.tokens import EncodingTokenManager
from repro.staging.objects import BlockEntity, ResilienceState

__all__ = ["CoRECConfig", "CoRECPolicy"]

# Hysteresis band below the storage bound: inside it only entities not
# currently classified hot are demoted.
STORAGE_BOUND_SLACK = 0.04
MAX_DEMOTIONS_PER_ENFORCEMENT = 2  # smooths transition bursts
SWAP_REF_MARGIN = 2  # min access-frequency gap to justify a pool swap


@dataclass
class CoRECConfig:
    """Tunables of the CoREC policy.

    ``storage_bound`` is the paper's storage-efficiency constraint S (a
    lower bound on original/(original+redundant); 0.67 in Table I).
    ``tokens_enabled=False`` disables the load-balancing token (an
    ablation).
    """

    storage_bound: float = 0.67
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    update_strategy: str = "delta"
    tokens_enabled: bool = True
    promote_on_access: bool = True
    max_promotions_per_step: int = 8
    # "global" (default) enforces S over the whole deployment's byte
    # counts; "group" enforces it per coding group, with demotion victims
    # drawn from the violating group only.  Group scope makes every
    # enforcement decision a pure function of one coding group's state,
    # which is what lets a sharded cluster (one process per group subset)
    # reproduce a single process byte-identically — each shard sees
    # exactly its groups' entities and reaches exactly the same verdicts.
    enforcement_scope: str = "global"
    recovery: RecoveryConfig = field(default_factory=lambda: RecoveryConfig(mode="lazy"))


class CoRECPolicy(ResiliencePolicy):
    """Hot/cold-classified hybrid replication + erasure coding."""

    name = "corec"

    def __init__(self, config: CoRECConfig | None = None):
        cfg = config or CoRECConfig()
        super().__init__(recovery=cfg.recovery)
        self.config = cfg
        self.classifier: HotColdClassifier | None = None
        self.tokens: EncodingTokenManager | None = None
        self._promotion_bytes_in_flight = 0

    def attach(self, runtime: StagingRuntime) -> None:
        super().attach(runtime)
        self.classifier = HotColdClassifier(runtime.directory.domain, self.config.classifier)
        self.tokens = EncodingTokenManager(
            runtime.sim,
            runtime.layout.n_replication_groups(),
            runtime.servers,
            enabled=self.config.tokens_enabled,
        )

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def on_write(self, ent: BlockEntity, client_name, payload, step, is_new) -> Generator:
        rt = self.rt
        # Classification decision (charged to the primary server; only the
        # decision itself is booked as classify time, per Figure 9).
        yield from rt.busy(ent.primary, rt.costs.classify_op_s, "classify", charge_wait=False)
        was_protected_hot = ent.state == ResilienceState.REPLICATED or is_new
        self.classifier.record_write(ent.key, step, was_hot=was_protected_hot)

        if is_new or ent.state in (ResilienceState.NONE,):
            # Newly written objects are hot by definition: replicate.
            yield from rt.ingest_primary(ent, client_name, payload)
            yield from rt.replicate_entity(ent, payload)
        elif ent.state == ResilienceState.REPLICATED:
            yield from self._refresh_replicated(ent, client_name, payload)
        elif ent.state == ResilienceState.PENDING_STRIPE:
            yield from rt.ingest_primary(ent, client_name, payload)
            if ent.state == ResilienceState.ENCODED:
                # An encoder raced the ingest: the stripe snapshot predates
                # this write and the replica copies are gone — fold the new
                # bytes into the parity or they are protected nowhere.
                yield from rt.reconcile_encoded_member(ent)
            elif ent.replicas:
                # Still protected by its pre-demotion copies: keep them fresh.
                yield from rt.refresh_replica_copies(ent, payload)
        else:  # ENCODED: a classifier miss — cold data got written.
            self.rt.metrics.count("cold_writes")
            yield from rt.ingest_primary(ent, client_name, payload, store=False)
            yield from rt.update_encoded_entity(ent, payload, strategy=self.config.update_strategy)
            if self.config.promote_on_access and self.classifier.is_hot(ent.key, step):
                self._maybe_schedule_promotion(ent)

        self._enforce_storage_bound(step=step, ent=ent)

    # ------------------------------------------------------------------
    # storage-bound enforcement: demote coldest replicated entities
    # ------------------------------------------------------------------
    def _enforce_storage_bound(
        self, step: int | None = None, ent: BlockEntity | None = None
    ) -> None:
        """Demote the coldest replicated entities until the bound holds.

        Hysteresis: within ``STORAGE_BOUND_SLACK`` below the bound, only
        entities *not currently classified hot* are eligible — demoting hot
        data there would immediately bounce back as a promotion (thrash).
        Under a hard violation (below bound - slack), anything goes, which
        is the paper's "objects are erasure coded irrespective of their
        classification" regime.

        Group scope: ``ent`` names the entity whose write triggered the
        check (only its coding group is enforced); with no entity (the
        step barrier) every group is enforced in ascending id order.
        """
        if self.config.enforcement_scope != "group":
            scopes = [None]
        elif ent is not None:
            scopes = [self._group_of(ent)]
        else:
            scopes = range(self.rt.layout.n_coding_groups())
        bound = self.config.storage_bound
        for gid in scopes:
            scheduled = 0
            projected_replica = 0
            while scheduled < MAX_DEMOTIONS_PER_ENFORCEMENT:
                eff = self._efficiency(gid, d_replica=-projected_replica)
                if eff >= bound:
                    break
                soft = eff >= bound - STORAGE_BOUND_SLACK
                victim = self._coldest_replicated(exclude_hot=soft, step=step, group=gid)
                if victim is None:
                    break
                # Account the in-flight demotion so we don't over-demote.
                projected_replica += victim.nbytes * len(victim.replicas)
                self._schedule_demotion(victim)
                scheduled += 1

    # -- enforcement scope ---------------------------------------------
    def _group_of(self, ent: BlockEntity) -> int:
        return self.rt.layout.coding_group_id(ent.primary)

    def _scope_of(self, ent: BlockEntity) -> int | None:
        """What ``ent`` is accounted against: its coding group under group
        scope, ``None`` (the whole deployment) otherwise."""
        return self._group_of(ent) if self.config.enforcement_scope == "group" else None

    def _group_storage(self, gid: int) -> tuple[int, int, int]:
        """(original, replica, parity) bytes attributable to one group.

        Computed from the directory's reverse indexes, so a shard that
        holds only this group's records computes exactly what a full
        directory would: entities charge their coding group (redirects
        never cross groups), stripes carry their group id.
        """
        d = self.rt.directory
        original = replica = parity = 0
        for sid in self.rt.layout.coding_group_members(gid):
            for key in d.entities_by_primary.get(sid, ()):
                e = d.entities[key]
                if e.version >= 0:
                    original += e.nbytes
                replica += e.nbytes * len(e.replicas)
        for stripe in d.stripes.values():
            if stripe.group_id == gid:
                parity += stripe.m * stripe.shard_len
        return original, replica, parity

    def _efficiency(self, gid: int | None, d_replica: int = 0) -> float:
        """Storage efficiency of coding group ``gid`` (``None``: of the
        whole deployment) after a hypothetical change in replica bytes."""
        if gid is None:
            return self.rt.metrics.storage.would_be_efficiency(d_replica=d_replica)
        original, replica, parity = self._group_storage(gid)
        total = original + replica + d_replica + parity
        return original / total if total else 1.0

    def _coldest_replicated(
        self,
        exclude_hot: bool = False,
        step: int | None = None,
        group: int | None = None,
    ) -> BlockEntity | None:
        best: BlockEntity | None = None
        # The state set holds exactly the replicated entities, in directory
        # insertion order — the same candidates (and tie-breaks) the old
        # whole-directory walk produced, at O(replicated) cost.
        for ent in self.rt.directory.entities_in_state(ResilienceState.REPLICATED):
            if ent.transition_in_flight:
                continue
            if group is not None and self._group_of(ent) != group:
                continue
            if exclude_hot and step is not None and self.classifier.is_hot(ent.key, step):
                continue
            if best is None or (ent.ref_counter, ent.last_write_step, ent.block_id) < (
                best.ref_counter,
                best.last_write_step,
                best.block_id,
            ):
                best = ent
        return best

    # ------------------------------------------------------------------
    # asynchronous transitions via the token workflow
    # ------------------------------------------------------------------
    def _schedule_demotion(self, ent: BlockEntity) -> None:
        ent.transition_in_flight = True
        self.rt.metrics.count("demotions_scheduled")
        self.rt.sim.process(self._demotion_process(ent), name=f"demote-{ent.name}-{ent.block_id}")

    def _demotion_process(self, ent: BlockEntity) -> Generator:
        from repro.core.runtime import DataLossError

        rt = self.rt
        try:
            if ent.state != ResilienceState.REPLICATED:
                return
            group_id = rt.layout.replication_group_id(ent.primary)
            candidates = [ent.primary] + list(ent.replicas)

            def work(executor: int) -> Generator:
                # State is re-checked under the entity lock inside
                # _demote_to_encoded (a write may have raced us here).
                yield from rt.with_entity_lock(
                    ent.key, self._demote_to_encoded(ent, executor=executor)
                )

            yield from self.tokens.run_encode(group_id, candidates, ent.primary, work)
        except DataLossError:
            # A server died mid-demotion; the entity either kept its
            # replicas (still protected) or the loss will surface on read.
            rt.metrics.count("demotions_aborted")
        finally:
            ent.transition_in_flight = False

    def _has_headroom(self, ent: BlockEntity) -> bool:
        # Include promotions already in flight so concurrent promotions
        # don't all pass the same headroom check and overshoot the bound.
        extra = ent.nbytes * self.rt.layout.n_level + self._promotion_bytes_in_flight
        return self._efficiency(self._scope_of(ent), d_replica=extra) >= self.config.storage_bound

    def _maybe_schedule_promotion(self, ent: BlockEntity) -> None:
        """Queue a cold->hot transition.

        If the storage bound leaves no headroom, the promotion process first
        demotes a strictly colder replicated entity to make room (the
        paper's pool exchange: the hottest encoded object trades places with
        the coldest replicated one); if no colder victim exists the entity
        stays encoded despite being hot.
        """
        ent.transition_in_flight = True
        self._promotion_bytes_in_flight += ent.nbytes * self.rt.layout.n_level
        self.rt.metrics.count("promotions_scheduled")
        self.rt.sim.process(self._promotion_process(ent), name=f"promote-{ent.name}-{ent.block_id}")

    def _promotion_process(self, ent: BlockEntity) -> Generator:
        rt = self.rt
        # Own reservation moves from "queued" to "active": the headroom
        # check below re-adds this entity's bytes explicitly.
        self._promotion_bytes_in_flight -= ent.nbytes * rt.layout.n_level
        try:
            if ent.state != ResilienceState.ENCODED:
                return
            if not self._has_headroom(ent):
                victim = self._coldest_replicated(group=self._scope_of(ent))
                # A swap must be clearly profitable: demanding a minimum
                # access-frequency gap prevents ping-pong between equally
                # hot objects (the uniform-hotness regime of case 1).
                if victim is None or victim.ref_counter + SWAP_REF_MARGIN > ent.ref_counter:
                    return  # nothing clearly colder to displace: stay encoded
                self.rt.metrics.count("swap_demotions")
                victim.transition_in_flight = True
                try:
                    group_id = rt.layout.replication_group_id(victim.primary)
                    candidates = [victim.primary] + list(victim.replicas)

                    def work(executor: int) -> Generator:
                        yield from rt.with_entity_lock(
                            victim.key, self._demote_to_encoded(victim, executor=executor)
                        )

                    yield from self.tokens.run_encode(
                        group_id, candidates, victim.primary, work
                    )
                finally:
                    victim.transition_in_flight = False
                if not self._has_headroom(ent):
                    return
            # State is re-checked inside _promote_to_replicated once the
            # entity lock is held.
            from repro.core.runtime import DataLossError

            try:
                yield from rt.with_entity_lock(ent.key, self._promote_to_replicated(ent))
            except DataLossError:
                # Primary died mid-promotion; the entity kept its stripe
                # protection, so just abandon the transition.
                rt.metrics.count("promotions_aborted")
        finally:
            ent.transition_in_flight = False

    # ------------------------------------------------------------------
    # step barrier: lookahead promotions + flush stragglers
    # ------------------------------------------------------------------
    def on_step_end(self, step: int) -> Generator:
        self.classifier.advance(step)
        # Settle the storage bound at the barrier (writes may have left
        # promotions/demotions imbalanced).
        self._enforce_storage_bound(step=step)
        # Proactive cold->hot conversions: encoded entities the temporal
        # lookahead predicts will be written in the next step(s).
        if self.config.promote_on_access:
            promoted = 0
            for ent in self.rt.directory.entities_in_state(ResilienceState.ENCODED):
                if promoted >= self.config.max_promotions_per_step:
                    break
                if ent.transition_in_flight:
                    continue
                if self.classifier.predicted_hot(ent.key, step + 1):
                    self._maybe_schedule_promotion(ent)
                    promoted += 1
        # Protect any entity still waiting for a stripe, then reclaim the
        # parity of promoted-out slots.
        for gid in range(self.rt.layout.n_coding_groups()):
            if self.rt.stripe_ready(gid):
                yield from self.rt.encode_pending(gid)
            yield from self.rt.compact_group(gid)

    def on_flush(self) -> Generator:
        for gid in range(self.rt.layout.n_coding_groups()):
            yield from self.rt.flush_pending(gid)

    # ------------------------------------------------------------------
    def miss_ratio(self) -> float:
        """Observed classifier miss ratio (the model's r_m)."""
        return self.classifier.miss_ratio() if self.classifier else 0.0
