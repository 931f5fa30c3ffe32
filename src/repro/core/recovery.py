"""Failure-recovery strategies (paper Section III-D, Figure 10).

Three modes:

- **lazy** (CoREC's contribution): after a replacement server joins, lost
  objects are repaired *on access* (the read path restores what it had to
  reconstruct anyway), and a background sweep with the paper's deadline
  of MTBF/4 (``DEADLINE_FRACTION``) repairs whatever was never touched.
  Before a replacement joins, reads run in *degraded mode* (reconstruct,
  serve, discard).
- **aggressive** (the baseline of existing resilient stores): the moment a
  failure is detected, every lost object is reconstructed onto surviving
  servers in one burst — fast repair, but the burst competes with
  application requests for CPU and NICs.
- **none**: no background repair; degraded reads only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.runtime import DataLossError, StagingRuntime, primary_key, replica_key
from repro.staging.objects import BlockEntity, ResilienceState, StripeInfo

__all__ = ["RecoveryConfig", "RecoveryManager"]

# Aggressive mode re-generates *everything at once* (paper Section III-D:
# "all lost objects are recovered and re-generated onto active servers
# immediately") — that burst is exactly what interferes with application
# requests, so it runs much wider than a lazy sweep.
AGGRESSIVE_PARALLELISM = 64
# The lazy sweep's deadline as a share of the MTBF: the paper's MTBF/4.
DEADLINE_FRACTION = 0.25


@dataclass
class RecoveryConfig:
    mode: str = "lazy"               # "lazy" | "aggressive" | "none"
    mtbf_s: float = 400.0
    repair_on_access: bool = True
    sweep_parallelism: int = 4       # concurrent repairs during a lazy sweep

    def __post_init__(self) -> None:
        if self.mode not in ("lazy", "aggressive", "none"):
            raise ValueError(f"unknown recovery mode {self.mode!r}")
        if self.mtbf_s <= 0:
            raise ValueError("MTBF must be > 0")
        if self.sweep_parallelism < 1:
            raise ValueError("sweep_parallelism must be >= 1")

    @property
    def deadline_s(self) -> float:
        return self.mtbf_s * DEADLINE_FRACTION


class RecoveryManager:
    """Schedules repair work in reaction to failures/replacements."""

    #: Breakdown categories for recovery sub-phases (wall-clock per phase).
    #: Only registered when tracing is on — they are trace-support data and
    #: must not change the default ``Metrics.breakdown`` shape.
    PHASE_CATEGORIES = ("recovery_sweep", "recovery_burst", "recovery_rebalance")

    def __init__(self, runtime: StagingRuntime, config: RecoveryConfig | None = None):
        self.rt = runtime
        self.config = config or RecoveryConfig()
        self.sweeps_started = 0
        self.sweeps_finished = 0
        if runtime.tracer.enabled:
            for cat in self.PHASE_CATEGORIES:
                runtime.metrics.register_category(cat)

    # ------------------------------------------------------------------
    # tracing helpers
    # ------------------------------------------------------------------
    def _phase(self, name: str, category: str, body: Generator, **attrs) -> Generator:
        """Wrap a recovery phase in a span that books its wall-clock time.

        With tracing off this is the identity: ``body`` is returned
        untouched.  With tracing on the phase runs under a ``name`` span and
        its elapsed time is both booked to the ``category`` breakdown (one
        of :data:`PHASE_CATEGORIES`) and stamped on the span as ``booked``,
        so phase spans reconcile with the breakdown like the leaf spans do.
        """
        tracer = self.rt.tracer
        if not tracer.enabled:
            return body
        return tracer.traced(name, self._timed(category, body), category=category, **attrs)

    def _timed(self, category: str, body: Generator) -> Generator:
        t0 = self.rt.sim.now
        try:
            result = yield from body
        finally:
            dt = self.rt.sim.now - t0
            self.rt.metrics.add_time(category, dt)
            self.rt.tracer.annotate(booked=dt)
        return result

    # ------------------------------------------------------------------
    @property
    def repair_on_access(self) -> bool:
        return self.config.repair_on_access and self.config.mode != "none"

    def on_server_failed(self, sid: int) -> None:
        if self.config.mode == "aggressive":
            self.rt.sim.process(
                self._phase(
                    "recovery.burst", "recovery_burst", self._aggressive_recover(sid),
                    server=sid,
                ),
                name=f"aggr-recover-{sid}",
            )

    def on_server_replaced(self, sid: int) -> None:
        if self.config.mode == "lazy":
            self.rt.sim.process(
                self._phase(
                    "recovery.sweep", "recovery_sweep", self._lazy_sweep(sid),
                    server=sid,
                ),
                name=f"lazy-sweep-{sid}",
            )
        elif self.config.mode == "aggressive":
            # Aggressive already moved primaries to survivors at failure
            # time; the replacement only needs missing replicas/parities.
            self.rt.sim.process(
                self._phase(
                    "recovery.refill", "recovery_sweep",
                    self._repair_missing_on(sid, delay=0.0), server=sid,
                ),
                name=f"aggr-refill-{sid}",
            )
        if self.config.mode != "none":
            # Restore failure independence immediately: while a server was
            # down, redirected writes / survivor recovery may have doubled
            # stripe shards onto one server; the doubled shards migrate to
            # the replacement now (a small, bounded transfer set), closing
            # the window in which a second failure could take two shards of
            # one stripe at once.
            self.rt.sim.process(
                self._phase(
                    "recovery.rebalance", "recovery_rebalance",
                    self._rebalance_onto(sid), server=sid,
                ),
                name=f"rebalance-{sid}",
            )

    # ------------------------------------------------------------------
    # work enumeration
    # ------------------------------------------------------------------
    # Each enumeration reads the directory's reverse indexes, so a sweep
    # visits only the failed server's records (O(affected), not
    # O(directory)); the index accessors return insertion order, matching
    # what the old full scans produced.
    def _lost_primaries(self, sid: int) -> list[BlockEntity]:
        out = []
        for ent in self.rt.directory.entities_on_server(sid):
            if ent.version < 0:
                continue
            if not self.rt.server(sid).has(primary_key(ent)):
                out.append(ent)
        return out

    def _lost_replicas(self, sid: int) -> list[BlockEntity]:
        out = []
        for ent in self.rt.directory.replicas_on_server(sid):
            # Pending entities keep their pre-demotion replicas as their
            # only protection, so their copies are repaired too.  Encoded
            # entities may also hold leftover copies (drifted members); the
            # stripe protects those, so their replicas are not repaired.
            if ent.state not in (
                ResilienceState.REPLICATED,
                ResilienceState.PENDING_STRIPE,
            ):
                continue
            if not self.rt.server(sid).has(replica_key(ent)):
                out.append(ent)
        return out

    def _lost_parities(self, sid: int) -> list[tuple[StripeInfo, int]]:
        out = []
        for stripe in self.rt.directory.stripes_on_server(sid):
            for j, psid in enumerate(stripe.parity_servers):
                if psid == sid and not self.rt.server(sid).has(stripe.shard_key(stripe.k + j)):
                    out.append((stripe, stripe.k + j))
        return out

    # ------------------------------------------------------------------
    # lazy sweep
    # ------------------------------------------------------------------
    def _lazy_sweep(self, sid: int) -> Generator:
        """Wait out the deadline, then repair anything still missing."""
        self.sweeps_started += 1
        if self.config.deadline_s > 0:
            yield self.rt.sim.timeout(self.config.deadline_s)
        yield from self._repair_all_missing(sid)
        self.sweeps_finished += 1

    def _repair_missing_on(self, sid: int, delay: float) -> Generator:
        if delay > 0:
            yield self.rt.sim.timeout(delay)
        yield from self._repair_all_missing(sid)

    def _repair_all_missing(self, sid: int) -> Generator:
        if self.rt.server(sid).failed:
            return  # failed again before the sweep ran
        tasks = []
        decode_stripes = []
        for ent in self._lost_primaries(sid):
            tasks.append(self._primary_repair_task(ent, sid))
            if ent.stripe is not None:
                decode_stripes.append(ent.stripe)
        for ent in self._lost_replicas(sid):
            tasks.append(self._replica_repair_task(ent, sid))
        for stripe, idx in self._lost_parities(sid):
            tasks.append(self._parity_repair_task(stripe, idx, sid))
            decode_stripes.append(stripe)
        self._warm_decode_matrices(decode_stripes)
        yield from self._run_limited(tasks)

    # ------------------------------------------------------------------
    # per-task dispatch guards
    #
    # The sweep checks ``server(sid).failed`` once at entry, but a sweep
    # runs for a long time: the target can fail again while earlier
    # batches are still in flight.  Each task body therefore re-checks the
    # destination when its process actually starts (generator bodies run
    # lazily) and, if the target is down, requeues the repair onto a
    # survivor — mirroring the ``dst.failed`` guard in
    # ``_move_primary_locked`` and the survivor selection of aggressive
    # recovery.  A failure landing *mid-repair* surfaces as DataLossError
    # from the runtime's own dst guards; that is retried the same way.
    # ------------------------------------------------------------------
    def _primary_repair_task(self, ent: BlockEntity, sid: int) -> Generator:
        if not self.rt.server(sid).failed:
            try:
                yield from self.rt.recover_primary(ent)
                return
            except DataLossError:
                if not self.rt.server(sid).failed:
                    raise  # genuine loss, not a mid-repair target death
        if ent.primary != sid:
            return  # already rehomed by another flow
        onto = self._pick_survivor(ent, exclude=sid)
        if onto is None:
            raise DataLossError(f"no survivor to host {ent.key}")
        self.rt.metrics.count("repair_requeues")
        yield from self.rt.recover_primary(ent, onto=onto)

    def _replica_repair_task(self, ent: BlockEntity, sid: int) -> Generator:
        if not self.rt.server(sid).failed:
            yield from self.rt.recover_replica(ent, sid)
            if not self.rt.server(sid).failed:
                return
            # fell over mid-repair: the store above was skipped by the
            # runtime's dst guard, so fall through and re-home the copy.
        if sid not in ent.replicas:
            return
        group = self.rt.layout.replication_group(ent.primary)
        candidates = [
            t
            for t in group
            if t != ent.primary and t != sid and self.rt.alive(t) and t not in ent.replicas
        ]
        if not candidates:
            return  # replica stays owed to the failed server's replacement
        target = candidates[0]
        ent.replicas = [r for r in ent.replicas if r != sid] + [target]
        self.rt.metrics.count("repair_requeues")
        yield from self.rt.recover_replica(ent, target)

    def _parity_repair_task(self, stripe: StripeInfo, idx: int, sid: int) -> Generator:
        if not self.rt.server(sid).failed:
            yield from self.rt.recover_parity(stripe, idx)
            if not self.rt.server(sid).failed:
                return
            # mid-repair death: the runtime skipped the store; re-home it.
        if stripe.stripe_id not in self.rt.directory.stripes:
            return
        if stripe.parity_servers[idx - stripe.k] != sid:
            return  # already rehomed by another flow
        onto = self._pick_parity_survivor(stripe, exclude=sid)
        if onto is None:
            return  # nowhere alive to put it; the replacement will refill
        self.rt.metrics.count("repair_requeues")
        yield from self.rt.recover_parity(stripe, idx, onto=onto)

    def _warm_decode_matrices(self, stripes: list[StripeInfo]) -> None:
        """Batch-build the decode matrices a repair burst is about to need.

        One pure-compute pass over the distinct erasure patterns turns every
        per-repair Gauss-Jordan inversion into an LRU hit.  Host-side only:
        no simulator events, so traces and metrics are untouched; patterns
        that shift before a repair runs merely cost an unused cache entry.
        """
        patterns = {
            pattern
            for stripe in stripes
            if (pattern := self.rt.stripe_survivor_pattern(stripe)) is not None
        }
        if patterns:
            self.rt.codec.code.warm_decode_cache(patterns)

    def _run_limited(self, tasks: list, width: int | None = None) -> Generator:
        """Run repair generators with bounded parallelism."""
        from repro.sim.engine import AllOf

        tracer = self.rt.tracer
        # Repair tasks run as sibling processes, outside the phase span's
        # dynamic scope — anchor each task span to the phase explicitly so
        # the reconstruct/transfer spans inside parent under the phase.
        parent = tracer.current
        width = width or self.config.sweep_parallelism
        for i in range(0, len(tasks), width):
            procs = [
                self.rt.sim.process(
                    tracer.traced(
                        "recovery.task", self._guarded(t), category="recovery", parent=parent
                    )
                )
                for t in tasks[i : i + width]
            ]
            yield AllOf(self.rt.sim, procs)

    def _guarded(self, gen) -> Generator:
        """Swallow unrecoverable-object errors so one loss doesn't abort a sweep."""
        try:
            yield from gen
        except DataLossError:
            self.rt.metrics.count("unrecoverable_objects")

    # ------------------------------------------------------------------
    # shard rebalancing after a replacement joins
    # ------------------------------------------------------------------
    def _rebalance_onto(self, sid: int) -> Generator:
        """Migrate displaced stripe shards onto the replaced server.

        Two kinds of displacement accumulate while a server is down:
        *doubling* (two shards of one stripe on one server — only possible
        when every alive server already held a shard) and *off-group*
        placement (survivor recovery put a shard outside the stripe's
        coding group).  Both shrink the set of tolerable future failures,
        so the replacement absorbs one displaced shard per affected stripe.
        """
        group = set(self.rt.layout.coding_group(sid))
        tasks = []
        # Candidates come from the reverse index: exactly the stripes with a
        # shard on some group member (ascending id = directory insertion
        # order, the order the old full scan walked).
        directory = self.rt.directory
        candidate_ids = sorted(
            set().union(*(directory.stripes_by_server.get(s, set()) for s in group))
        ) if group else []
        directory.op_stats["stripe_touches"] += len(candidate_ids)
        for stripe_id in candidate_ids:
            stripe = directory.stripes.get(stripe_id)
            if stripe is None:
                continue
            holders = stripe.holders(vacant=True)
            servers = {server for _, server in holders}
            if sid in servers:
                continue
            if not (group & servers):
                continue  # another group's stripe
            move_slot = None
            seen: set[int] = set()
            for i, server in holders:
                if server in seen:
                    move_slot = i  # doubled shard
                    break
                seen.add(server)
            if move_slot is None:
                # Data shards belong on group members; parity belongs in the
                # placement mode's allowed universe (which is exactly the
                # group under grouped mode, but includes the coding-sets
                # menu / the whole cluster under the other modes — parity
                # legitimately living there must not be pulled in-group).
                allowed = self.rt.layout.allowed_stripe_servers(stripe.group_id)
                for i, server in holders:
                    if server not in group and (i < stripe.k or server not in allowed):
                        move_slot = i  # displaced shard
                        break
            if move_slot is None:
                continue
            if move_slot < stripe.k:
                mk = stripe.members[move_slot]
                if mk is None:
                    stripe.retarget_shard(move_slot, sid)  # vacant: pure metadata
                    self.rt.metrics.count("rebalanced_shards")
                    continue
                ent = self.rt.directory.entities[mk]
                tasks.append(self._move_primary(ent, stripe, move_slot, sid))
            else:
                tasks.append(self._move_parity(stripe, move_slot, sid))
        yield from self._run_limited(tasks)
        if tasks:
            self.rt.metrics.count("rebalanced_shards", len(tasks))

    def _move_primary(self, ent: BlockEntity, stripe: StripeInfo, slot: int, onto: int) -> Generator:
        """Migrate an entity's primary copy to ``onto``; its stripe slot follows."""
        yield from self.rt.with_entity_lock(
            ent.key, self._move_primary_locked(ent, stripe, slot, onto)
        )

    def _move_primary_locked(self, ent: BlockEntity, stripe: StripeInfo, slot: int, onto: int) -> Generator:
        if stripe.members[slot] != ent.key or ent.primary == onto:
            return  # changed while we waited
        src = self.rt.server(ent.primary)
        dst = self.rt.server(onto)
        if dst.failed:
            return
        key = primary_key(ent)
        if not src.has(key):
            yield from self.rt._recover_primary_locked(ent, onto=onto)
            return
        payload, version = src.fetch_bytes(key), src.version_of(key)
        yield from self.rt.transfer(src.name, dst.name, ent.nbytes, "recovery")
        yield from self.rt.busy(onto, self.rt.costs.store_cost(ent.nbytes), "recovery")
        if dst.failed or stripe.members[slot] != ent.key:
            return
        dst.store_bytes(key, payload, version)
        if not src.failed:
            src.delete_bytes(key)
        ent.primary = onto
        yield from self.rt.metadata_update(ent, onto)

    def _move_parity(self, stripe: StripeInfo, idx: int, onto: int) -> Generator:
        yield from self.rt.with_stripe_lock(
            stripe.stripe_id, self._move_parity_locked(stripe, idx, onto)
        )

    def _move_parity_locked(self, stripe: StripeInfo, idx: int, onto: int) -> Generator:
        old_sid = stripe.parity_servers[idx - stripe.k]
        old_srv = self.rt.server(old_sid)
        key = stripe.shard_key(idx)
        if old_srv.has(key):
            yield from self.rt.transfer(old_srv.name, self.rt.server(onto).name, stripe.shard_len, "recovery")
            yield from self.rt.busy(onto, self.rt.costs.store_cost(stripe.shard_len), "recovery")
            dst = self.rt.server(onto)
            # Re-fetch at the application instant: the stripe lock kept
            # parity updates out, but the source may have died meanwhile.
            if not dst.failed and old_srv.has(key):
                dst.store_bytes(key, old_srv.fetch_bytes(key))
                old_srv.delete_bytes(key)
                stripe.retarget_shard(idx, onto)
        else:
            yield from self.rt._recover_parity_locked(stripe, idx, onto)

    # ------------------------------------------------------------------
    # aggressive recovery
    # ------------------------------------------------------------------
    def _aggressive_recover(self, sid: int) -> Generator:
        """Reconstruct everything lost on ``sid`` onto survivors, now."""
        tasks = []
        decode_stripes = []
        for ent in self._lost_primaries(sid):
            onto = self._pick_survivor(ent, exclude=sid)
            if onto is None:
                self.rt.metrics.count("unrecoverable_objects")
                continue
            if ent.state == ResilienceState.REPLICATED and ent.replicas:
                tasks.append(self._promote_replica(ent, sid))
            else:
                tasks.append(self.rt.recover_primary(ent, onto=onto))
                if ent.stripe is not None:
                    decode_stripes.append(ent.stripe)
        for ent in self._lost_replicas(sid):
            # Re-replicate onto another live member of the replication
            # group when one exists; otherwise the replica remains owed to
            # the failed server and is refilled at replacement time.
            group = self.rt.layout.replication_group(ent.primary)
            candidates = [
                t
                for t in group
                if t != ent.primary and t != sid and self.rt.alive(t) and t not in ent.replicas
            ]
            if candidates:
                target = candidates[0]
                ent.replicas = [r for r in ent.replicas if r != sid] + [target]
                tasks.append(self.rt.recover_replica(ent, target))
        for stripe, idx in self._lost_parities(sid):
            onto = self._pick_parity_survivor(stripe, exclude=sid)
            if onto is not None:
                tasks.append(self.rt.recover_parity(stripe, idx, onto=onto))
                decode_stripes.append(stripe)
        self._warm_decode_matrices(decode_stripes)
        yield from self._run_limited(tasks, width=AGGRESSIVE_PARALLELISM)

    def _promote_replica(self, ent: BlockEntity, dead_sid: int) -> Generator:
        """Promote a live replica to primary, then restore replica count.

        Runs under the entity lock (state mutation + replica repair).
        """
        yield from self.rt.with_entity_lock(
            ent.key, self._promote_replica_locked(ent, dead_sid)
        )

    def _promote_replica_locked(self, ent: BlockEntity, dead_sid: int) -> Generator:
        live = [r for r in ent.replicas if self.rt.server(r).has(replica_key(ent))]
        if not live:
            onto = self._pick_survivor(ent, dead_sid)
            if onto is None:
                raise DataLossError(f"no survivor to host {ent.key}")
            yield from self.rt._recover_primary_locked(ent, onto=onto)
            return
        new_primary = live[0]
        self.rt.promote_replica(ent, new_primary)
        ent.replicas = [
            r for r in ent.replicas if r != new_primary and self.rt.alive(r)
        ]
        self.rt.metrics.count("replica_promotions")
        # Restore the replica count on another live group member.
        targets = [
            t
            for t in self.rt.layout.replica_targets(new_primary)
            if t != dead_sid and self.rt.alive(t)
        ]
        if targets:
            ent.replicas = targets[: self.rt.layout.n_level]
            for t in ent.replicas:
                yield from self.rt._recover_replica_locked(ent, t)
        yield from self.rt.metadata_update(ent, new_primary)

    def _pick_survivor(self, ent: BlockEntity, exclude: int) -> int | None:
        """An alive server to host the reconstructed primary.

        Servers already holding a shard of the entity's stripe are avoided
        (preserving the one-shard-per-server failure independence), looking
        first inside the coding group, then cluster-wide; only if every
        alive server already holds a shard do we accept doubling up.
        """
        occupied = (
            {s for _, s in ent.stripe.holders(vacant=True)} if ent.stripe is not None else set()
        )
        group = self.rt.layout.coding_group(ent.primary)
        tiers = (
            [s for s in group if s != exclude and self.rt.alive(s) and s not in occupied],
            [
                s
                for s in range(len(self.rt.servers))
                if s != exclude and self.rt.alive(s) and s not in occupied
            ],
            [s for s in group if s != exclude and self.rt.alive(s)],
            [s for s in range(len(self.rt.servers)) if s != exclude and self.rt.alive(s)],
        )
        for tier in tiers:
            if tier:
                return min(tier, key=lambda s: (self.rt.server(s).workload_level(), s))
        return None

    def _pick_parity_survivor(self, stripe: StripeInfo, exclude: int) -> int | None:
        # Mode-aware preference order: under coding_sets the group's parity
        # menu comes first, so repairs keep every stripe inside its allowed
        # server sets; grouped/spread prefer the group members as before.
        preferred = self.rt.layout.parity_candidates(stripe.group_id)
        named = {s for _, s in stripe.holders(vacant=True)}
        tiers = (
            [s for s in preferred if s != exclude and self.rt.alive(s) and s not in named],
            [
                s
                for s in range(len(self.rt.servers))
                if s != exclude and self.rt.alive(s) and s not in named
            ],
            [s for s in preferred if s != exclude and self.rt.alive(s)],
        )
        for tier in tiers:
            if tier:
                return tier[0]
        return None
