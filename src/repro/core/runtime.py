"""Shared staged-data flows executed on the simulator.

``StagingRuntime`` is the single place where the *mechanics* of resilience
live: replication, stripe formation, parity maintenance, degraded reads and
object recovery.  Policies (:mod:`repro.core.policies`,
:mod:`repro.core.hybrid`, :mod:`repro.core.corec`) differ only in *when*
they invoke these flows; the flows themselves — which transfers happen,
which server burns CPU, which bytes land where — are common, so the
baselines and CoREC are compared on identical mechanics.

Store-key layout on servers:

- ``P/<name>/<block>``    — the primary copy of an entity (also the data
  shard of its stripe, padded implicitly: systematic code);
- ``R/<name>/<block>``    — a replica copy;
- ``stripe<id>/shard<i>`` — a parity shard (only parities are materialized
  separately).

Concurrency discipline (the paper's "data/parity object consistency
mechanism", Section III-B):

- every write/read/transition of an entity holds that entity's **lock**;
- every stripe mutation or reconstruction holds the stripe's **lock**;
- lock order is always entity -> stripe -> simulator resources, so the
  wait-for graph is acyclic;
- within a stripe operation, costs (transfers, CPU) are charged first and
  all byte/state mutations are applied at a single simulation instant, so
  a stripe is never observed half-updated.

All flows are generator process-bodies: they ``yield`` simulator events and
must be driven with ``yield from`` inside a simulator process.
"""

from __future__ import annotations

from typing import Callable, Generator, Sequence

import numpy as np

from repro.core.backend import Clock, Transport
from repro.erasure.gf256 import GF256
from repro.erasure.reedsolomon import StripeCodec
from repro.obs.tracer import Tracer
from repro.sim.resources import Resource
from repro.staging.metadata import MetadataDirectory
from repro.staging.objects import BlockEntity, ResilienceState, StripeInfo
from repro.staging.server import StagingServer
from repro.core.metrics import Metrics
from repro.core.placement import GroupLayout

__all__ = ["StagingRuntime", "DataLossError", "primary_key", "replica_key"]

EntityKey = tuple[str, int]


class DataLossError(RuntimeError):
    """Raised when staged data cannot be served or reconstructed."""


def primary_key(ent: BlockEntity) -> str:
    return f"P/{ent.name}/{ent.block_id}"


def replica_key(ent: BlockEntity) -> str:
    return f"R/{ent.name}/{ent.block_id}"


class StagingRuntime:
    """Mechanics shared by every resilience policy."""

    def __init__(
        self,
        sim: Clock,
        network: Transport,
        servers: Sequence[StagingServer],
        directory: MetadataDirectory,
        layout: GroupLayout,
        metrics: Metrics,
        codec: StripeCodec,
        tracer: Tracer,
    ):
        self.sim = sim
        self.network = network
        self.servers = list(servers)
        self.directory = directory
        self.layout = layout
        self.metrics = metrics
        self.codec = codec
        self.tracer = tracer
        self.costs = self.servers[0].costs
        # Host-compute hook.  ``None`` (the simulator default) runs numeric
        # work inline with zero extra events, so sim traces and goldens are
        # untouched.  The live backend installs ``LiveEngine.inline``,
        # ``(fn, category) -> Event``: it runs ``fn`` on the loop and, with
        # tracing on, charges the time to ``category``.
        self.compute_hook: Callable[[Callable[[], object], str], object] | None = None
        self._entity_locks: dict[EntityKey, Resource] = {}
        self._stripe_locks: dict[int, Resource] = {}

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def server(self, sid: int) -> StagingServer:
        return self.servers[sid]

    def alive(self, sid: int) -> bool:
        return not self.servers[sid].failed

    # The three ``Metrics.add_time`` call sites below are the *leaf* spans
    # of the trace: each stamps a ``booked`` attribute with the exact
    # duration it charged to the breakdown, so summing leaf spans per
    # category (``repro.obs.export.spans_to_breakdown``) reproduces
    # ``Metrics.breakdown`` and the trace is provably reconciled with the
    # aggregate metrics.  All tracing is guarded on ``tracer.enabled`` so
    # the default (null-tracer) hot path does no extra work.

    def transfer(self, src: str, dst: str, nbytes: int, category: str = "transport") -> Generator:
        tracer = self.tracer
        span = (
            tracer.begin("transport", category=category, src=src, dst=dst, nbytes=int(nbytes))
            if tracer.enabled
            else None
        )
        dur = yield from self.network.transfer(src, dst, nbytes)
        self.metrics.add_time(category, dur)
        if span is not None:
            tracer.end(span, booked=dur)
        return dur

    def busy(self, sid: int, duration: float, category: str, charge_wait: bool = True) -> Generator:
        """Occupy a server CPU and attribute the time to ``category``.

        With ``charge_wait=False`` only the service time is attributed (the
        queueing delay still elapses, it is just not booked against the
        category) — used for micro-operations like classification whose
        reported cost should be the work itself.
        """
        tracer = self.tracer
        span = (
            tracer.begin("cpu", category=category, server=sid, service_s=duration)
            if tracer.enabled
            else None
        )
        # The one booking body: a free slot and an undisturbed hold take
        # no event; the request and the timeout run when the clock says no.
        srv = self.servers[sid]
        sim = self.sim
        start = sim.now
        srv.note_request()
        cpu = srv.cpu
        if not cpu.try_acquire():
            yield cpu.request()
        try:
            if duration > 0 and not sim.skip(duration):
                yield sim.timeout(duration)
        finally:
            cpu.release()
        dur = sim.now - start
        booked = dur if charge_wait else duration
        self.metrics.add_time(category, booked)
        if span is not None:
            tracer.end(span, booked=booked)
        return dur

    def metadata_update(self, ent: BlockEntity, from_sid: int) -> Generator:
        """Propagate one metadata mutation to the entity's directory owner."""
        owner = self.directory.owner_of(ent.key)
        if owner != from_sid and self.alive(owner):
            tracer = self.tracer
            span = (
                tracer.begin("metadata.send", category="metadata", src=from_sid, dst=owner)
                if tracer.enabled
                else None
            )
            dur = yield from self.network.send_metadata(
                self.server(from_sid).name, self.server(owner).name
            )
            self.metrics.add_time("metadata", dur)
            if span is not None:
                tracer.end(span, booked=dur)
        if self.alive(owner):
            yield from self.busy(owner, self.costs.metadata_op_s, "metadata")
        self.metrics.count("metadata_updates")

    def compute(self, fn: Callable[[], object], category: str = "codec") -> Generator:
        """Run host-side numeric work (``yield from`` this at a yield point).

        On the simulator this is a plain call — the generator completes
        without yielding, so the event sequence is identical to calling
        ``fn()`` inline and golden traces are unaffected.  On the live
        backend ``compute_hook`` runs it on the loop and yields a ready
        event, so the flow resumes in place.
        Only legal where the calling flow may yield; atomic (no-yield)
        mutation sections must keep their numeric work inline.

        ``category`` names the attribution bucket the live backend books
        the work under ("codec" for kernel passes, "digest" for payload
        hashing); the simulator ignores it.
        """
        if self.compute_hook is not None:
            result = yield self.compute_hook(fn, category)
            return result
        return fn()

    @staticmethod
    def _pad(buf: np.ndarray, length: int) -> np.ndarray:
        buf = np.ascontiguousarray(buf, dtype=np.uint8).ravel()
        if buf.size == length:
            return buf
        if buf.size > length:
            raise ValueError("payload longer than shard length")
        out = np.zeros(length, dtype=np.uint8)
        out[: buf.size] = buf
        return out

    @staticmethod
    def _unpad(shard: np.ndarray, nbytes: int) -> np.ndarray:
        """The first ``nbytes`` of a decoded shard: the shard itself when
        nothing was padded.  Stored arrays are never written in place, so
        the one array may be both returned to a reader and stored."""
        return shard if shard.size == nbytes else shard[:nbytes].copy()

    # ------------------------------------------------------------------
    # locks
    # ------------------------------------------------------------------
    def entity_lock(self, key: EntityKey) -> Resource:
        lock = self._entity_locks.get(key)
        if lock is None:
            lock = Resource(self.sim)
            self._entity_locks[key] = lock
        return lock

    def stripe_lock(self, stripe_id: int) -> Resource:
        lock = self._stripe_locks.get(stripe_id)
        if lock is None:
            lock = Resource(self.sim)
            self._stripe_locks[stripe_id] = lock
        return lock

    def with_entity_lock(self, key: EntityKey, body: Generator) -> Generator:
        """Run ``body`` while holding the entity's lock."""
        return self._locked(self.entity_lock(key), body)

    def with_stripe_lock(self, stripe_id: int, body: Generator) -> Generator:
        return self._locked(self.stripe_lock(stripe_id), body)

    @staticmethod
    def _locked(lock: Resource, body: Generator) -> Generator:
        if not lock.try_acquire():
            yield lock.request()
        try:
            return (yield from body)
        finally:
            lock.release()

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest_primary(
        self, ent: BlockEntity, client_name: str, payload: np.ndarray, store: bool = True
    ) -> Generator:
        """Move a client's written payload to the entity's primary server.

        With ``store=False`` only the transfer is performed — used when the
        subsequent flow (e.g. an encoded-entity update) must defer the
        actual store for stripe consistency and charges its own store cost.
        """
        psrv = self.server(ent.primary)
        yield from self.transfer(client_name, psrv.name, int(payload.size))
        if store:
            yield from self.busy(ent.primary, self.costs.store_cost(int(payload.size)), "store")
            if not psrv.failed:
                psrv.store_bytes(primary_key(ent), payload, ent.version)

    # ------------------------------------------------------------------
    # replication flows
    # ------------------------------------------------------------------
    def refresh_replica_copies(self, ent: BlockEntity, payload: np.ndarray) -> Generator:
        """Rewrite the existing replica copies without touching the state.

        Used for entities that are pending demotion: they keep (and must
        keep current) their replicas until the stripe actually protects
        them.
        """
        src = self.server(ent.primary)
        for t in ent.replicas:
            dst = self.server(t)
            if dst.failed:
                continue
            yield from self.transfer(src.name, dst.name, ent.nbytes)
            yield from self.busy(t, self.costs.store_cost(ent.nbytes), "store")
            # An encoder holds the stripe lock, not this entity's: it may
            # have put the entity in a stripe and reclaimed the copies
            # during the yields, and a copy stored now would belong to no
            # entity.  (A drifted member keeps ``t`` and still needs it fresh.)
            if not dst.failed and t in ent.replicas:
                dst.store_bytes(replica_key(ent), payload, ent.version)
            self.metrics.count("replica_writes")

    def replicate_entity(self, ent: BlockEntity, payload: np.ndarray) -> Generator:
        """Place/refresh the entity's replicas (paper's C_r path).

        Targets are the remaining members of the primary's replication
        group, in ring order, limited to ``n_level`` copies.  Caller must
        hold the entity lock and the entity must not be in a stripe.
        """
        if ent.stripe is not None:
            raise RuntimeError(f"replicate_entity on striped entity {ent.key}")
        # Targets are *assigned* (ring order), not filtered by liveness: a
        # copy owed to a dead member stays in ent.replicas so the sweep at
        # replacement time refills it — otherwise an entity whose only
        # partner is down would silently stay unprotected forever.
        targets = self.layout.replica_targets(ent.primary)[: self.layout.n_level]
        src = self.server(ent.primary)
        for t in targets:
            dst = self.server(t)
            if dst.failed:
                self.metrics.count("replica_writes_deferred")
                continue
            yield from self.transfer(src.name, dst.name, ent.nbytes)
            yield from self.busy(t, self.costs.store_cost(ent.nbytes), "store")
            if not dst.failed:  # may have died mid-transfer
                dst.store_bytes(replica_key(ent), payload, ent.version)
            self.metrics.count("replica_writes")
        was_replicated = ent.state == ResilienceState.REPLICATED
        placement_changed = not was_replicated or targets != ent.replicas
        ent.state = ResilienceState.REPLICATED
        ent.replicas = targets
        if placement_changed:
            # Replica refreshes reuse the existing placement; only placement
            # changes publish new location metadata.
            yield from self.metadata_update(ent, ent.primary)
        if not was_replicated:
            self.metrics.count("transitions_to_replicated")

    def _drop_replica_copies(self, ent: BlockEntity) -> None:
        """Delete the replica payloads and empty the replica set (state untouched)."""
        for t in ent.replicas:
            srv = self.server(t)
            if not srv.failed:
                srv.delete_bytes(replica_key(ent))
        ent.replicas = []

    def promote_replica(self, ent: BlockEntity, sid: int) -> None:
        """Make replica holder ``sid`` the primary in place: its copy, if it
        holds one, becomes the primary copy.  The caller sets ``replicas``."""
        srv = self.server(sid)
        rkey = replica_key(ent)
        if srv.has(rkey):
            srv.store_bytes(primary_key(ent), srv.fetch_bytes(rkey), srv.version_of(rkey))
            srv.delete_bytes(rkey)
        ent.primary = sid

    # ------------------------------------------------------------------
    # stripe formation (demotion / initial protection by erasure coding)
    # ------------------------------------------------------------------
    def enqueue_for_encoding(self, ent: BlockEntity) -> None:
        """Mark an entity pending; it joins a stripe when enough peers exist.

        The entity must not be in a stripe.  Replicas, if any, are *kept*
        while the entity waits — it stays protected through the transition
        and the copies are reclaimed the moment it is encoded.
        """
        if ent.stripe is not None:
            raise RuntimeError(f"enqueue_for_encoding: {ent.key} still in a stripe")
        if ent.state == ResilienceState.PENDING_STRIPE:
            raise RuntimeError(f"enqueue_for_encoding: {ent.key} already pending")
        ent.state = ResilienceState.PENDING_STRIPE  # queues its key at its primary

    def redirect_pending(self, ent: BlockEntity) -> None:
        """Move a pending entity whose primary died to an alive group member.

        Its queued key follows the primary (``MetadataDirectory.pending``),
        so encoders keep picking members with distinct primaries.
        """
        gid = self.layout.coding_group_id(ent.primary)
        alive = [s for s in self.layout.coding_group_members(gid) if self.alive(s)]
        if not alive:
            raise DataLossError(f"coding group of pending entity {ent.key} fully failed")
        ent.primary = min(alive, key=lambda s: (self.server(s).workload_level(), s))

    def _next_encodable(self, queue: list[EntityKey]) -> int | None:
        """Index of the first queued entity whose bytes an encode can
        gather (its primary copy, or a fresh replica to restore it from).
        One whose every copy is lost stays queued until a write lands its
        bytes, without holding up the keys behind it."""
        for i, key in enumerate(queue):
            ent = self.directory.entities[key]
            if self.server(ent.primary).has(primary_key(ent)) or any(
                self.server(r).version_of(replica_key(ent)) == ent.version for r in ent.replicas
            ):
                return i
        return None

    def _encode_popped(self, members: Sequence[BlockEntity], body: Generator) -> Generator:
        """Run ``body``, an encode of ``members`` whose keys were popped off
        their queues.  If it raises (a server died mid-gather) or returns
        no result (a concurrent encoder took the slot, or a member stopped
        waiting), each member it did not stripe and that still waits goes
        back to the front of its queue, not into no queue."""
        done = False
        try:
            done = yield from body
            return done
        finally:
            if not done:
                for ent in reversed(members):
                    queue = self.directory.pending_queue(ent.primary)
                    if ent.state == ResilienceState.PENDING_STRIPE and ent.key not in queue:
                        queue.insert(0, ent.key)

    def stripe_ready(self, gid: int) -> bool:
        """True when the group's encode queue can make progress."""
        group_pending = self.directory.pending.get(gid, {})
        if sum(1 for v in group_pending.values() if v) >= self.layout.k:
            return True
        return any(
            self._find_vacant_slot(gid, srv) for srv, v in group_pending.items() if v
        )

    def _find_vacant_slot(self, gid: int, server: int) -> tuple[StripeInfo, int] | None:
        """A vacant data slot usable by an entity whose primary is ``server``.

        A slot is usable if its placeholder already is ``server``, or if it
        can be retargeted to ``server`` without placing two shards of the
        stripe on one server.
        """
        fallback: tuple[StripeInfo, int] | None = None
        for stripe in self.directory.vacant_stripes(gid):
            # Placeholders are soft preferences; what must stay unique per
            # server is the set of *real* shards (rehoming may have parked
            # a live shard on a vacant slot's placeholder server).
            if any(srv == server for _, srv in stripe.holders()):
                continue
            for i in stripe.vacant_slots():
                if stripe.placeholders[i] == server:
                    return stripe, i
                if fallback is None:
                    fallback = (stripe, i)
        return fallback

    def encode_pending(self, gid: int, executor: int | None = None) -> Generator:
        """Drain the group's encode queue: refill vacant slots, form stripes.

        ``executor`` forces where full-stripe encodes run (token workflow);
        None lets each stripe encode on its first member's primary.
        """
        group_pending = self.directory.pending.setdefault(gid, {})
        # 1. Refill vacant slots with matching-server pending entities.
        progress = True
        while progress:
            progress = False
            for srv in sorted(group_pending):
                queue = group_pending[srv]
                if not queue or not self.alive(srv):
                    continue
                found = self._find_vacant_slot(gid, srv)
                if found is None:
                    continue
                stripe, slot = found
                i = self._next_encodable(queue)
                if i is None:
                    continue
                ent = self.directory.entities[queue[i]]
                if ent.nbytes > stripe.shard_len:
                    continue  # does not fit; wait for a fresh stripe
                del queue[i]
                fill = self.with_stripe_lock(stripe.stripe_id, self._fill_slot(stripe, slot, ent))
                yield from self._encode_popped([ent], fill)
                progress = True
        # 2. Form complete stripes while k distinct *alive* servers have
        # entities.  Entities whose primary is down stay pending (they keep
        # their pre-demotion replicas, so they remain protected) until the
        # server is replaced or a write redirects them.
        yield from self._form_from_queues(gid, executor, partial=False)

    def flush_pending(self, gid: int, executor: int | None = None) -> Generator:
        """Close out partial stripes with vacant (zero) slots.

        Used at workflow barriers so no entity stays unprotected.
        """
        yield from self.encode_pending(gid, executor=executor)
        yield from self._form_from_queues(gid, executor, partial=True)

    def _form_from_queues(self, gid: int, executor: int | None, partial: bool) -> Generator:
        """Form stripes from the first encodable entity of up to k alive
        servers' queues, while k have one or, with ``partial``, while any
        has (vacant slots fill the rest)."""
        k = self.layout.k
        group_pending = self.directory.pending.setdefault(gid, {})
        while True:
            heads = {
                s: self._next_encodable(v) for s, v in group_pending.items() if v and self.alive(s)
            }
            ready = sorted(s for s, i in heads.items() if i is not None)[:k]
            if not ready or (len(ready) < k and not partial):
                return
            members = [self.directory.entities[group_pending[s].pop(heads[s])] for s in ready]
            yield from self._encode_popped(
                members,
                self.form_stripe(gid, members + [None] * (k - len(members)), executor=executor),
            )

    def form_stripe(
        self,
        gid: int,
        members: Sequence[BlockEntity | None],
        executor: int | None = None,
    ) -> Generator:
        """Encode one stripe from <= k member entities (None -> vacant slot).

        Gathers member payloads at the executor, computes the parities
        (really — via the RS codec), distributes parity shards to the
        group's parity servers, and registers the stripe.  If a member is
        written concurrently with the gather, the stripe is reconciled with
        a parity delta-update right after registration.
        """
        return self.tracer.traced(
            "stripe.form",
            self._form_stripe_body(gid, members, executor),
            category="encode",
            gid=gid,
            members=sum(1 for e in members if e is not None),
        )

    def _form_stripe_body(
        self,
        gid: int,
        members: Sequence[BlockEntity | None],
        executor: int | None = None,
    ) -> Generator:
        k, m = self.layout.k, self.layout.m
        if len(members) != k:
            raise ValueError(f"a stripe needs exactly {k} member slots")
        real = [e for e in members if e is not None]
        if not real:
            raise ValueError("cannot form a stripe with no members")
        states = [e.state for e in real]
        data_servers = [e.primary for e in real]
        if len(set(data_servers)) != len(data_servers):
            raise ValueError("stripe members must have distinct primary servers")
        group_members = self.layout.coding_group_members(gid)
        placeholders = [s for s in group_members if s not in data_servers]
        # Vacant slots get placeholder servers so they can be refilled later.
        all_data_servers = list(data_servers) + placeholders[: k - len(real)]
        parity_servers = self.layout.stripe_shard_servers(
            gid, all_data_servers, seq=self.directory.stripe_seq(gid)
        )[k:]

        exec_sid = executor if executor is not None else real[0].primary
        if not self.alive(exec_sid):
            exec_sid = next(s for s in group_members if self.alive(s))
        exec_name = self.server(exec_sid).name

        shard_len = max(e.nbytes for e in real)
        payloads: list[np.ndarray | None] = []  # None: a vacant slot's zeros
        slot_keys: list[EntityKey | None] = []
        versions: dict[EntityKey, int] = {}
        for e in members:
            if e is None:
                payloads.append(None)
                slot_keys.append(None)
                continue
            src = self.server(e.primary)
            if not src.has(primary_key(e)):
                # The member's primary was replaced while it waited in the
                # encode queue; restore its copy from a replica (pending
                # entities keep their pre-demotion copies for exactly this).
                yield from self._restore_primary_from_replica(e)
            # Snapshot payload and version together (no yield in between) so
            # the stripe is self-consistent even if the member is written
            # while other members are still being gathered.  The version of
            # record is the stored copy's — what the fetched bytes actually
            # are — NOT ``e.version``: a writer bumps the version under the
            # entity lock *before* its store lands, and this gather does not
            # hold that lock, so the two can disagree mid-write.  Pairing
            # the fetch with ``e.version`` would mark old bytes as the new
            # version, drop the member's replicas, and lose the new write
            # on the next primary failure.
            raw = src.fetch_bytes(primary_key(e))
            versions[e.key] = src.version_of(primary_key(e))
            if e.primary != exec_sid:
                yield from self.transfer(src.name, exec_name, e.nbytes)
            payloads.append(self._pad(raw, shard_len))
            slot_keys.append(e.key)

        yield from self.busy(exec_sid, self.costs.encode_cost(k, m, shard_len), "encode")
        if self.tracer.enabled:
            calls0 = GF256.KERNEL_STATS["matmul_calls"]
        parities = yield from self.compute(lambda: self.codec.code.encode(payloads))
        if self.tracer.enabled:
            self.tracer.annotate(
                executor=exec_sid,
                shard_len=shard_len,
                kernel_calls=GF256.KERNEL_STATS["matmul_calls"] - calls0,
            )
        self.metrics.count("stripe_encodes")

        parity_plan: list[tuple[int, int, np.ndarray]] = []
        for i, parity in enumerate(parities):
            psid = parity_servers[i]
            if self.alive(psid):
                if psid != exec_sid:
                    yield from self.transfer(exec_name, self.server(psid).name, shard_len)
                yield from self.busy(psid, self.costs.store_cost(shard_len), "store")
                parity_plan.append((k + i, psid, parity))

        # --- atomic registration ---
        if any(e.state != s for e, s in zip(real, states)):
            # A write moved a member to another scheme while the gather
            # yielded (hybrid: pending -> replicated); striping it too would
            # protect it twice.  Nothing is stored or registered.
            return None
        # Occupied slots need no server: each is its member's primary *now*,
        # whatever redirect moved it while the gather yielded.
        stripe = StripeInfo(
            stripe_id=self.directory.new_stripe_id(gid),
            k=k,
            m=m,
            members=slot_keys,
            member_versions=dict(versions),
            parity_servers=parity_servers,
            shard_len=shard_len,
            placeholders=dict(zip((i for i, e in enumerate(members) if e is None), placeholders)),
            group_id=gid,
            baseline=payloads,
        )
        for shard_idx, psid, parity in parity_plan:
            if not self.server(psid).failed:
                self.server(psid).store_bytes(stripe.shard_key(shard_idx), parity)
        self.directory.register_stripe(stripe)
        for e in real:
            e.state = ResilienceState.ENCODED
            e.stripe = stripe
            e.reset_ref_counter()
            if e.replicas and e.version == versions[e.key]:
                # The entity stayed replicated through the transition; the
                # copies are reclaimed now that the stripe protects it.
                # Members whose bytes drifted during the gather keep their
                # copies: the stripe protects the *snapshot*, not the live
                # version, and dropping now would leave the new bytes on the
                # primary alone until the reconcile below lands (a primary
                # failure in that window would lose them).  The reconcile
                # reclaims the copies once the parity is current.
                self._drop_replica_copies(e)
            self.metrics.count("transitions_to_encoded")
        for e in real:
            yield from self.metadata_update(e, exec_sid)

        # Reconcile members whose primary copy was overwritten during the
        # gather window (a pending-state write racing the encode).
        for e in real:
            if e.stripe is not stripe or e.key not in stripe.members:
                continue  # already promoted out again
            slot = stripe.member_shard_index(e.key)
            yield from self.with_stripe_lock(
                stripe.stripe_id, self._reconcile_member(stripe, slot, e)
            )
        return stripe

    def _restore_primary_from_replica(self, ent: BlockEntity) -> Generator:
        """Best-effort primary-copy restore from any live *fresh* replica.

        A stale replica (version drifted past the copies) must never be
        promoted to primary: that would silently resurrect old bytes.
        """
        psrv = self.server(ent.primary)
        for r in ent.replicas:
            rsrv = self.server(r)
            version = rsrv.version_of(replica_key(ent))
            if version == ent.version:
                payload = rsrv.fetch_bytes(replica_key(ent))
                yield from self.transfer(rsrv.name, psrv.name, ent.nbytes, "recovery")
                yield from self.busy(ent.primary, self.costs.store_cost(ent.nbytes), "recovery")
                # A concurrent write may have landed a newer copy meanwhile;
                # never clobber it with the (older) replica bytes.
                if not psrv.failed and not psrv.has(primary_key(ent)):
                    psrv.store_bytes(primary_key(ent), payload, version)
                    self.metrics.count("recovered_objects")
                break
        if not psrv.has(primary_key(ent)):
            raise DataLossError(
                f"entity {ent.key}: primary copy unavailable and no replica to restore from"
            )

    def _reconcile_member(self, stripe: StripeInfo, slot: int, ent: BlockEntity) -> Generator:
        """Bring the stripe's baseline for ``slot`` up to the stored bytes.

        Caller holds the stripe lock; membership is re-validated because a
        promotion may have vacated the slot while the lock was awaited.
        """
        if stripe.members[slot] != ent.key or ent.stripe is not stripe:
            return
        psrv = self.server(ent.primary)
        if not psrv.has(primary_key(ent)):
            return  # primary down/empty: any leftover copies stay (protection)
        current = psrv.fetch_bytes(primary_key(ent))
        version = psrv.version_of(primary_key(ent))  # what the fetched bytes are
        base = stripe.baseline[slot]
        if base is not None:
            cur_p = self._pad(current, stripe.shard_len)
            if (cur_p == base).all():
                # No byte drift; adopt the stored bytes' version and reclaim
                # any copies a deferred drop left behind (only when the
                # stored bytes ARE the current version — otherwise the
                # copies are still the only protection for the live write).
                stripe.member_versions[ent.key] = version
                if ent.replicas and version == ent.version:
                    self._drop_replica_copies(ent)
                return

            def apply_state() -> None:
                stripe.baseline[slot] = cur_p
                stripe.member_versions[ent.key] = version
                if ent.replicas and version == ent.version:
                    # The parity now protects the live bytes: the replica
                    # copies kept through the drifted transition (see
                    # _form_stripe_body) are reclaimed here — leaving them
                    # would let a later recovery restore stale bytes.
                    self._drop_replica_copies(ent)

            yield from self._apply_parity_delta(
                stripe, slot, old=base, new=cur_p, src_sid=ent.primary,
                apply_data=apply_state,
            )
            self.metrics.count("stripe_reconciles")

    def reconcile_encoded_member(self, ent: BlockEntity) -> Generator:
        """Fold a just-landed primary write into the entity's stripe parity.

        Closes the put/encode race: a write that found the entity pending
        yields mid-ingest while an encoder forms the stripe from the
        *previous* bytes; by the time the store lands the entity is ENCODED
        and its replica copies are gone, so neither the parity nor any
        replica carries the new version — a later primary failure would
        silently decode the stale bytes.  Policies call this after ingest
        whenever the state flipped to ENCODED under them.  Caller holds the
        entity lock.
        """
        stripe = ent.stripe
        if stripe is None or ent.key not in stripe.members:
            return
        if not self.server(ent.primary).has(primary_key(ent)):
            return
        slot = stripe.member_shard_index(ent.key)
        yield from self.with_stripe_lock(
            stripe.stripe_id, self._reconcile_member(stripe, slot, ent)
        )

    def _fill_slot(self, stripe: StripeInfo, slot: int, ent: BlockEntity) -> Generator:
        """Refill a vacant slot: parity delta-update with the new payload.

        Caller holds the stripe lock.  Returns False (without touching the
        stripe) if the slot was claimed by a concurrent encoder while this
        process waited for the lock, or if a write moved ``ent`` to another
        scheme meanwhile (as in stripe formation).
        """
        state = ent.state
        if stripe.members[slot] is not None or stripe.stripe_id not in self.directory.stripes:
            return False
        if stripe.placeholders[slot] != ent.primary and any(
            srv == ent.primary for _, srv in stripe.holders(vacant=True)
        ):
            return False  # would put two shards of the stripe on one server
        if not self.server(ent.primary).has(primary_key(ent)):
            # Same guard as stripe formation: the primary was replaced while
            # the entity waited in the encode queue.
            yield from self._restore_primary_from_replica(ent)
        psrv = self.server(ent.primary)
        payload = psrv.fetch_bytes(primary_key(ent))
        payload_p = self._pad(payload, stripe.shard_len)
        version = psrv.version_of(primary_key(ent))  # the fetched bytes' (see gather)

        def apply_state() -> None:
            stripe.fill_slot(slot, ent.key)
            stripe.member_versions[ent.key] = version
            stripe.baseline[slot] = payload_p
            ent.state = ResilienceState.ENCODED
            ent.stripe = stripe
            ent.reset_ref_counter()
            if ent.replicas and ent.version == version:
                # Drifted members keep their copies until the trailing
                # reconcile folds the new bytes into the parity (see
                # _form_stripe_body).
                self._drop_replica_copies(ent)

        applied = yield from self._apply_parity_delta(
            stripe, slot, old=None, new=payload_p, src_sid=ent.primary,
            apply_data=apply_state, precondition=lambda: ent.state == state,
        )
        if not applied:
            return False
        yield from self.metadata_update(ent, ent.primary)
        self.metrics.count("slot_refills")
        self.metrics.count("transitions_to_encoded")
        # A write may have landed between the snapshot and the application.
        yield from self._reconcile_member(stripe, slot, ent)
        return True

    # ------------------------------------------------------------------
    # parity maintenance on updates
    # ------------------------------------------------------------------
    def _apply_parity_delta(
        self,
        stripe: StripeInfo,
        slot: int,
        old: np.ndarray | None,
        new: np.ndarray | None,
        src_sid: int,
        apply_data: Callable[[], None] | None = None,
        precondition: Callable[[], bool] | None = None,
    ) -> Generator:
        """Delta-update every parity of ``stripe`` for a change in ``slot``.

        ``old`` / ``new`` are the slot's bytes before and after; ``None``
        is a vacant (all-zero) slot.

        Two phases: first all transfer and compute *costs* are charged (the
        generator yields), then every state mutation — the parity buffers
        plus the optional ``apply_data`` callback — is applied at a single
        simulation instant.  Caller holds the stripe lock.

        ``precondition`` is evaluated at the application instant; if it
        returns False nothing is mutated and the call returns False (used
        to abort when e.g. a server died while costs were being charged).
        """
        old_p = None if old is None else self._pad(old, stripe.shard_len)
        new_p = None if new is None else self._pad(new, stripe.shard_len)
        src_name = self.server(src_sid).name
        touched: list[tuple[StagingServer, str, int]] = []
        for i in range(stripe.m):
            psid = stripe.parity_servers[i]
            if not self.alive(psid):
                continue  # lost parity; recovery will re-materialize it
            pkey = stripe.shard_key(stripe.k + i)
            psrv = self.server(psid)
            if not psrv.has(pkey):
                # Repair-on-update (paper Section III-D: a lost object is
                # "recovered immediately after it is queried or updated"):
                # rebuild the missing parity before applying the delta.
                try:
                    padded, exec_sid = yield from self._reconstruct_unlocked(
                        stripe, stripe.k + i, category="recovery"
                    )
                except DataLossError:
                    continue  # stripe too degraded; nothing to update here
                if exec_sid != psid:
                    yield from self.transfer(
                        self.server(exec_sid).name, psrv.name, stripe.shard_len, "recovery"
                    )
                yield from self.busy(psid, self.costs.store_cost(stripe.shard_len), "recovery")
                if psrv.failed:
                    continue
                psrv.store_bytes(pkey, padded)
                self.metrics.count("recovered_parities")
            if psid != src_sid:
                yield from self.transfer(src_name, psrv.name, stripe.shard_len)
            yield from self.busy(
                psid, self.costs.parity_update_cost(1, stripe.shard_len), "encode"
            )
            touched.append((psrv, pkey, i))
        # --- atomic application: no yields below this line ---
        if precondition is not None and not precondition():
            return False
        for psrv, pkey, i in touched:
            if psrv.failed or not psrv.has(pkey):
                continue  # died while we were charging costs
            # P_i' = P_i + G[k+i, slot] * (old + new), a fresh array: stored
            # arrays are never written in place, so a reader holding the old
            # parity keeps a consistent snapshot.
            parity = psrv.fetch_bytes(pkey)
            psrv.store_bytes(pkey, self.codec.code.fold_parity(parity, i, slot, old_p, new_p))
        if apply_data is not None:
            apply_data()
        self.metrics.count("parity_updates")
        return True

    def update_encoded_entity(
        self,
        ent: BlockEntity,
        new_payload: np.ndarray,
        strategy: str = "delta",
    ) -> Generator:
        """Write a new version of an erasure-coded entity.

        Handles the parity maintenance *and* the primary-copy store, applied
        atomically at the end so the stripe is never observed half-updated.
        Caller holds the entity lock.

        ``strategy="delta"`` is the optimized read-modify-write (CoREC);
        ``strategy="reencode"`` is the paper's Section II-A naive update —
        read the other k-1 data objects, recompute all parities, rewrite
        them — used by the Erasure and SimpleHybrid baselines.
        """
        stripe = ent.stripe
        if stripe is None:
            raise RuntimeError(f"entity {ent.key} is ENCODED but has no stripe")
        new_payload = np.ascontiguousarray(new_payload, dtype=np.uint8).ravel()
        yield from self.with_stripe_lock(
            stripe.stripe_id, self._update_encoded_locked(ent, stripe, new_payload, strategy)
        )

    def _update_encoded_locked(
        self, ent: BlockEntity, stripe: StripeInfo, new_payload: np.ndarray, strategy: str
    ) -> Generator:
        slot = stripe.member_shard_index(ent.key)
        psrv = self.server(ent.primary)
        pkey = primary_key(ent)
        version = ent.version
        new_p = self._pad(new_payload, stripe.shard_len)

        def apply_data() -> None:
            if not psrv.failed:
                psrv.store_bytes(pkey, new_payload, version)
            stripe.member_versions[ent.key] = version
            stripe.baseline[slot] = new_p
            if ent.replicas:
                # Leftover copies kept through a drifted encode are now
                # both stale (they hold the pre-update bytes) and redundant
                # (the parity protects the new bytes): reclaim them.
                self._drop_replica_copies(ent)

        if strategy == "delta":
            old = stripe.baseline[slot]
            yield from self.busy(ent.primary, self.costs.store_cost(new_payload.size), "store")
            yield from self._apply_parity_delta(
                stripe, slot, old=old, new=new_p, src_sid=ent.primary,
                apply_data=apply_data,
            )
        elif strategy == "reencode":
            yield from self.busy(ent.primary, self.costs.store_cost(new_payload.size), "store")
            yield from self._reencode_update(stripe, slot, new_p, ent, apply_data)
        else:
            raise ValueError(f"unknown update strategy {strategy!r}")

    def _reencode_update(
        self,
        stripe: StripeInfo,
        slot: int,
        new_padded: np.ndarray,
        ent: BlockEntity,
        apply_data: Callable[[], None],
    ) -> Generator:
        """Naive update (paper Section II-A): read the other k-1 data
        objects, recompute every parity, rewrite them.

        Costs are charged for the remote reads of the other members'
        objects; the computation uses the stripe's baseline so the result
        is consistent with the other slots regardless of in-flight writes
        to them (their own updates will reconcile their slots).
        """
        exec_sid = ent.primary
        exec_name = self.server(exec_sid).name
        shards: list[np.ndarray | None] = []  # None: a vacant slot's zeros
        for i in range(stripe.k):
            if i == slot:
                shards.append(new_padded)
                continue
            mk = stripe.members[i]
            if mk is None or stripe.baseline[i] is None:
                shards.append(None)
                continue
            other = self.directory.entities[mk]
            osrv = self.server(other.primary)
            if osrv.has(primary_key(other)) and other.primary != exec_sid:
                # Charge the old-data read the naive scheme requires.
                yield from self.transfer(osrv.name, exec_name, other.nbytes)
            shards.append(stripe.baseline[i])
        yield from self.busy(
            exec_sid, self.costs.encode_cost(stripe.k, stripe.m, stripe.shard_len), "encode"
        )
        parities = yield from self.compute(lambda: self.codec.code.encode(shards))
        staged: list[tuple[StagingServer, str, np.ndarray]] = []
        for i, parity in enumerate(parities):
            psid = stripe.parity_servers[i]
            if not self.alive(psid):
                continue
            if psid != exec_sid:
                yield from self.transfer(exec_name, self.server(psid).name, stripe.shard_len)
            yield from self.busy(psid, self.costs.store_cost(stripe.shard_len), "store")
            staged.append((self.server(psid), stripe.shard_key(stripe.k + i), parity))
        # --- atomic application ---
        for psrv, pkey, parity in staged:
            if not psrv.failed:
                psrv.store_bytes(pkey, parity)
        apply_data()
        self.metrics.count("stripe_reencodes")

    # ------------------------------------------------------------------
    # leaving a stripe (promotion / compaction)
    # ------------------------------------------------------------------
    def extract_from_stripe(self, ent: BlockEntity) -> Generator:
        """Remove ``ent`` from its stripe: zero its slot, return its payload.

        Caller holds the entity lock.  On return the entity is in state
        NONE with its primary copy guaranteed present.
        """
        stripe = ent.stripe
        if stripe is None:
            raise RuntimeError(f"{ent.key} has no stripe to leave")
        payload = yield from self.with_stripe_lock(
            stripe.stripe_id, self._extract_locked(ent, stripe)
        )
        return payload

    def _extract_locked(self, ent: BlockEntity, stripe: StripeInfo) -> Generator:
        slot = stripe.member_shard_index(ent.key)
        old = stripe.baseline[slot]
        baseline_version = stripe.member_versions.get(ent.key, ent.version)
        psrv = self.server(ent.primary)
        if psrv.failed:
            raise DataLossError(f"cannot extract {ent.key}: its primary is down")
        if not psrv.has(primary_key(ent)):
            yield from self.busy(ent.primary, self.costs.store_cost(old.size), "recovery")

        def apply_state() -> None:
            if not psrv.has(primary_key(ent)):
                psrv.store_bytes(
                    primary_key(ent), old[: ent.nbytes].copy(), baseline_version
                )
            stripe.vacate_slot(slot)
            stripe.baseline[slot] = None
            stripe.member_versions.pop(ent.key, None)
            ent.stripe = None
            ent.state = ResilienceState.NONE

        # Abort untouched if the primary died while costs were charging —
        # the entity must keep its stripe protection in that case.
        applied = yield from self._apply_parity_delta(
            stripe,
            slot,
            old=old,
            new=None,
            src_sid=ent.primary,
            apply_data=apply_state,
            precondition=lambda: not psrv.failed,
        )
        if not applied:
            raise DataLossError(f"extraction of {ent.key} aborted: primary failed mid-flight")
        self.metrics.count("slot_vacated")
        if stripe.is_empty():
            for i in range(stripe.m):
                psid = stripe.parity_servers[i]
                srv = self.server(psid)
                if not srv.failed:
                    srv.delete_bytes(stripe.shard_key(stripe.k + i))
            self.directory.drop_stripe(stripe.stripe_id)
        return self.server(ent.primary).store.get(primary_key(ent))

    # ------------------------------------------------------------------
    # stripe compaction
    # ------------------------------------------------------------------
    def compact_group(self, gid: int) -> Generator:
        """Merge sparse stripes so promoted-out slots stop costing parity.

        Promotions leave vacant (zeroed) slots behind; their parity bytes
        still count against the storage bound.  Compaction moves the
        members of the sparsest stripe into matching vacant slots of other
        stripes (two parity delta-updates per move) and reclaims stripes
        that empty out.  Runs off the write path (step barrier).
        """
        while True:
            stripes = self.directory.vacant_stripes(gid)
            total_vacant = sum(len(s.vacant_slots()) for s in stripes)
            if total_vacant < self.layout.k or len(stripes) < 2:
                return
            donor = max(stripes, key=lambda s: (len(s.vacant_slots()), s.stripe_id))
            moved = False
            for mk in [m for m in donor.members if m is not None]:
                ent = self.directory.entities[mk]
                target = None
                fallback = None
                for s in stripes:
                    if s is donor or s.shard_len < ent.nbytes:
                        continue
                    for slot in s.vacant_slots():
                        if s.placeholders[slot] == ent.primary:
                            target = (s, slot)
                            break
                        if fallback is None and all(
                            srv != ent.primary for _, srv in s.holders(vacant=True)
                        ):
                            fallback = (s, slot)
                    if target:
                        break
                target = target or fallback
                if target is None:
                    continue
                yield from self.with_entity_lock(
                    ent.key, self._move_member(ent, target[0], target[1])
                )
                moved = True
            if not moved:
                return

    def _move_member(self, ent: BlockEntity, target: StripeInfo, slot: int) -> Generator:
        """Relocate one encoded entity into ``target``'s vacant ``slot``."""
        if ent.state != ResilienceState.ENCODED or ent.stripe is None:
            return
        yield from self.extract_from_stripe(ent)
        filled = yield from self.with_stripe_lock(
            target.stripe_id, self._fill_slot(target, slot, ent)
        )
        if not filled:
            # Slot was taken while we moved; fall back to the encode queue.
            self.enqueue_for_encoding(ent)
            gid = self.layout.coding_group_id(ent.primary)
            yield from self.encode_pending(gid)
        self.metrics.count("compaction_moves")

    # ------------------------------------------------------------------
    # reads, degraded reads, recovery
    # ------------------------------------------------------------------
    def read_entity(self, ent: BlockEntity, dst_name: str, repair: bool = True) -> Generator:
        """Serve the entity's current payload to ``dst_name``.

        Fast path: primary copy.  Fallbacks: replica, then degraded decode
        from the stripe.  With ``repair=True``, a successful fallback also
        restores the primary copy if a replacement server is available
        (repair-on-access of the lazy recovery scheme).
        """
        body = self._read_entity_locked(ent, dst_name, repair)
        if self.tracer.enabled:
            # The span starts when the body first runs, i.e. once the
            # entity lock is held — lock wait is the caller's time.
            body = self.tracer.traced(
                "get.fetch", body, category="get", entity=f"{ent.name}/{ent.block_id}"
            )
        return self.with_entity_lock(ent.key, body)

    def _read_entity_locked(self, ent: BlockEntity, dst_name: str, repair: bool) -> Generator:
        psrv = self.server(ent.primary)
        pkey = primary_key(ent)
        if psrv.has(pkey):
            # Multiple copies raise the available read bandwidth: serve from
            # the least-loaded holder (paper Section IV case 5 — replication
            # "can increase data access bandwidth for concurrent requests").
            # Only version-fresh replicas qualify — leftover copies kept
            # through a drifted encode hold older bytes.
            src_sid, src_key = ent.primary, pkey
            for r in ent.replicas:
                rsrv = self.server(r)
                if rsrv.version_of(replica_key(ent)) == ent.version and (
                    rsrv.workload_level() < self.server(src_sid).workload_level()
                ):
                    src_sid, src_key = r, replica_key(ent)
            src = self.server(src_sid)
            payload = src.fetch_bytes(src_key)
            yield from self.busy(src_sid, self.costs.lookup_cost(ent.nbytes), "store")
            yield from self.transfer(src.name, dst_name, ent.nbytes)
            return payload

        # Replica fallback (version-fresh copies only: a stale replica
        # would silently serve old bytes; the stripe path below decodes
        # whatever the parity actually protects instead).
        for r in ent.replicas:
            rsrv = self.server(r)
            if rsrv.version_of(replica_key(ent)) == ent.version:
                payload = rsrv.fetch_bytes(replica_key(ent))
                yield from self.busy(r, self.costs.lookup_cost(ent.nbytes), "store")
                if repair and not psrv.failed:
                    yield from self.transfer(rsrv.name, psrv.name, ent.nbytes, "recovery")
                    yield from self.busy(ent.primary, self.costs.store_cost(ent.nbytes), "recovery")
                    if not psrv.failed and not psrv.has(pkey):
                        psrv.store_bytes(pkey, payload, ent.version)
                        self.metrics.count("recovered_objects")
                yield from self.transfer(rsrv.name, dst_name, ent.nbytes)
                self.metrics.count("replica_reads")
                return payload

        # Degraded decode from the stripe.
        if ent.stripe is not None:
            decoded_version = ent.stripe.member_versions.get(ent.key, ent.version)
            payload = yield from self.degraded_read(ent, dst_name)
            if repair and not psrv.failed:
                yield from self.busy(ent.primary, self.costs.store_cost(ent.nbytes), "recovery")
                if not psrv.failed and not psrv.has(pkey):
                    psrv.store_bytes(pkey, payload, decoded_version)
                    self.metrics.count("recovered_objects")
            return payload

        raise DataLossError(
            f"entity {ent.key} unrecoverable: primary lost, no replica, no stripe"
        )

    def _available_shards(self, stripe: StripeInfo) -> dict[int, int | None]:
        """Map shard index -> holding server (None for free virtual zeros)."""
        avail: dict[int, int | None] = {}
        for i in range(stripe.k):
            mk = stripe.members[i]
            if mk is None:
                avail[i] = None  # vacant slot: zeros, free everywhere
                continue
            member = self.directory.entities[mk]
            srv = self.server(member.primary)
            if srv.has(primary_key(member)):
                avail[i] = member.primary
        for j, sid in enumerate(stripe.parity_servers):
            if self.server(sid).has(stripe.shard_key(stripe.k + j)):
                avail[stripe.k + j] = sid
        return avail

    def stripe_survivor_pattern(self, stripe: StripeInfo) -> tuple[int, ...] | None:
        """The survivor set a reconstruction of ``stripe`` would decode from.

        Pure state inspection (no simulator events) — used by bulk recovery
        to pre-warm the decode-matrix cache before a repair burst.  Returns
        None when the stripe is unrecoverable right now.
        """
        avail = self._available_shards(stripe)
        if len(avail) < stripe.k:
            return None
        return tuple(sorted(avail.keys())[: stripe.k])

    def _shard_payload(self, stripe: StripeInfo, idx: int) -> np.ndarray | None:
        """Shard ``idx``'s bytes as the parity encodes them; None for a
        vacant slot, whose zeros the codec drops as a column."""
        if idx < stripe.k:
            mk = stripe.members[idx]
            if mk is None:
                return None
            member = self.directory.entities[mk]
            if (
                member.version != stripe.member_versions.get(mk)
                and stripe.baseline[idx] is not None
            ):
                # The member holds a newer version whose parity update has
                # not landed yet (async-protection window).  The staging
                # store is versioned, so reconstruction reads the version
                # the parity actually encodes.
                return stripe.baseline[idx]
            return self._pad(
                self.server(member.primary).fetch_bytes(primary_key(member)),
                stripe.shard_len,
            )
        return self.server(stripe.parity_servers[idx - stripe.k]).fetch_bytes(
            stripe.shard_key(idx)
        )

    def reconstruct_shard(
        self,
        stripe: StripeInfo,
        target_idx: int,
        exec_sid: int | None = None,
        category: str = "decode",
    ) -> Generator:
        """Stripe-locked reconstruction of one shard; see the unlocked core."""
        result = yield from self.with_stripe_lock(
            stripe.stripe_id,
            self._reconstruct_unlocked(stripe, target_idx, exec_sid, category),
        )
        return result

    def _reconstruct_unlocked(
        self,
        stripe: StripeInfo,
        target_idx: int,
        exec_sid: int | None = None,
        category: str = "decode",
    ) -> Generator:
        """Gather k shards at an executor and reconstruct ``target_idx``.

        Returns ``(payload, exec_sid)`` where payload is the *padded* shard.
        """
        return self.tracer.traced(
            "reconstruct",
            self._reconstruct_body(stripe, target_idx, exec_sid, category),
            category=category,
            stripe=stripe.stripe_id,
            shard=target_idx,
        )

    def _reconstruct_body(
        self,
        stripe: StripeInfo,
        target_idx: int,
        exec_sid: int | None = None,
        category: str = "decode",
    ) -> Generator:
        avail = self._available_shards(stripe)
        if target_idx in avail:
            holder = avail[target_idx]
            payload = self._shard_payload(stripe, target_idx)
            if payload is None:
                return np.zeros(stripe.shard_len, dtype=np.uint8), stripe.placeholders[target_idx]
            return payload, holder
        # Prefer data shards (virtual zeros are free), then parities.
        chosen = sorted(avail.keys())[: stripe.k]
        if len(chosen) < stripe.k:
            raise DataLossError(
                f"stripe {stripe.stripe_id}: only {len(chosen)} of {stripe.k} shards available"
            )
        holders = [avail[i] for i in chosen if avail[i] is not None]
        if exec_sid is None or not self.alive(exec_sid):
            candidates = [s for s in set(holders) if self.alive(s)] or [
                s
                for s in self.layout.coding_group_members(stripe.group_id)
                if self.alive(s)
            ]
            if not candidates:
                raise DataLossError("no alive server to execute reconstruction")
            # Decode where the most chosen shards already live (fewest
            # gather transfers); load breaks ties.
            def gather_cost(s: int) -> tuple:
                remote = sum(1 for h in holders if h != s)
                return (remote, self.server(s).workload_level(), s)

            exec_sid = min(candidates, key=gather_cost)
        exec_name = self.server(exec_sid).name
        # Snapshot all shard payloads now (consistent under the stripe
        # lock), then charge the transfer costs.
        present = {i: self._shard_payload(stripe, i) for i in chosen}
        for i in chosen:
            holder = avail[i]
            if holder is not None and holder != exec_sid:
                yield from self.transfer(self.server(holder).name, exec_name, stripe.shard_len)
        yield from self.busy(
            exec_sid, self.costs.decode_cost(stripe.k, 1, stripe.shard_len), category
        )
        code = self.codec.code
        if self.tracer.enabled:
            hits0, misses0 = code.decode_cache_hits, code.decode_cache_misses
            calls0 = GF256.KERNEL_STATS["matmul_calls"]
        payload = yield from self.compute(lambda: code.reconstruct_shard(present, target_idx))
        if self.tracer.enabled:
            self.tracer.annotate(
                executor=exec_sid,
                gathered=len(chosen),
                decode_cache_hits=code.decode_cache_hits - hits0,
                decode_cache_misses=code.decode_cache_misses - misses0,
                kernel_calls=GF256.KERNEL_STATS["matmul_calls"] - calls0,
            )
        return payload, exec_sid

    def degraded_read(self, ent: BlockEntity, dst_name: str) -> Generator:
        """Decode the entity on demand and ship it to the client.

        The degraded-mode read path of Section III-D: the reconstruction
        happens in the read path and the result is *not* re-stored (the
        caller decides about repair).
        """
        return self.tracer.traced(
            "get.decode",
            self._degraded_read_body(ent, dst_name),
            category="get",
            entity=f"{ent.name}/{ent.block_id}",
        )

    def _degraded_read_body(self, ent: BlockEntity, dst_name: str) -> Generator:
        stripe = ent.stripe
        slot = stripe.member_shard_index(ent.key)
        padded, exec_sid = yield from self.reconstruct_shard(stripe, slot)
        payload = self._unpad(padded, ent.nbytes)
        yield from self.transfer(self.server(exec_sid).name, dst_name, ent.nbytes)
        self.metrics.count("degraded_reads")
        return payload

    # ------------------------------------------------------------------
    # per-object recovery (lazy sweep / aggressive)
    # ------------------------------------------------------------------
    def recover_primary(self, ent: BlockEntity, onto: int | None = None) -> Generator:
        """Re-materialize the entity's primary copy (entity-locked).

        ``onto`` overrides the destination server (aggressive recovery onto
        survivors reassigns the primary); default is the entity's primary
        (assumed replaced and empty).
        """
        yield from self.with_entity_lock(ent.key, self._recover_primary_locked(ent, onto))

    def _recover_primary_locked(self, ent: BlockEntity, onto: int | None) -> Generator:
        dst_sid = ent.primary if onto is None else onto
        dst = self.server(dst_sid)
        if dst.failed:
            raise DataLossError(f"cannot recover {ent.key} onto failed server {dst_sid}")
        if dst.has(primary_key(ent)) and onto is None:
            return  # already there (repaired on access)
        payload = None
        payload_version = ent.version
        # Version-fresh replicas first (cheap copy); a stale replica is
        # skipped in favor of the stripe, which decodes what the parity
        # actually protects.
        for r in ent.replicas:
            rsrv = self.server(r)
            if rsrv.version_of(replica_key(ent)) == ent.version:
                payload = rsrv.fetch_bytes(replica_key(ent))
                yield from self.busy(r, self.costs.lookup_cost(ent.nbytes), "recovery")
                yield from self.transfer(rsrv.name, dst.name, ent.nbytes, "recovery")
                break
        if payload is None and ent.stripe is not None:
            slot = ent.stripe.member_shard_index(ent.key)
            payload_version = ent.stripe.member_versions.get(ent.key, ent.version)
            padded, exec_sid = yield from self.reconstruct_shard(
                ent.stripe, slot, category="recovery"
            )
            payload = self._unpad(padded, ent.nbytes)
            if exec_sid != dst_sid:
                yield from self.transfer(self.server(exec_sid).name, dst.name, ent.nbytes, "recovery")
        if payload is None:
            raise DataLossError(f"no source to recover entity {ent.key}")
        yield from self.busy(dst_sid, self.costs.store_cost(ent.nbytes), "recovery")
        if dst.failed:
            raise DataLossError(f"server {dst_sid} failed during recovery of {ent.key}")
        dst.store_bytes(primary_key(ent), payload, payload_version)
        if onto is not None and onto != ent.primary:
            ent.primary = onto
        self.metrics.count("recovered_objects")
        yield from self.metadata_update(ent, dst_sid)
        if (
            ent.stripe is not None
            and ent.key in ent.stripe.members
            and ent.stripe.member_versions.get(ent.key) != ent.version
        ):
            # The restored copy (from a replica kept through a drifted
            # encode) is newer than what the stripe protects: fold it into
            # the parity now, which also reclaims the leftover copies.
            slot = ent.stripe.member_shard_index(ent.key)
            yield from self.with_stripe_lock(
                ent.stripe.stripe_id, self._reconcile_member(ent.stripe, slot, ent)
            )

    def recover_replica(self, ent: BlockEntity, target: int) -> Generator:
        """Re-materialize one replica of a replicated entity on ``target``."""
        yield from self.with_entity_lock(ent.key, self._recover_replica_locked(ent, target))

    def _recover_replica_locked(self, ent: BlockEntity, target: int) -> Generator:
        if target not in ent.replicas:
            # The placement decision was made before we got the lock; the
            # entity may have been demoted to a stripe (replicas dropped) or
            # re-replicated elsewhere while we waited.  Writing the copy now
            # would leave orphan bytes no metadata tracks.
            self.metrics.count("replica_repairs_stale")
            return
        dst = self.server(target)
        if dst.failed or dst.has(replica_key(ent)):
            return
        src_sid = None
        key = None
        psrv = self.server(ent.primary)
        # Source discipline: the primary qualifies only when its bytes are
        # the current version (a stale restored primary is skipped for a
        # sibling copy); the new copy keeps its source's version.
        if psrv.version_of(primary_key(ent)) == ent.version:
            src_sid, key = ent.primary, primary_key(ent)
        else:
            for r in ent.replicas:
                if r != target and self.server(r).has(replica_key(ent)):
                    src_sid, key = r, replica_key(ent)
                    break
        if src_sid is None:
            # Last resort: rebuild primary first, then copy.
            yield from self._recover_primary_locked(ent, onto=None)
            src_sid, key = ent.primary, primary_key(ent)
        src = self.server(src_sid)
        payload, version = src.fetch_bytes(key), src.version_of(key)
        yield from self.transfer(src.name, dst.name, ent.nbytes, "recovery")
        yield from self.busy(target, self.costs.store_cost(ent.nbytes), "recovery")
        if target not in ent.replicas:
            # The stripe-formation path reclaims replicas without taking the
            # member's entity lock (it snapshots instead), so the entity may
            # have been demoted while our copy was in flight — storing it now
            # would orphan the bytes.
            self.metrics.count("replica_repairs_stale")
            return
        if not dst.failed:
            dst.store_bytes(replica_key(ent), payload, version)
        self.metrics.count("recovered_replicas")

    def recover_parity(self, stripe: StripeInfo, idx: int, onto: int | None = None) -> Generator:
        """Re-materialize a lost parity shard (stripe-locked)."""
        yield from self.with_stripe_lock(
            stripe.stripe_id, self._recover_parity_locked(stripe, idx, onto)
        )

    def _recover_parity_locked(self, stripe: StripeInfo, idx: int, onto: int | None) -> Generator:
        if stripe.stripe_id not in self.directory.stripes:
            return  # dissolved while we waited for the lock
        dst_sid = stripe.parity_servers[idx - stripe.k] if onto is None else onto
        dst = self.server(dst_sid)
        if dst.failed or dst.has(stripe.shard_key(idx)):
            return
        padded, exec_sid = yield from self._reconstruct_unlocked(stripe, idx, category="recovery")
        if exec_sid != dst_sid:
            yield from self.transfer(self.server(exec_sid).name, dst.name, stripe.shard_len, "recovery")
        yield from self.busy(dst_sid, self.costs.store_cost(stripe.shard_len), "recovery")
        if dst.failed:
            return
        dst.store_bytes(stripe.shard_key(idx), padded)
        if onto is not None:
            stripe.retarget_shard(idx, onto)
        self.metrics.count("recovered_parities")
