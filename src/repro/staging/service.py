"""Assembly of the resilient staging service.

``StagingService`` wires together the simulator, the cluster/network models,
the staging servers, the spatial index, the metadata directory, the shared
runtime and one resilience policy, and exposes the DataSpaces-style client
API: ``put(client, var, bbox)`` / ``get(client, var, bbox)`` as simulator
process bodies, plus failure/replacement injection hooks.

Payloads are deterministic synthetic bytes derived from
``(variable, block, version)`` unless the caller supplies a real array, so
reads can always be verified byte-exactly against what was staged — the
correctness backbone of the failure/recovery tests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Generator, Sequence

import numpy as np

from repro.core.metrics import Metrics
from repro.core.partition import choose_block_shape
from repro.core.placement import GroupLayout
from repro.core.runtime import DataLossError, StagingRuntime, primary_key
from repro.erasure.reedsolomon import StripeCodec
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.cluster import Cluster
from repro.sim.engine import AllOf, Simulator
from repro.sim.network import Network, NetworkConfig
from repro.staging.domain import BBox, Domain
from repro.staging.index import SpatialIndex
from repro.staging.metadata import MetadataDirectory
from repro.staging.objects import BlockEntity, ResilienceState, content_id, payload_digest
from repro.staging.server import CostModel, StagingServer
from repro.util.eventlog import EventLog
from repro.util.rng import RngStreams, stable_hash

__all__ = [
    "StagingConfig",
    "StagingService",
    "build_geometry",
    "normalize_projection",
    "projection_sha256",
    "diff_projections",
]


@dataclass
class StagingConfig:
    """Cluster, domain and code geometry of one staging deployment.

    Defaults mirror the paper's Table I at reduced scale: 8 staging
    servers, RS(k=3, m=1) (3 data + 1 parity objects), one replica,
    67% storage-efficiency bound handled by the policy.
    """

    n_servers: int = 8
    servers_per_node: int = 1
    nodes_per_cabinet: int = 2
    domain_shape: tuple[int, ...] = (64, 64, 64)
    element_bytes: int = 1
    object_max_bytes: int = 16 * 1024
    n_level: int = 1  # replicas per entity; also the code's parity count m
    k: int = 3
    rs_construction: str = "cauchy"
    network: NetworkConfig = field(default_factory=NetworkConfig)
    costs: CostModel = field(default_factory=CostModel)
    topology_aware: bool = True
    # Parity-placement regime (see repro.core.placement): "grouped" keeps
    # every stripe inside its coding group (the paper's layout, default),
    # "spread" scatters parity cluster-wide per stripe (unconstrained),
    # "coding_sets" bounds parity to a cabinet-disjoint menu of at most
    # ``max_coding_sets`` servers per group (Hydra's CodingSets).
    placement_mode: str = "grouped"
    max_coding_sets: int = 2
    # When True, a put is acknowledged once the primary copy is staged and
    # the protection work (replicas / parity) continues in the background,
    # contending with foreground requests — the large-scale deployment mode
    # of the paper's S3D runs, where resilience overhead surfaces as
    # interference rather than as blocking time.
    async_protection: bool = False
    # Optional multi-tier storage stack per server (list of
    # :class:`repro.staging.tiers.StorageTier`) — the paper's future-work
    # extension: redundancy placed on capacity tiers, live data in DRAM.
    tiers: tuple = ()
    # Hierarchical span tracing (see docs/OBSERVABILITY.md).  Off by
    # default: the null tracer adds no simulator events and no per-request
    # work, and golden benchmark outputs are byte-identical either way.
    tracing: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_servers < self.k + self.n_level:
            raise ValueError(
                f"{self.n_servers} servers cannot host RS({self.k},{self.n_level}) stripes"
            )


def build_geometry(config: StagingConfig) -> tuple[Cluster, Domain, SpatialIndex, GroupLayout]:
    """Deterministic placement geometry of a deployment: no servers, no state.

    Everything that maps a block to servers and servers to groups —
    cluster topology, block grid, spatial index, group layout — is a pure
    function of the config.  The service builds its runtime on top of
    this; a cluster coordinator builds *only* this to route client ops to
    the shard that owns each block, guaranteed to agree with every shard's
    own view because they all derive it from the same config.
    """
    cluster = Cluster(
        n_servers=config.n_servers,
        servers_per_node=config.servers_per_node,
        nodes_per_cabinet=config.nodes_per_cabinet,
    )
    block_shape = choose_block_shape(
        config.domain_shape, config.element_bytes, config.object_max_bytes
    )
    domain = Domain(config.domain_shape, block_shape, config.element_bytes)
    index = SpatialIndex(domain, config.n_servers)
    layout = GroupLayout(
        cluster,
        n_level=config.n_level,
        k=config.k,
        m=config.n_level,
        topology_aware=config.topology_aware,
        placement_mode=config.placement_mode,
        max_coding_sets=config.max_coding_sets,
        placement_seed=config.seed,
    )
    return cluster, domain, index, layout


@lru_cache(maxsize=8)
def _byte_ramp(nbytes: int) -> np.ndarray:
    """``(i * 131) mod 256`` for ``i < nbytes``: the version-independent
    part of a synthetic payload (read-only, a handful of block sizes)."""
    ramp = ((np.arange(nbytes, dtype=np.uint64) * 131) & 0xFF).astype(np.uint8)
    ramp.setflags(write=False)
    return ramp


class StagingService:
    """One staging deployment under one resilience policy.

    Backend-agnostic assembly: by default it builds the discrete-event
    simulator and the modeled network, but any :class:`repro.core.backend.Clock`
    / :class:`repro.core.backend.Transport` pair can be injected — the
    live backend (:mod:`repro.live`) passes a wall-clock asyncio engine
    and a real transport, and every flow below this class runs unchanged.
    """

    def __init__(self, config: StagingConfig, policy, engine=None, transport=None, tracer=None):
        self.config = config
        self.policy = policy
        self.sim = engine if engine is not None else Simulator()
        self.streams = RngStreams(config.seed)
        self.log = EventLog()
        self.metrics = Metrics()
        # An injected tracer wins over the config flag: the live backend
        # passes a WallClockTracer so flows are stamped on the wall clock
        # instead of a sim-time Tracer.
        if tracer is not None:
            self.tracer = tracer
        else:
            self.tracer = Tracer(lambda: self.sim.now) if config.tracing else NULL_TRACER

        self.cluster, self.domain, self.index, self.layout = build_geometry(config)
        self.network = transport if transport is not None else Network(self.sim, config.network)
        self.servers = [
            StagingServer(
                self.sim, sid, costs=config.costs,
                tiers=(list(config.tiers) or None),
            )
            for sid in range(config.n_servers)
        ]
        self.directory = MetadataDirectory(self.domain, config.n_servers, layout=self.layout)
        self.codec = StripeCodec(config.k, config.n_level, config.rs_construction)
        self.runtime = StagingRuntime(
            sim=self.sim,
            network=self.network,
            servers=self.servers,
            directory=self.directory,
            layout=self.layout,
            metrics=self.metrics,
            codec=self.codec,
            log=self.log,
            tracer=self.tracer,
        )
        policy.attach(self.runtime)
        self._register_component_gauges()
        self.step = 0
        self.read_errors = 0
        self._protect_procs: list = []

    def _register_component_gauges(self) -> None:
        """Publish component-internal counters into the metrics registry.

        The decode-matrix cache, the directory and the event log keep
        plain-int counters for zero-overhead updates; registering callback
        gauges gives them one queryable namespace without changing the hot
        paths.
        """
        reg = self.metrics.registry
        code = self.codec.code
        reg.gauge("rs.decode_cache.hits", lambda: code.decode_cache_hits)
        reg.gauge("rs.decode_cache.misses", lambda: code.decode_cache_misses)
        reg.gauge("rs.decode_cache.evictions", lambda: code.decode_cache_evictions)
        reg.gauge("eventlog.len", lambda: len(self.log))
        reg.gauge("eventlog.dropped", lambda: self.log.dropped)
        stats = self.directory.op_stats
        reg.gauge("directory.entity_touches", lambda: stats["entity_touches"])
        reg.gauge("directory.stripe_touches", lambda: stats["stripe_touches"])
        reg.gauge("directory.full_scans", lambda: stats["full_scans"])

    # ------------------------------------------------------------------
    # synthetic payloads
    # ------------------------------------------------------------------
    @staticmethod
    def synth_payload(name: str, block_id: int, version: int, nbytes: int) -> np.ndarray:
        """Deterministic, version-distinct bytes for one object."""
        base = stable_hash(f"{name}/{block_id}@{version}")
        # ((i * 131 + base) mod 2^64) mod 256, one uint8 add per byte.
        return _byte_ramp(nbytes) + np.uint8(base & 0xFF)

    def _block_payload(
        self, name: str, block_id: int, version: int, region: BBox, data: np.ndarray | None
    ) -> np.ndarray:
        block_box = self.domain.block_bbox(block_id)
        nbytes = self.domain.nbytes(block_box)
        if data is None:
            return self.synth_payload(name, block_id, version, nbytes)
        # Slice the caller's region array down to this block.  A region that
        # only partially covers the block is applied read-modify-write on
        # top of the block's current content (zeros if never written).
        eb = self.config.element_bytes
        arr = np.ascontiguousarray(data)
        if arr.size * arr.itemsize != region.volume * eb:
            raise ValueError(
                f"data has {arr.size * arr.itemsize} bytes; region {region} needs "
                f"{region.volume * eb}"
            )
        if region == block_box:
            return arr.view(np.uint8).ravel()  # the caller's bytes, no slicing
        # Element-wise byte view: (*region.shape, element_bytes).
        grid = arr.view(np.uint8).reshape(region.shape + (eb,))
        inter = block_box.intersect(region)
        if inter is None:  # pragma: no cover - caller guarantees overlap
            raise ValueError("block does not overlap the written region")
        src = grid[
            tuple(slice(il - rl, iu - rl) for il, iu, rl in zip(inter.lb, inter.ub, region.lb))
        ]
        if region.contains(block_box):
            return np.ascontiguousarray(src).ravel()
        # Partial write: overlay onto the existing block content.
        base = np.zeros(block_box.shape + (eb,), dtype=np.uint8)
        ent = self.directory.get(name, block_id)
        if ent is not None and ent.version >= 0:
            srv = self.servers[ent.primary]
            cur = srv.store.get(primary_key(ent))
            if cur is not None and cur.size == nbytes:
                base = cur.reshape(block_box.shape + (eb,)).copy()
        base[
            tuple(slice(il - bl, iu - bl) for il, iu, bl in zip(inter.lb, inter.ub, block_box.lb))
        ] = src
        return base.ravel()

    # ------------------------------------------------------------------
    # client API (process bodies)
    # ------------------------------------------------------------------
    def put(
        self,
        client_name: str,
        name: str,
        region: BBox,
        data: np.ndarray | None = None,
    ) -> Generator:
        """Write ``region`` of variable ``name``; returns the response time.

        The region is decomposed onto the block grid; blocks are staged
        concurrently and the put completes when every block (including its
        synchronous protection work) is durable.
        """
        t0 = self.sim.now
        block_ids = self.domain.blocks_overlapping(region)
        if not block_ids:
            raise ValueError(f"region {region} outside the staged domain")
        tracer = self.tracer
        # Block flows run as sibling processes outside this generator's
        # dynamic scope, so the root span is passed as an explicit parent.
        root = tracer.begin(
            "put", category="request", client=client_name, var=name, blocks=len(block_ids)
        )
        yield self.sim.gather(
            tracer.traced(
                "put.block",
                self._put_block(client_name, name, bid, region, data),
                category="request",
                parent=root,
                block=bid,
            )
            for bid in block_ids
        )
        duration = self.sim.now - t0
        self.metrics.record_put(duration)
        tracer.end(root, duration_s=duration)
        return duration

    def _put_block(
        self, client_name: str, name: str, block_id: int, region: BBox, data: np.ndarray | None
    ) -> Generator:
        primary = self.index.primary_of_block(block_id, name)
        ent = self.directory.get_or_create(name, block_id, primary)
        yield from self.runtime.with_entity_lock(
            ent.key, self._put_block_locked(ent, client_name, region, data)
        )

    def _put_block_locked(
        self, ent: BlockEntity, client_name: str, region: BBox, data: np.ndarray | None
    ) -> Generator:
        self._ensure_writable_primary(ent)
        is_new = ent.version < 0
        prev_bytes = ent.nbytes if not is_new else 0
        payload = self._block_payload(ent.name, ent.block_id, ent.version + 1, region, data)
        # Digest is a pure function of the payload; on the live backend a
        # large one runs lock-free on a worker (zlib releases the GIL),
        # keeping the checksum off the event loop.  The entity lock is held, so
        # the write is still recorded before any later op on this entity.
        digest = yield from self.runtime.compute(
            lambda: payload_digest(payload), int(payload.size), category="digest"
        )
        ent.record_write(self.sim.now, self.step, int(payload.size), digest)
        self.metrics.storage.original += int(payload.size) - prev_bytes
        if self.config.async_protection:
            # Acknowledge once the primary copy is staged; protection runs
            # in the background (serialized by the entity lock, so a later
            # write cannot overtake this one's protection).
            yield from self.runtime.ingest_primary(ent, client_name, payload)
            body = self._background_protect(ent, payload, self.step, is_new)
            if self.tracer.enabled:
                # The protect process outlives the put; anchor its span to
                # the spawning put.block span explicitly.
                body = self.tracer.traced(
                    "protect.async", body, category="protect",
                    parent=self.tracer.current, entity=f"{ent.name}/{ent.block_id}",
                )
            proc = self.sim.process(
                body, name=f"protect-{ent.name}-{ent.block_id}"
            )
            self._protect_procs.append(proc)
        else:
            yield from self.policy.on_write(ent, client_name, payload, self.step, is_new)
        # Every write publishes its new version to the distributed
        # directory, independent of the protection scheme.
        yield from self.runtime.metadata_update(ent, ent.primary)

    def _background_protect(self, ent: BlockEntity, payload, step: int, is_new: bool) -> Generator:
        """Deferred protection: run the policy's write path from the primary.

        The payload is already on the primary, so the policy's ingest leg
        degenerates to a local copy; replication / parity maintenance then
        contends with foreground requests, which is where the resilience
        cost of the async mode shows up.
        """
        primary_name = self.servers[ent.primary].name
        yield from self.runtime.with_entity_lock(
            ent.key, self.policy.on_write(ent, primary_name, payload, step, is_new)
        )

    def get(
        self,
        client_name: str,
        name: str,
        region: BBox,
        verify: bool | None = None,
    ) -> Generator:
        """Read ``region``; returns ``(response_time, payloads_by_block)``.

        Every read is digest-checked unless the caller passes
        ``verify=False``.
        """
        t0 = self.sim.now
        if verify is None:
            verify = True
        block_ids = self.domain.blocks_overlapping(region)
        if not block_ids:
            raise ValueError(f"region {region} outside the staged domain")
        tracer = self.tracer
        root = tracer.begin(
            "get", category="request", client=client_name, var=name, blocks=len(block_ids)
        )
        done = self.sim.gather(
            tracer.traced(
                "get.block",
                self._get_block(client_name, name, bid, verify),
                category="request",
                parent=root,
                block=bid,
            )
            for bid in block_ids
        )
        yield done
        duration = self.sim.now - t0
        self.metrics.record_get(duration)
        tracer.end(root, duration_s=duration)
        payloads = {bid: proc.value for bid, proc in zip(block_ids, done.events)}
        return duration, payloads

    def _get_block(self, client_name: str, name: str, block_id: int, verify: bool) -> Generator:
        ent = self.directory.get(name, block_id)
        if ent is None or ent.version < 0:
            raise KeyError(f"{name}/{block_id} has never been staged")
        if self.tracer.enabled:
            # Directory lookups are host-side (no simulated cost); mark the
            # location decision as an instant so reads show locate → fetch.
            self.tracer.instant(
                "get.locate", category="request",
                entity=f"{name}/{block_id}", primary=ent.primary, state=ent.state.name,
            )
        payload = yield from self.runtime.read_entity(
            ent, client_name, repair=self.policy.repair_on_access
        )
        if verify:
            digest = yield from self.runtime.compute(
                lambda: payload_digest(payload), int(payload.size), category="digest"
            )
            if digest != ent.digest:
                self.read_errors += 1
                raise DataLossError(
                    f"digest mismatch reading {name}/{block_id}@v{ent.version}"
                )
        # Synchronous notification (no simulated events): policies feed
        # read-access statistics for adaptive tiering from here.
        self.policy.on_read(ent, self.step)
        return payload

    # ------------------------------------------------------------------
    # step orchestration
    # ------------------------------------------------------------------
    def end_step(self) -> Generator:
        """Barrier at the end of a timestep (runs the policy's step hook).

        In async-protection mode the barrier also quiesces the outstanding
        background protection work, so step boundaries are always fully
        protected states (failures injected at boundaries never hit the
        unprotected ACK window).
        """
        if self._protect_procs:
            pending = [p for p in self._protect_procs if p.is_alive]
            self._protect_procs.clear()
            if pending:
                yield AllOf(self.sim, pending)
        yield from self.policy.on_step_end(self.step)
        self.metrics.sample_efficiency(self.sim.now)
        self.step += 1

    def flush(self) -> Generator:
        """Force full protection of everything staged (workflow barrier)."""
        yield from self.policy.on_flush()

    def run(self, until=None):
        return self.sim.run(until)

    def run_workflow(self, workflow_gen) -> None:
        """Drive a workflow generator to completion on the simulator."""
        done = self.sim.process(workflow_gen, name="workflow")
        self.sim.run(until=done)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def fail_server(self, sid: int) -> None:
        self.servers[sid].fail()
        self.log.emit(self.sim.now, "server_failed", source=f"s{sid}", server=sid)
        self.tracer.instant("failure.detect", category="failure", server=sid)
        self.policy.on_server_failed(sid)

    def replace_server(self, sid: int) -> None:
        self.servers[sid].replace()
        self.log.emit(self.sim.now, "server_replaced", source=f"s{sid}", server=sid)
        self.tracer.instant("failure.replace", category="failure", server=sid)
        self.policy.on_server_replaced(sid)

    def _ensure_writable_primary(self, ent: BlockEntity) -> None:
        """Redirect the entity's primary if its server is down (no cost:
        pure metadata decision made from the directory)."""
        if not self.servers[ent.primary].failed:
            return
        if ent.state == ResilienceState.REPLICATED:
            live = [r for r in ent.replicas if not self.servers[r].failed]
            if live:
                new_primary = live[0]
                srv = self.servers[new_primary]
                if srv.has(f"R/{ent.name}/{ent.block_id}"):
                    srv.store_bytes(primary_key(ent), srv.fetch_bytes(f"R/{ent.name}/{ent.block_id}"))
                    srv.delete_bytes(f"R/{ent.name}/{ent.block_id}")
                    # The promoted bytes are the replica copy's version.
                    ent.stored_version = ent.replica_version
                ent.primary = new_primary
                ent.replicas = [r for r in ent.replicas if r != new_primary]
                new_accounted = ent.nbytes * len(ent.replicas)
                self.metrics.storage.replica += new_accounted - ent.replica_bytes_accounted
                ent.replica_bytes_accounted = new_accounted
                return
        if ent.state == ResilienceState.ENCODED and ent.stripe is not None:
            stripe = ent.stripe
            slot = stripe.member_shard_index(ent.key)
            members = self.layout.coding_group_members(stripe.group_id)
            # Occupancy counts real shards only: a vacant slot's placeholder
            # server holds no bytes, and counting it here starves ``free``
            # and doubles two live data shards onto one server (a single
            # further failure would then exceed the code's tolerance).
            occupied = stripe.occupied_servers()
            free = [
                s for s in members
                if not self.servers[s].failed and s not in occupied
            ]
            alive = [s for s in members if not self.servers[s].failed]
            if not alive:
                raise DataLossError(f"coding group of {ent.key} entirely failed")
            new_primary = free[0] if free else min(
                alive, key=lambda s: (self.servers[s].workload_level(), s)
            )
            stripe.retarget_shard(slot, new_primary)
            ent.primary = new_primary
            return
        if ent.state == ResilienceState.PENDING_STRIPE:
            self.runtime.redirect_pending(ent)
            return
        # Unprotected: stay inside the primary's coding group if any member
        # is alive (every other redirect path above is group-confined too,
        # which is what keeps an entity's whole footprint in one failure
        # domain — and in one shard of a partitioned deployment); fall back
        # to the global ring successor only when the entire group is down.
        members = self.layout.coding_group_members(
            self.layout.coding_group_id(ent.primary)
        )
        start = members.index(ent.primary)
        for off in range(1, len(members)):
            cand = members[(start + off) % len(members)]
            if not self.servers[cand].failed:
                ent.primary = cand
                return
        ring = self.layout.ring
        pos = self.layout.pos[ent.primary]
        for off in range(1, len(ring)):
            cand = ring[(pos + off) % len(ring)]
            if not self.servers[cand].failed:
                ent.primary = cand
                return
        raise DataLossError("no alive staging server available")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def alive_servers(self) -> list[int]:
        return [s.server_id for s in self.servers if not s.failed]

    def audit_probe(self, ent):
        """One entity's read audit as a flow: the real read path (replica
        fallback, degraded decode, no repair), then the digest check.
        Raises :class:`DataLossError` when the entity cannot be served."""
        payload = yield from self.runtime.read_entity(ent, "auditor", repair=False)
        if payload_digest(payload) != ent.digest:
            raise DataLossError(f"audit digest mismatch for {ent.key}")

    def verify_all(self) -> dict:
        """Off-line audit: try to serve every staged entity and verify it.

        Runs the real read paths (replica fallback, degraded decode) on a
        probe client without recording metrics-relevant response times as
        application traffic.  Returns counts of verified and unrecoverable
        entities — the end-of-run invariant most tests want in one call.
        """
        verified = 0
        unrecoverable = []
        for key in list(self.directory.entities):
            ent = self.directory.entities[key]
            if ent.version < 0:
                continue
            try:
                self.run_workflow(self.audit_probe(ent))
                verified += 1
            except DataLossError:
                unrecoverable.append(key)
        return {"verified": verified, "unrecoverable": unrecoverable}

    def projection(self) -> dict:
        """The one deterministic dump of a deployment: its timing-free state.

        Everything here must be identical across backends at a quiescent
        point: directory metadata, stripe geometry and membership, each
        server's store contents (key → ``content_id``), pending-encode pools
        and durability-relevant counters.  Clock readings, response times and
        transfer stats are deliberately excluded.  Tape pins
        (``projection_sha256``), the conformance diffs and the chaos
        fingerprint all hash this.
        """
        # Each store payload is hashed once, here; an entity's digest is its
        # primary copy's entry in that table (absent while the primary is down),
        # so the projection never reads the request path's CRC.
        stores = {
            srv.server_id: {key: content_id(srv.store[key]) for key in sorted(srv.store)}
            for srv in self.servers
        }
        entities = {}
        for (name, block), ent in sorted(self.directory.entities.items()):
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
        for sid, stripe in sorted(self.directory.stripes.items()):
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
            for srv in self.servers
        ]
        pending = {
            gid: {
                srv: [f"{k[0]}/{k[1]}" for k in queue]
                for srv, queue in sorted(group.items())
                if queue
            }
            for gid, group in sorted(self.runtime.pending.items())
            if any(queue for queue in group.values())
        }
        storage = self.metrics.storage
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
            "read_errors": self.read_errors,
        }

    def storage_report(self) -> dict:
        logical = self.directory.storage_breakdown()
        return {
            "logical": logical,
            "accounted": {
                "original": self.metrics.storage.original,
                "replica": self.metrics.storage.replica,
                "parity": self.metrics.storage.parity,
            },
            "efficiency": self.metrics.storage.efficiency(),
            "physical_bytes": {s.name: s.bytes_stored for s in self.servers},
        }


# ---------------------------------------------------------------------------
# projection helpers
# ---------------------------------------------------------------------------
def normalize_projection(projection: dict) -> dict:
    """JSON round-trip of a projection (int dict keys become strings).

    Wire projections pass through JSON headers, which stringifies the
    stripe-id and group-id keys; normalizing the in-process reference the
    same way makes :func:`diff_projections` comparisons exact.
    """
    return json.loads(json.dumps(projection))


def projection_sha256(projection: dict) -> str:
    """Canonical hash of a (normalized) :meth:`StagingService.projection`."""
    canon = json.dumps(normalize_projection(projection), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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
