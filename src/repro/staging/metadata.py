"""Distributed object directory.

Tracks, for every block entity, where its primary copy, replicas and stripe
shards live.  In DataSpaces the directory is itself distributed across the
staging servers; we reproduce that by assigning each entity's metadata to an
owner server (by hash) and charging a metadata network message whenever a
*remote* component updates it — that is the "metadata" slice of the paper's
Figure 9 time breakdown.

The directory's *content* lives in one Python structure for simplicity
(perfectly consistent metadata), while the *cost* of keeping it consistent
is modelled through the owner mapping.
"""

from __future__ import annotations

from repro.staging.domain import BBox, Domain
from repro.staging.objects import BlockEntity, ResilienceState, StripeInfo
from repro.util.rng import stable_hash

__all__ = ["MetadataDirectory"]


class MetadataDirectory:
    """Entity registry plus metadata-owner mapping.

    Beyond the forward maps (``entities``, ``stripes``) the directory
    maintains *reverse indexes* so failure handling, recovery sweeps and
    classification touch only the records they affect instead of walking
    the whole directory:

    - ``entities_by_primary``: server id -> entity keys whose primary copy
      lives there;
    - ``entities_by_state``: resilience state -> entity keys (the hot/cold
      membership sets the classifier scans);
    - ``replicas_by_server``: server id -> entity keys with a replica there;
    - ``stripes_by_server``: server id -> stripe ids with any shard slot
      (including vacant placeholders) targeted at that server;
    - ``vacant_by_group``: coding-group id -> stripe ids with >=1 vacant
      data slot (the free list refills and compaction consume).

    The indexes are updated transactionally with every mutation:
    ``BlockEntity.__setattr__`` notifies on primary/state/replicas writes,
    and ``StripeInfo``'s mutation methods notify on shard placement
    changes.  ``op_stats`` counts index-path record touches and remaining
    full-directory walks so complexity bounds can be asserted from
    operation counts rather than wall-clock time.
    """

    def __init__(self, domain: Domain, n_servers: int, layout=None):
        self.domain = domain
        self.n_servers = n_servers
        self.layout = layout
        self.entities: dict[tuple[str, int], BlockEntity] = {}
        self.stripes: dict[int, StripeInfo] = {}
        self._next_stripe_id = 0
        self._stripes_formed_by_group: dict[int, int] = {}
        self._next_entity_seq = 0
        self.entities_by_primary: dict[int, set[tuple[str, int]]] = {}
        self.entities_by_state: dict[ResilienceState, set[tuple[str, int]]] = {
            s: set() for s in ResilienceState
        }
        self.replicas_by_server: dict[int, set[tuple[str, int]]] = {}
        self.stripes_by_server: dict[int, set[int]] = {}
        self.vacant_by_group: dict[int, set[int]] = {}
        # Plain-int operation counters (exported as registry gauges so they
        # never enter ``Metrics.counters`` and cannot perturb golden runs).
        self.op_stats = {"entity_touches": 0, "stripe_touches": 0, "full_scans": 0}
        self._owners: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    def owner_of(self, entity_key: tuple[str, int]) -> int:
        """Metadata owner server for an entity (hash distribution).

        Every write asks; the hash is taken once per key.
        """
        owner = self._owners.get(entity_key)
        if owner is None:
            name, block_id = entity_key
            owner = stable_hash(f"meta:{name}/{block_id}") % self.n_servers
            self._owners[entity_key] = owner
        return owner

    def get_or_create(self, name: str, block_id: int, primary: int) -> BlockEntity:
        key = (name, block_id)
        ent = self.entities.get(key)
        if ent is None:
            ent = BlockEntity(
                name=name,
                block_id=block_id,
                bbox=self.domain.block_bbox(block_id),
                primary=primary,
            )
            ent.seq = self._next_entity_seq
            self._next_entity_seq += 1
            self.entities[key] = ent
            self.entities_by_primary.setdefault(ent.primary, set()).add(key)
            self.entities_by_state[ent.state].add(key)
            ent._dir = self  # from here on, mutations notify the indexes
            self.op_stats["entity_touches"] += 1
        return ent

    def get(self, name: str, block_id: int) -> BlockEntity | None:
        return self.entities.get((name, block_id))

    def require(self, name: str, block_id: int) -> BlockEntity:
        ent = self.get(name, block_id)
        if ent is None:
            raise KeyError(f"no staged entity {name}/{block_id}")
        return ent

    # ------------------------------------------------------------------
    def new_stripe_id(self, group_id: int | None = None) -> int:
        """Allocate a stripe id; deterministic under directory partitioning.

        With a ``group_id`` (and a layout to size the id space), ids are
        striped per coding group: the i-th stripe formed in group ``g``
        gets ``g + n_coding_groups * i``.  Two directories that each hold
        a disjoint subset of the coding groups therefore allocate exactly
        the ids a single directory holding all groups would — which is
        what lets a sharded cluster's metadata merge byte-identically
        with a single-process run.  Without a group (or layout) the
        legacy global counter applies.
        """
        if group_id is not None and self.layout is not None:
            n_groups = self.layout.n_coding_groups()
            count = self._stripes_formed_by_group.get(group_id, 0)
            self._stripes_formed_by_group[group_id] = count + 1
            return group_id + n_groups * count
        sid = self._next_stripe_id
        self._next_stripe_id += 1
        return sid

    def stripe_seq(self, group_id: int) -> int:
        """Formation ordinal the next stripe of ``group_id`` will receive.

        Drives the per-stripe deterministic parity draws of the non-grouped
        placement modes; like :meth:`new_stripe_id` it is a pure function
        of how many stripes the group has formed, so a sharded directory
        computes exactly what a global one would.
        """
        return self._stripes_formed_by_group.get(group_id, 0)

    def register_stripe(self, stripe: StripeInfo) -> None:
        if stripe.group_id < 0 and self.layout is not None:
            stripe.group_id = self.layout.coding_group_id(stripe.shard_servers[0])
        self.stripes[stripe.stripe_id] = stripe
        for srv in set(stripe.shard_servers):
            self.stripes_by_server.setdefault(srv, set()).add(stripe.stripe_id)
        if stripe.vacant_slots():
            self.vacant_by_group.setdefault(stripe.group_id, set()).add(stripe.stripe_id)
        stripe._dir = self
        self.op_stats["stripe_touches"] += 1

    def drop_stripe(self, stripe_id: int) -> None:
        stripe = self.stripes.pop(stripe_id, None)
        if stripe is None:
            return
        stripe._dir = None
        for srv in set(stripe.shard_servers):
            self.stripes_by_server.get(srv, set()).discard(stripe_id)
        self.vacant_by_group.get(stripe.group_id, set()).discard(stripe_id)
        self.op_stats["stripe_touches"] += 1

    # ------------------------------------------------------------------
    # index-maintenance notifications (called from the object layer)
    # ------------------------------------------------------------------
    def _entity_index_update(self, ent: BlockEntity, attr: str, old, new) -> None:
        key = ent.key
        if attr == "primary":
            if old != new:
                self.entities_by_primary.get(old, set()).discard(key)
                self.entities_by_primary.setdefault(new, set()).add(key)
        elif attr == "state":
            if old != new:
                self.entities_by_state[old].discard(key)
                self.entities_by_state[new].add(key)
        else:  # replicas
            old_set, new_set = set(old or ()), set(new or ())
            for srv in old_set - new_set:
                self.replicas_by_server.get(srv, set()).discard(key)
            for srv in new_set - old_set:
                self.replicas_by_server.setdefault(srv, set()).add(key)
        self.op_stats["entity_touches"] += 1

    def _stripe_retargeted(self, stripe: StripeInfo, old: int, new: int) -> None:
        if old != new:
            if old not in stripe.shard_servers:
                self.stripes_by_server.get(old, set()).discard(stripe.stripe_id)
            self.stripes_by_server.setdefault(new, set()).add(stripe.stripe_id)
        self.op_stats["stripe_touches"] += 1

    def _stripe_slot_filled(self, stripe: StripeInfo, old: int, new: int) -> None:
        self._stripe_retargeted(stripe, old, new)
        if not stripe.vacant_slots():
            self.vacant_by_group.get(stripe.group_id, set()).discard(stripe.stripe_id)

    def _stripe_slot_vacated(self, stripe: StripeInfo) -> None:
        self.vacant_by_group.setdefault(stripe.group_id, set()).add(stripe.stripe_id)
        self.op_stats["stripe_touches"] += 1

    # ------------------------------------------------------------------
    # aggregate queries used by metrics and tests
    # ------------------------------------------------------------------
    def entities_on_server(self, server_id: int) -> list[BlockEntity]:
        """Entities whose primary copy lives on ``server_id``.

        Served from the reverse index in O(entities on that server); the
        ``seq`` sort reproduces directory insertion order, so consumers see
        the same ordering the old full scan produced.
        """
        keys = self.entities_by_primary.get(server_id, ())
        self.op_stats["entity_touches"] += len(keys)
        return sorted((self.entities[k] for k in keys), key=lambda e: e.seq)

    def entities_in_state(self, state: ResilienceState) -> list[BlockEntity]:
        keys = self.entities_by_state[state]
        self.op_stats["entity_touches"] += len(keys)
        return sorted((self.entities[k] for k in keys), key=lambda e: e.seq)

    def replicas_on_server(self, server_id: int) -> list[BlockEntity]:
        """Entities holding a replica on ``server_id`` (insertion order)."""
        keys = self.replicas_by_server.get(server_id, ())
        self.op_stats["entity_touches"] += len(keys)
        return sorted((self.entities[k] for k in keys), key=lambda e: e.seq)

    def stripes_on_server(self, server_id: int) -> list[StripeInfo]:
        """Stripes with any shard slot targeted at ``server_id`` (id order)."""
        ids = self.stripes_by_server.get(server_id, ())
        self.op_stats["stripe_touches"] += len(ids)
        return [self.stripes[sid] for sid in sorted(ids)]

    def vacant_stripes(self, group_id: int) -> list[StripeInfo]:
        """Stripes of one coding group with >=1 vacant data slot (id order)."""
        ids = self.vacant_by_group.get(group_id, ())
        self.op_stats["stripe_touches"] += len(ids)
        return [self.stripes[sid] for sid in sorted(ids)]

    def storage_breakdown(self) -> dict[str, int]:
        """Bytes of original data vs redundancy currently promised.

        Computed from metadata (entity sizes and states), independent of the
        per-server stores, so tests can cross-check the two.
        """
        self.op_stats["full_scans"] += 1
        original = 0
        replica_overhead = 0
        parity_overhead = 0
        counted_stripes: set[int] = set()
        for ent in self.entities.values():
            if ent.version < 0:
                continue
            original += ent.nbytes
            if ent.replicas:
                # Replicas may persist through a pending demotion, so they
                # are counted by presence, not by state.
                replica_overhead += ent.nbytes * len(ent.replicas)
            if ent.state == ResilienceState.ENCODED and ent.stripe is not None:
                if ent.stripe.stripe_id not in counted_stripes:
                    counted_stripes.add(ent.stripe.stripe_id)
                    parity_overhead += ent.stripe.shard_len * ent.stripe.m
        return {
            "original": original,
            "replica_overhead": replica_overhead,
            "parity_overhead": parity_overhead,
        }

    def storage_efficiency(self) -> float:
        """original / (original + redundancy); 1.0 when nothing is staged."""
        b = self.storage_breakdown()
        total = b["original"] + b["replica_overhead"] + b["parity_overhead"]
        return b["original"] / total if total else 1.0
