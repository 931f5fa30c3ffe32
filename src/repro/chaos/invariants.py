"""Invariant checkers over a live :class:`~repro.staging.service.StagingService`.

Each checker inspects service state *without* scheduling simulator events
and returns a list of human-readable problem strings (empty = invariant
holds).  Checkers come in two tiers:

- **ONLINE** — valid at any instant between simulator events, even with
  puts/gets/encodes/recoveries in flight.  Entities (or stripes) whose
  lock is currently held are exempt: a held lock means a flow is mutating
  that object and its intermediate states are not required to satisfy the
  invariant.
- **QUIESCENT** — valid only when the simulator is fully drained
  (``sim.peek() == inf``): no process can be mid-flight, so the strict
  versions of the consistency properties must hold exactly.

The quiescent tier includes the online tier.  :func:`run_invariants` is
the single entry point used by chaos campaigns (`repro.chaos.campaign`)
and by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core.runtime import primary_key, replica_key
from repro.staging.objects import ResilienceState

__all__ = [
    "ONLINE",
    "QUIESCENT",
    "Violation",
    "Invariant",
    "INVARIANTS",
    "run_invariants",
    "audit_violations",
]

ONLINE = "online"
QUIESCENT = "quiescent"


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which invariant, what exactly, and when."""

    invariant: str
    detail: str
    t: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant} @ t={self.t:.6f}] {self.detail}"


# ----------------------------------------------------------------------
# lock-state helpers (the online-tier exemptions)
# ----------------------------------------------------------------------
def _entity_busy(svc, key) -> bool:
    lock = svc.runtime._entity_locks.get(key)
    return lock is not None and (lock.in_use > 0 or lock.queued > 0)


def _stripe_busy(svc, stripe_id: int) -> bool:
    lock = svc.runtime._stripe_locks.get(stripe_id)
    return lock is not None and (lock.in_use > 0 or lock.queued > 0)


# ----------------------------------------------------------------------
# ONLINE checkers
# ----------------------------------------------------------------------
def check_durability(svc) -> list[str]:
    """Every live entity has at least one servable source.

    A source is the primary copy, any replica copy, or a decodable stripe
    (at least ``k`` of ``k+m`` shards present).  Unprotected entities
    (``NONE`` state) are exempt — losing them on failure is the documented
    behaviour of running without a resilience policy — as are entities
    under an active lock (mutation in flight).
    """
    problems = []
    rt = svc.runtime
    for ent in svc.directory.entities.values():
        if ent.version < 0 or ent.state == ResilienceState.NONE:
            continue
        if _entity_busy(svc, ent.key):
            continue
        if ent.state == ResilienceState.PENDING_STRIPE and not ent.replicas:
            # Unprotected window of the erasure/hybrid baselines: a new
            # entity queued for encoding has only its primary copy until
            # the stripe forms (CoREC replicates new objects first, which
            # is exactly the gap the paper's hybrid scheme closes).
            continue
        stripe = ent.stripe
        if stripe is not None and _stripe_busy(svc, stripe.stripe_id):
            continue
        if svc.servers[ent.primary].has(primary_key(ent)):
            continue
        if any(svc.servers[r].has(replica_key(ent)) for r in ent.replicas):
            continue
        if (
            ent.state == ResilienceState.ENCODED
            and stripe is not None
            and ent.key in stripe.members
            and len(rt._available_shards(stripe)) >= stripe.k
        ):
            continue
        problems.append(
            f"{ent.name}/{ent.block_id}@v{ent.version} ({ent.state.value}) "
            f"has no primary, replica, or decodable stripe"
        )
    return problems


def check_bytes_conservation(svc) -> list[str]:
    """Per-server byte accounting matches the store; accountant is sane.

    ``bytes_stored`` is an incrementally-maintained counter; any drift from
    the actual store contents means a store/delete path skipped its
    bookkeeping.  Failed servers must be empty, and the storage accountant
    can never go negative.
    """
    problems = []
    for srv in svc.servers:
        actual = sum(int(v.size) for v in srv.store.values())
        if srv.bytes_stored != actual:
            problems.append(
                f"{srv.name}: bytes_stored={srv.bytes_stored} but store holds {actual}"
            )
        if srv.failed and (srv.store or srv.bytes_stored):
            problems.append(f"{srv.name}: failed but still holds objects")
    acct = svc.metrics.storage
    for field in ("original", "replica", "parity"):
        if getattr(acct, field) < 0:
            problems.append(f"storage accountant {field}={getattr(acct, field)} < 0")
    return problems


# ----------------------------------------------------------------------
# QUIESCENT checkers
# ----------------------------------------------------------------------
def check_lock_leaks(svc) -> list[str]:
    """At quiescence no entity/stripe lock may be held or queued."""
    problems = []
    for key, lock in svc.runtime._entity_locks.items():
        if lock.in_use or lock.queued:
            problems.append(
                f"entity lock {key} leaked (in_use={lock.in_use}, queued={lock.queued})"
            )
    for sid, lock in svc.runtime._stripe_locks.items():
        if lock.in_use or lock.queued:
            problems.append(
                f"stripe lock {sid} leaked (in_use={lock.in_use}, queued={lock.queued})"
            )
    return problems


def check_accounting(svc) -> list[str]:
    """The storage accountant equals the directory's logical breakdown."""
    logical = svc.directory.storage_breakdown()
    acct = svc.metrics.storage
    pairs = (
        ("original", acct.original, logical["original"]),
        ("replica", acct.replica, logical["replica_overhead"]),
        ("parity", acct.parity, logical["parity_overhead"]),
    )
    return [
        f"accountant {name}={accounted} but directory says {expected}"
        for name, accounted, expected in pairs
        if accounted != expected
    ]


def check_anti_affinity(svc) -> list[str]:
    """No two shards of a stripe share a server once rebalance had a chance.

    Failure-window rehoming may legitimately double shards when *every*
    alive group member already holds one; the violation is a doubling that
    persists while an alive, shard-free server in the coding group could
    host the shard (the recovery rebalance should have moved it there).
    """
    problems = []
    for stripe in svc.directory.stripes.values():
        holders: list[tuple[int, int]] = []
        for i in range(stripe.k):
            mk = stripe.members[i]
            if mk is None:
                continue
            holders.append((i, svc.directory.entities[mk].primary))
        for j in range(stripe.k, stripe.k + stripe.m):
            holders.append((j, stripe.shard_servers[j]))
        by_server: dict[int, list[int]] = {}
        for slot, server in holders:
            by_server.setdefault(server, []).append(slot)
        doubled = {s: slots for s, slots in by_server.items() if len(slots) > 1}
        if not doubled:
            continue
        group: set[int] = set()
        for _, server in holders:
            group.update(svc.layout.coding_group(server))
        free_alive = sorted(
            s for s in group if not svc.servers[s].failed and s not in by_server
        )
        if free_alive:
            problems.append(
                f"stripe {stripe.stripe_id}: slots {doubled} doubled while "
                f"servers {free_alive} are alive and shard-free"
            )
    return problems


def check_coding_sets(svc) -> list[str]:
    """Every stripe's server set stays within its group's allowed sets.

    The placement mode defines, per coding group, the universe of servers
    its stripes may span (`GroupLayout.allowed_stripe_servers`): the group
    members under ``grouped``, members plus the bounded cabinet-disjoint
    parity menu under ``coding_sets``, the whole cluster under ``spread``.
    A shard parked outside that universe is exempt only while rebalance
    could not have fixed it yet — i.e. it is a violation when an alive,
    shard-free server inside the universe exists.  Under ``coding_sets``
    the number of distinct parity servers in use per group must also stay
    within the menu bound (the whole point of CodingSets: a correlated
    failure intersects at most ``max_coding_sets`` extra servers per
    group).
    """
    problems = []
    layout = svc.layout
    parity_in_use: dict[int, set[int]] = {}
    for stripe in svc.directory.stripes.values():
        allowed = layout.allowed_stripe_servers(stripe.group_id)
        occupied = stripe.occupied_servers()
        holders: list[tuple[int, int]] = []
        for i in range(stripe.k):
            if stripe.members[i] is not None:
                holders.append((i, svc.directory.entities[stripe.members[i]].primary))
        for j in range(stripe.k, stripe.k + stripe.m):
            sid = stripe.shard_servers[j]
            holders.append((j, sid))
            parity_in_use.setdefault(stripe.group_id, set()).add(sid)
        strays = [(slot, s) for slot, s in holders if s not in allowed]
        if not strays:
            continue
        free_allowed = sorted(
            s for s in allowed if not svc.servers[s].failed and s not in occupied
        )
        if free_allowed:
            problems.append(
                f"stripe {stripe.stripe_id} (group {stripe.group_id}): shards "
                f"{strays} outside the allowed server set while {free_allowed} "
                f"are alive and shard-free inside it"
            )
    if layout.placement_mode == "coding_sets":
        for gid, servers in sorted(parity_in_use.items()):
            menu = set(layout.coding_sets_menu(gid))
            members = set(layout.coding_group_members(gid))
            # Group members are always legitimate fallback hosts; the bound
            # applies to the off-group parity choices the menu controls.
            distinct = servers - members
            bound = max(layout.m, len(menu))
            if menu and len(distinct) > bound:
                problems.append(
                    f"group {gid}: {len(distinct)} distinct off-group parity "
                    f"servers {sorted(distinct)} exceed the coding-sets menu "
                    f"bound {bound}"
                )
    return problems


def check_store_consistency(svc) -> list[str]:
    """Every stored object is one the directory placed on that server.

    Orphan bytes (keys the metadata does not know about, or copies the
    directory places elsewhere) indicate a flow that moved or dropped an
    object without cleaning up — they silently eat staging memory and can
    serve stale data through direct-key reads.
    """
    problems = []
    for srv in svc.servers:
        if srv.failed:
            continue
        sid = srv.server_id
        for key in srv.store:
            if key.startswith("stripe"):
                sid_str, sep, shard_str = key[len("stripe"):].partition("/shard")
                stripe = (
                    svc.directory.stripes.get(int(sid_str))
                    if sep and sid_str.isdigit() and shard_str.isdigit()
                    else None
                )
                if stripe is None:
                    problems.append(f"{srv.name}: orphan shard {key!r} (no such stripe)")
                elif stripe.shard_servers[int(shard_str)] != sid:
                    problems.append(
                        f"{srv.name}: stale shard {key!r} (directory places it on "
                        f"s{stripe.shard_servers[int(shard_str)]})"
                    )
            elif key.startswith("R/"):
                name, _, block_str = key[2:].rpartition("/")
                ent = svc.directory.get(name, int(block_str)) if block_str.isdigit() else None
                if ent is None:
                    problems.append(f"{srv.name}: orphan replica {key!r}")
                elif sid not in ent.replicas:
                    problems.append(
                        f"{srv.name}: replica {key!r} not in the entity's replica set "
                        f"{ent.replicas}"
                    )
            elif key.startswith("P/"):
                name, _, block_str = key[2:].rpartition("/")
                ent = svc.directory.get(name, int(block_str)) if block_str.isdigit() else None
                if ent is None:
                    problems.append(f"{srv.name}: orphan primary {key!r}")
                elif ent.primary != sid:
                    problems.append(
                        f"{srv.name}: primary copy {key!r} but the directory points "
                        f"at s{ent.primary}"
                    )
            else:
                problems.append(f"{srv.name}: unrecognized store key {key!r}")
    return problems


def check_parity_integrity(svc) -> list[str]:
    """Stored parity shards equal a re-encode of the current data shards.

    Uses the runtime's shard-payload resolution, which substitutes the
    stripe's baseline for members whose newer version has not been folded
    into the parity yet (the async-protection window), so a drifted member
    is not a false positive.
    """
    problems = []
    rt = svc.runtime
    for stripe in svc.directory.stripes.values():
        avail = rt._available_shards(stripe)
        if any(
            stripe.members[i] is not None and i not in avail for i in range(stripe.k)
        ):
            # A degraded stripe (lost data shard not yet repaired) is the
            # durability checker's case; re-encoding would need a decode.
            continue
        data = [rt._shard_payload(stripe, i) for i in range(stripe.k)]
        expected = svc.codec.code.encode(data)
        for j in range(stripe.m):
            idx = stripe.k + j
            srv = svc.servers[stripe.shard_servers[idx]]
            if not srv.has(stripe.shard_key(idx)):
                continue  # a *lost* parity is the durability checker's case
            got = srv.store[stripe.shard_key(idx)]
            if not np.array_equal(got, expected[j]):
                problems.append(
                    f"stripe {stripe.stripe_id}: parity shard {idx} on {srv.name} "
                    f"does not match a re-encode of its members"
                )
    return problems


def check_reverse_indexes(svc) -> list[str]:
    """Every directory reverse index exactly mirrors the forward maps.

    Rebuilds each index from scratch out of the entities/stripes dicts and
    diffs it against the incrementally-maintained one — any divergence
    means some mutation path bypassed the index-update hooks.
    """
    problems = []
    d = svc.directory

    def diff(label: str, maintained: dict, expected: dict) -> None:
        for k in sorted(set(maintained) | set(expected), key=str):
            got = maintained.get(k, set())
            want = expected.get(k, set())
            if got != want:
                problems.append(
                    f"{label}[{k}]: maintained {sorted(got, key=str)} != "
                    f"rebuilt {sorted(want, key=str)}"
                )

    exp_primary: dict[int, set] = {}
    exp_state: dict[ResilienceState, set] = {s: set() for s in ResilienceState}
    exp_replicas: dict[int, set] = {}
    for key, ent in d.entities.items():
        exp_primary.setdefault(ent.primary, set()).add(key)
        exp_state[ent.state].add(key)
        for r in ent.replicas:
            exp_replicas.setdefault(r, set()).add(key)
    # Drop empty sets on both sides: an index legitimately keeps an empty
    # set for a server whose last entity moved away.
    diff(
        "entities_by_primary",
        {k: v for k, v in d.entities_by_primary.items() if v},
        exp_primary,
    )
    diff(
        "entities_by_state",
        {k: v for k, v in d.entities_by_state.items() if v},
        {k: v for k, v in exp_state.items() if v},
    )
    diff(
        "replicas_by_server",
        {k: v for k, v in d.replicas_by_server.items() if v},
        exp_replicas,
    )

    exp_stripes: dict[int, set[int]] = {}
    exp_vacant: dict[int, set[int]] = {}
    for sid, stripe in d.stripes.items():
        for srv in set(stripe.shard_servers):
            exp_stripes.setdefault(srv, set()).add(sid)
        if stripe.vacant_slots():
            exp_vacant.setdefault(stripe.group_id, set()).add(sid)
        if stripe._dir is not d:
            problems.append(f"stripe {sid}: directory back-reference not set")
    diff(
        "stripes_by_server",
        {k: v for k, v in d.stripes_by_server.items() if v},
        exp_stripes,
    )
    diff(
        "vacant_by_group",
        {k: v for k, v in d.vacant_by_group.items() if v},
        exp_vacant,
    )

    for key, ent in d.entities.items():
        if ent._dir is not d:
            problems.append(f"entity {key}: directory back-reference not set")
        if ent.seq < 0:
            problems.append(f"entity {key}: no insertion sequence assigned")
    return problems


def audit_violations(svc, audit) -> list[str]:
    """Fold a ``verify_all`` audit result into violation strings.

    Shared by :func:`check_digest_audit` (sim) and the live server's
    ``invariants`` wire op (which must run the audit through its own
    async read paths): known unprotected-window losses are exempt, every
    other unrecoverable entity is a durability violation.
    """
    problems = []
    for name, block in audit["unrecoverable"]:
        ent = svc.directory.get(name, block)
        if (
            ent is not None
            and ent.state in (ResilienceState.NONE, ResilienceState.PENDING_STRIPE)
            and not ent.replicas
            and not svc.servers[ent.primary].has(primary_key(ent))
        ):
            # Known unprotected-window loss (see check_durability): the
            # entity died before any resilience scheme covered it.
            continue
        problems.append(f"entity {name}/{block} unrecoverable")
    return problems


def check_digest_audit(svc) -> list[str]:
    """Full byte-exact audit through the real read paths.

    The only checker that *runs* the simulator (degraded decodes cost
    simulated time), which is why it must come last and only at
    quiescence.
    """
    return audit_violations(svc, svc.verify_all())


# ----------------------------------------------------------------------
# registry / entry point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Invariant:
    name: str
    tier: str
    fn: Callable


#: Ordered registry.  Quiescent checks that only inspect state run before
#: ``digest_audit``, which advances simulated time.
INVARIANTS: tuple[Invariant, ...] = (
    Invariant("durability", ONLINE, check_durability),
    Invariant("bytes_conservation", ONLINE, check_bytes_conservation),
    Invariant("lock_leaks", QUIESCENT, check_lock_leaks),
    Invariant("accounting", QUIESCENT, check_accounting),
    Invariant("anti_affinity", QUIESCENT, check_anti_affinity),
    Invariant("coding_sets", QUIESCENT, check_coding_sets),
    Invariant("store_consistency", QUIESCENT, check_store_consistency),
    Invariant("parity_integrity", QUIESCENT, check_parity_integrity),
    Invariant("reverse_indexes", QUIESCENT, check_reverse_indexes),
    Invariant("digest_audit", QUIESCENT, check_digest_audit),
)


def run_invariants(
    svc, tier: str = ONLINE, names: Iterable[str] | None = None
) -> list[Violation]:
    """Run the checker suite; quiescent tier includes the online tier.

    ``names`` restricts to a subset (still tier-filtered).  Requesting the
    quiescent tier on a non-drained simulator is a usage error — the
    strict checks would report phantom violations for in-flight work.
    """
    if tier not in (ONLINE, QUIESCENT):
        raise ValueError(f"unknown invariant tier {tier!r}")
    if tier == QUIESCENT and svc.sim.peek() != float("inf"):
        raise RuntimeError("quiescent invariants require a drained simulator")
    wanted = None if names is None else set(names)
    out: list[Violation] = []
    for inv in INVARIANTS:
        if tier == ONLINE and inv.tier != ONLINE:
            continue
        if wanted is not None and inv.name not in wanted:
            continue
        t = svc.sim.now
        out.extend(Violation(inv.name, detail, t) for detail in inv.fn(svc))
    return out
