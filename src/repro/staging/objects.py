"""Object model of the staging service.

The unit of resilience is the *block entity*: one spatial block of one
staged variable.  Writers update entities with new versions; the resilience
policy attaches a protection state (replicated / erasure coded) to each
entity; the classifier tracks each entity's write history.

Payloads are real byte buffers (numpy ``uint8``) so that recovery tests can
assert byte-exact reconstruction after failures — the simulator models the
*time* of operations while the object layer performs the actual data
manipulation.
"""

from __future__ import annotations

import enum
import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.staging.domain import BBox

__all__ = ["ObjectId", "DataObject", "ResilienceState", "BlockEntity", "StripeInfo"]


@dataclass(frozen=True)
class ObjectId:
    """Identity of one staged object version: (variable, block, version)."""

    name: str
    block_id: int
    version: int

    def key(self) -> str:
        return f"{self.name}/{self.block_id}@{self.version}"

    def entity_key(self) -> tuple[str, int]:
        """The version-less entity this object belongs to."""
        return (self.name, self.block_id)


def payload_digest(data: np.ndarray) -> str:
    """Corruption checksum of the request path: CRC-32 of the bytes.

    What a put records on its entity and what a verified get and both
    ``verify_all`` audits compare against (the role iSCSI and ext4 give a
    CRC).  Runs over the contiguous uint8 view in place, at about a
    quarter of a millisecond per MiB with the GIL released.  It detects
    corruption; it is not an identity — 32 bits collide, so nothing that
    is recorded or compared across runs may use it (that is
    :func:`content_id`).
    """
    view = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
    return "%08x" % zlib.crc32(view)


def content_id(data: np.ndarray) -> str:
    """Stable 96-bit identity of a payload (blake2b), off the request path.

    What tapes, conformance projections and server snapshots record and
    compare; about five times the cost of :func:`payload_digest` per byte,
    which is why no put or get computes it.
    """
    view = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
    return hashlib.blake2b(view, digest_size=12).hexdigest()


@dataclass
class DataObject:
    """One staged object version with its payload."""

    oid: ObjectId
    bbox: BBox
    payload: np.ndarray

    def __post_init__(self) -> None:
        self.payload = np.ascontiguousarray(self.payload, dtype=np.uint8).ravel()

    @property
    def nbytes(self) -> int:
        return int(self.payload.size)

    def digest(self) -> str:
        return payload_digest(self.payload)


class ResilienceState(enum.Enum):
    """Protection state of a block entity."""

    NONE = "none"            # staged only on its primary (no fault tolerance)
    REPLICATED = "replicated"  # N_level full copies on other servers
    ENCODED = "encoded"      # member of an erasure-coded stripe
    PENDING_STRIPE = "pending"  # queued for encoding, not yet in a stripe


@dataclass
class StripeInfo:
    """One erasure-coded stripe: k data slots plus m parities.

    ``members[i]`` is the entity key occupying data-shard slot ``i`` or
    ``None`` for a *vacant* slot (an all-zero virtual shard — created when a
    member is promoted back to replication, or when a partial stripe is
    flushed).  ``shard_servers`` lists the server responsible for each of
    the ``k+m`` shards (data first); vacant slots keep their placeholder
    server so a later entity on that server can refill the slot with a
    cheap parity delta-update.  ``lengths`` are original payload lengths
    (0 for vacant); decode strips the padding.  ``member_versions`` pins the
    entity version each slot currently encodes.
    """

    stripe_id: int
    k: int
    m: int
    members: list[Optional[tuple[str, int]]]
    member_versions: dict[tuple[str, int], int]
    shard_servers: list[int]
    lengths: list[int]
    shard_len: int
    # Coding group this stripe belongs to, fixed at formation time.  A
    # rehomed shard can temporarily live off-group, so the group identity
    # must not be re-derived from ``shard_servers``.
    group_id: int = -1
    # The exact (padded) data-shard payloads the parity currently encodes.
    # This is the read-before-overwrite baseline a real implementation gets
    # for free by reading the old object during a read-modify-write; here
    # the service applies writes through a separate path, so the stripe
    # carries its baseline explicitly.  Used only for delta computation —
    # failure reconstruction always decodes from the physically stored
    # shards.  ``None`` entries are vacant (all-zero) slots.
    baseline: list = field(default_factory=list, repr=False, compare=False)

    # Back-reference to the owning MetadataDirectory (set by
    # ``register_stripe``); mutations route index updates through it.
    _dir = None

    def data_servers(self) -> list[int]:
        return self.shard_servers[: self.k]

    def parity_servers(self) -> list[int]:
        return self.shard_servers[self.k :]

    def shard_key(self, shard_index: int) -> str:
        return f"stripe{self.stripe_id}/shard{shard_index}"

    def member_shard_index(self, entity_key: tuple[str, int]) -> int:
        return self.members.index(entity_key)

    def vacant_slots(self) -> list[int]:
        return [i for i, mk in enumerate(self.members) if mk is None]

    def occupied_servers(self) -> set[int]:
        """Servers holding a *real* shard: occupied data slots plus parities.

        Vacant slots are excluded — their placeholder server stores no
        bytes, so placement decisions (rehoming, refills) must not treat it
        as taken or they double real shards while a group member sits idle.
        """
        holders = {
            self.shard_servers[i]
            for i, mk in enumerate(self.members)
            if mk is not None
        }
        holders.update(self.shard_servers[self.k:])
        return holders

    def is_empty(self) -> bool:
        """True when every data slot is vacant (stripe can be reclaimed)."""
        return all(mk is None for mk in self.members)

    # --- index-maintaining mutations ---------------------------------
    # All placement changes go through these so the directory's reverse
    # indexes (server -> stripes, group -> vacant stripes) stay exact.

    def retarget_shard(self, shard_index: int, server: int) -> None:
        """Move shard ``shard_index`` (data or parity) to ``server``."""
        old = self.shard_servers[shard_index]
        self.shard_servers[shard_index] = server
        if self._dir is not None:
            self._dir._stripe_retargeted(self, old, server)

    def fill_slot(self, slot: int, entity_key: tuple[str, int], server: int) -> None:
        """Occupy vacant data slot ``slot`` with ``entity_key`` on ``server``."""
        old = self.shard_servers[slot]
        self.members[slot] = entity_key
        self.shard_servers[slot] = server
        if self._dir is not None:
            self._dir._stripe_slot_filled(self, old, server)

    def vacate_slot(self, slot: int) -> None:
        """Empty data slot ``slot``; the placeholder server stays behind."""
        self.members[slot] = None
        if self._dir is not None:
            self._dir._stripe_slot_vacated(self)


@dataclass
class BlockEntity:
    """One protected spatial block of a staged variable.

    Carries the current version/payload bookkeeping, the resilience state,
    and the access counters the CoREC classifier reads (paper Section II-C:
    "we use reference counters to record the access frequency of each data
    object").
    """

    name: str
    block_id: int
    bbox: BBox
    primary: int
    version: int = -1
    nbytes: int = 0
    state: ResilienceState = ResilienceState.NONE
    replicas: list[int] = field(default_factory=list)
    stripe: Optional[StripeInfo] = None

    # --- classifier bookkeeping -------------------------------------
    write_count: int = 0          # lifetime writes
    ref_counter: int = 0          # accesses since the last state transition
    last_write_time: float = -1.0
    last_write_step: int = -1
    digest: str = ""              # payload_digest (CRC-32) of the current payload
    transition_in_flight: bool = False  # async promote/demote already queued
    replica_bytes_accounted: int = 0    # logical replica bytes in the accountant
    # Version the replica copies hold.  Reads may serve a replica only when
    # this matches ``version``: leftover copies kept through a drifted
    # encode (or mid-refresh) hold older bytes, and serving them silently
    # returns stale data.  ``-1`` (or any mismatch) means "don't trust".
    replica_version: int = -1
    # Version of the bytes the primary store currently holds.  A writer
    # bumps ``version`` (under the entity lock) before its store lands, and
    # flows that do NOT hold the entity lock — stripe formation snapshots,
    # reconciles — read the primary in that window.  Pairing every fetch
    # with this stamp (instead of ``version``) keeps "which bytes did I
    # actually capture" exact; restores from replicas/stripes stamp the
    # version of the bytes they materialized.
    stored_version: int = -1
    seq: int = -1                 # directory insertion order (stable sort key)

    # Back-reference to the owning MetadataDirectory (set by
    # ``get_or_create``); placement/state writes notify it so the reverse
    # indexes track every mutation, wherever it happens.
    _dir = None
    _indexed_attrs = frozenset(("primary", "state", "replicas"))

    def __setattr__(self, name: str, value) -> None:
        d = self._dir
        if d is not None and name in self._indexed_attrs:
            old = getattr(self, name)
            object.__setattr__(self, name, value)
            d._entity_index_update(self, name, old, value)
        else:
            object.__setattr__(self, name, value)

    @property
    def key(self) -> tuple[str, int]:
        return (self.name, self.block_id)

    @property
    def current_oid(self) -> ObjectId:
        return ObjectId(self.name, self.block_id, self.version)

    def record_write(self, t: float, step: int, nbytes: int, digest: str) -> None:
        self.version += 1
        self.write_count += 1
        self.ref_counter += 1
        self.last_write_time = t
        self.last_write_step = step
        self.nbytes = nbytes
        self.digest = digest

    def reset_ref_counter(self) -> None:
        """Reset on state transition, per the paper: "once it is erasure
        coded, its access frequency is reset back to zero"."""
        self.ref_counter = 0

    def primary_key(self) -> str:
        """Key under which the *current* primary copy is stored."""
        return f"{self.name}/{self.block_id}"
