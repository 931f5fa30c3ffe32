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

from repro.erasure.gf256 import GF256
from repro.staging.domain import BBox

__all__ = ["ResilienceState", "BlockEntity", "StripeInfo"]


#: Views at least this long take the native CRC fold.  The call is one C
#: entry taking the view as a buffer (~0.3 us); below this the fold saves
#: less than that or loses cold.  Per view in us, zlib / 128-bit body /
#: wide body, on one core of a 2-vCPU x86-64 with AVX-512 (median of 400,
#: range over three rounds; cold is after 3 MiB of copies):
#:
#:   512 B   hot  0.6 / 0.3-0.4 / 0.3-0.4     cold  2.6-3.2 / 2.5-2.8 / 2.4-2.9
#:   1 KiB   hot  0.6-0.7 / 0.4-0.6 / 0.3     cold  4.1-4.5 / 3.3-3.5 / 3.0-3.3
#:   2 KiB   hot  1.3-1.4 / 0.6 / 0.4-0.5     cold  4.3-4.7 / 3.0-3.1 / 2.7-3.0
#:   4 KiB   hot  1.5-1.6 / 0.5-0.9 / 0.4     cold  5.2-6.3 / 3.4-3.6 / 1.7-2.4
#:   16 KiB  hot  5.0-8.1 / 1.2 / 0.8-0.9     cold  11-12 / 4.6-4.8 / 3.8-3.9
#:   64 KiB  hot  34-36 / 4.1 / 2.0           cold  34-37 / 8.1-10 / 7.0-7.9
#:
#: Hot and cold, the fold wins by more than a microsecond on either body
#: from 2 KiB; at 512 B the cold ranges overlap.  Winning hot is not
#: enough: with the cut where the fold lost cold, the simulator's 16 KiB
#: gets read 4 % slower.
NATIVE_CRC_MIN_BYTES = 2 * 1024


def payload_digest(data: np.ndarray) -> str:
    """Corruption checksum of the request path: CRC-32 of the bytes.

    What a put records on its entity and what a verified get and both
    ``verify_all`` audits compare against (the role iSCSI and ext4 give a
    CRC).  Runs over the contiguous uint8 view in place with the GIL
    released.  From :data:`NATIVE_CRC_MIN_BYTES` up, and where the native
    kernel loaded on a host with a fold body, one call of
    :attr:`NativeKernel.crc32 <repro.erasure.native.NativeKernel.crc32>`:
    4 x 512-bit lanes where the host has VPCLMULQDQ and AVX-512 (about
    0.02 ns/B, 21 us per hot MiB, 50-70 us once it left L2), else 4 x
    128-bit lanes (about 0.06 ns/B, 60 us per hot MiB), the last 0-15
    bytes by table; otherwise ``zlib.crc32`` (about 0.25 ns/B, 250 us per
    MiB).  Both routes return the same value.  It detects corruption; it
    is not an identity — 32 bits collide, so nothing that is recorded or
    compared across runs may use it (that is :func:`content_id`).
    """
    view = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
    if view.size >= NATIVE_CRC_MIN_BYTES:
        native = GF256.native_kernel()
        if native is not None and native.crc_level:
            return "%08x" % native.crc32(view)
    return "%08x" % zlib.crc32(view)


def content_id(data: np.ndarray) -> str:
    """Stable 96-bit identity of a payload (blake2b), off the request path.

    What tapes, conformance projections and server snapshots record and
    compare; about five times the cost of :func:`payload_digest` per byte,
    which is why no put or get computes it.
    """
    view = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
    return hashlib.blake2b(view, digest_size=12).hexdigest()


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
    flushed).  The stripe stores a server only where no entity records
    one: ``parity_servers[j]`` holds parity shard ``k+j``, and
    ``placeholders`` maps each vacant slot to the server a later entity
    may refill it from with a cheap parity delta-update.  An occupied
    slot's server is its member's ``primary`` — one record, so a member
    that moves takes its slot along (:meth:`holders` resolves it).  A
    slot's payload length is its member's ``nbytes`` (every write stores
    the whole block); decode cuts the padded shard back to it.
    ``member_versions`` pins the entity version each slot currently
    encodes.
    """

    stripe_id: int
    k: int
    m: int
    members: list[Optional[tuple[str, int]]]
    member_versions: dict[tuple[str, int], int]
    parity_servers: list[int]
    shard_len: int
    placeholders: dict[int, int] = field(default_factory=dict)
    # Coding group this stripe belongs to, fixed at formation time.  A
    # rehomed shard can temporarily live off-group, so the group identity
    # must not be re-derived from any shard's server.
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

    def shard_key(self, shard_index: int) -> str:
        return f"stripe{self.stripe_id}/shard{shard_index}"

    def member_shard_index(self, entity_key: tuple[str, int]) -> int:
        return self.members.index(entity_key)

    def vacant_slots(self) -> list[int]:
        return [i for i, mk in enumerate(self.members) if mk is None]

    def holders(self, vacant: bool = False) -> list[tuple[int, int]]:
        """``(slot, server)`` of each real shard, in slot order.

        An occupied data slot's server is its member's primary; a parity's
        is stored.  Vacant placeholders hold no bytes, so placement
        decisions that must keep real shards apart leave them out;
        ``vacant=True`` lists them too (every server the stripe names).
        """
        out = []
        for i, mk in enumerate(self.members):
            if mk is not None:
                out.append((i, self._dir.entities[mk].primary))
            elif vacant:
                out.append((i, self.placeholders[i]))
        out += [(self.k + j, s) for j, s in enumerate(self.parity_servers)]
        return out

    def is_empty(self) -> bool:
        """True when every data slot is vacant (stripe can be reclaimed)."""
        return all(mk is None for mk in self.members)

    # --- index-maintaining mutations ---------------------------------
    # All placement changes go through these so the directory's reverse
    # indexes (server -> stripes, group -> vacant stripes) stay exact.

    def retarget_shard(self, shard_index: int, server: int) -> None:
        """Move parity shard ``shard_index``, or a vacant slot's placeholder,
        to ``server``.

        An occupied slot has no stored server: it moves with its member's
        ``primary``.
        """
        if shard_index >= self.k:
            old = self.parity_servers[shard_index - self.k]
            self.parity_servers[shard_index - self.k] = server
        elif self.members[shard_index] is None:
            old = self.placeholders[shard_index]
            self.placeholders[shard_index] = server
        else:
            raise ValueError(f"slot {shard_index} is occupied: move its member's primary")
        if self._dir is not None:
            self._dir._stripe_retargeted(self, old, server)

    def fill_slot(self, slot: int, entity_key: tuple[str, int]) -> None:
        """Occupy vacant data slot ``slot`` with ``entity_key``."""
        old = self.placeholders.pop(slot)
        self.members[slot] = entity_key
        if self._dir is not None:
            self._dir._stripe_slot_filled(self, old, self._dir.entities[entity_key].primary)

    def vacate_slot(self, slot: int) -> None:
        """Empty data slot ``slot``; its member's server stays behind as
        the placeholder."""
        self.placeholders[slot] = self._dir.entities[self.members[slot]].primary
        self.members[slot] = None
        self._dir._stripe_slot_vacated(self)


@dataclass
class BlockEntity:
    """One protected spatial block of a staged variable.

    Carries the current version/payload bookkeeping, the resilience state,
    and the access counters the CoREC classifier reads (paper Section II-C:
    "we use reference counters to record the access frequency of each data
    object").  ``version`` counts writes from 0 (``version + 1`` have
    landed); the version a stored copy holds is its server's record
    (``StagingServer.version_of``).
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
    ref_counter: int = 0          # accesses since the last state transition
    last_write_step: int = -1
    digest: str = ""              # payload_digest (CRC-32) of the current payload
    transition_in_flight: bool = False  # async promote/demote already queued
    seq: int = -1                 # directory insertion order (stable sort key)

    # Back-reference to the owning MetadataDirectory (set by
    # ``get_or_create``); placement/state/size writes notify it so the
    # reverse indexes and byte totals track every mutation, wherever it
    # happens.
    _dir = None
    _indexed_attrs = frozenset(("primary", "state", "replicas", "nbytes"))

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

    def record_write(self, step: int, nbytes: int, digest: str) -> None:
        self.version += 1
        self.ref_counter += 1
        self.last_write_step = step
        self.nbytes = nbytes
        self.digest = digest

    def reset_ref_counter(self) -> None:
        """Reset on state transition, per the paper: "once it is erasure
        coded, its access frequency is reset back to zero"."""
        self.ref_counter = 0
