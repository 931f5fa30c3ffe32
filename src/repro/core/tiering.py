"""Adaptive resilience tiering v2: cost-modelled online transcoding.

The paper's classifier picks replication vs erasure coding *once*, at
write time, and the storage bound forces demotions only when efficiency
drops.  This module makes the protection choice continuous and online
(ROADMAP item 3, grounded in the two-tier memory-protection analysis in
PAPERS.md): per-entity access statistics drive background transcoding in
both directions, gated by a cost model so a transcode only runs when it
pays for itself over a configurable horizon.

Cost model
----------
For an entity of ``B`` bytes with EWMA read rate ``r`` and write rate
``w`` (accesses per timestep), ``n`` replicas and an RS(k, m) code, the
per-step *operating cost* of each protection form is::

    replicated(B, r, w) = w * B * n * replica_write      (refresh n copies)
    encoded(B, r, w)    = w * B * delta_update           (parity delta RMW)
                        + r * B * degraded_read          (decode-risk weight)

and holding replicas costs storage, valued at ``storage`` per redundant
byte-step.  Over a horizon of ``H`` steps the net benefit of demoting
(replicated -> encoded) is therefore::

    demote_benefit = H * B * (n*storage + w*n*replica_write
                              - w*delta_update - r*degraded_read)
    demote_cost    = B * (transfer + encode * (1 + m/k))   (move + codec)

and the promote direction is the exact negation with its own move cost::

    promote_benefit = -demote_benefit
    promote_cost    = B * (transfer * (1 + n) + encode)    (extract + copy)

A transcode fires only when ``benefit > margin * cost`` with
``margin >= 1``.  Because the two benefits are negations of each other,
the margin opens a dead band between the thresholds — an entity whose
rates hover at the boundary satisfies *neither* direction — and the
per-entity ``cooldown_steps`` adds temporal hysteresis on top, so
oscillating access patterns cannot thrash transcodes.

Mechanism
---------
:class:`TranscodeManager` runs at the policy's step barrier and *only
schedules* transitions: the actual transcodes reuse the CoREC policy's
crash-safe primitives — demotion keeps the replica copies until the
stripe encode durably lands and atomically reclaims them; promotion
extracts from the stripe under the entity lock and replicates before the
slot is vacated — so the old protection form stays readable until the new
form is durably placed and swapped in the directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "TieringCosts",
    "TieringConfig",
    "AccessStats",
    "TranscodeCostModel",
    "TranscodeManager",
]

EntityKey = tuple[str, int]


@dataclass(frozen=True)
class TieringCosts:
    """Unitless work-per-byte weights of the cost model."""

    transfer: float = 1.0        # moving one byte between servers
    encode: float = 0.5          # codec work per byte erasure coded
    delta_update: float = 2.5    # parity delta read-modify-write per written byte
    replica_write: float = 1.0   # per byte per replica on a replicated write
    degraded_read: float = 1.0   # decode-risk weight per byte read while encoded
    storage: float = 0.3         # value per redundant byte-step freed


@dataclass
class TieringConfig:
    """Tunables of the online transcoding layer (off unless attached)."""

    horizon_steps: int = 8           # expected-savings lookahead window H
    ewma_alpha: float = 0.5          # access-rate smoothing factor
    margin: float = 1.25             # benefit must exceed margin * cost
    cooldown_steps: int = 4          # min steps between transcodes per entity
    max_transcodes_per_step: int = 4
    costs: TieringCosts = field(default_factory=TieringCosts)

    def __post_init__(self) -> None:
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.margin < 1.0:
            raise ValueError("margin < 1 would let unprofitable transcodes run")
        if self.cooldown_steps < 0 or self.max_transcodes_per_step < 1:
            raise ValueError("cooldown/max_transcodes out of range")


class AccessStats:
    """Per-entity EWMA read/write rates, folded once per timestep."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self._reads_now: dict[EntityKey, int] = {}
        self._writes_now: dict[EntityKey, int] = {}
        self._read_rate: dict[EntityKey, float] = {}
        self._write_rate: dict[EntityKey, float] = {}

    def record_read(self, key: EntityKey) -> None:
        self._reads_now[key] = self._reads_now.get(key, 0) + 1

    def record_write(self, key: EntityKey) -> None:
        self._writes_now[key] = self._writes_now.get(key, 0) + 1

    def advance(self) -> None:
        """Fold the step's raw counts into the EWMA rates (step barrier)."""
        a = self.alpha
        for rates, raw in (
            (self._read_rate, self._reads_now),
            (self._write_rate, self._writes_now),
        ):
            for key in set(rates) | set(raw):
                rates[key] = a * raw.get(key, 0) + (1 - a) * rates.get(key, 0.0)
            raw.clear()

    def read_rate(self, key: EntityKey) -> float:
        return self._read_rate.get(key, 0.0)

    def write_rate(self, key: EntityKey) -> float:
        return self._write_rate.get(key, 0.0)

    def forget(self, key: EntityKey) -> None:
        for d in (self._reads_now, self._writes_now, self._read_rate, self._write_rate):
            d.pop(key, None)


class TranscodeCostModel:
    """Pure pay-for-itself arithmetic over (bytes, rates, code geometry)."""

    def __init__(self, config: TieringConfig, k: int, m: int, n_level: int):
        self.config = config
        self.k = k
        self.m = m
        self.n_level = n_level

    # -- per-step operating-cost delta (positive favours encoding) -------
    def _step_gain_encoded(self, nbytes: int, read_rate: float, write_rate: float) -> float:
        c = self.config.costs
        n = self.n_level
        replicated = write_rate * nbytes * n * c.replica_write + n * nbytes * c.storage
        encoded = (
            write_rate * nbytes * c.delta_update
            + read_rate * nbytes * c.degraded_read
        )
        return replicated - encoded

    # -- one-shot transcode costs ----------------------------------------
    def demote_cost(self, nbytes: int) -> float:
        c = self.config.costs
        return nbytes * (c.transfer + c.encode * (1 + self.m / self.k))

    def promote_cost(self, nbytes: int) -> float:
        c = self.config.costs
        return nbytes * (c.transfer * (1 + self.n_level) + c.encode)

    # -- horizon-integrated benefits -------------------------------------
    def demote_benefit(self, nbytes: int, read_rate: float, write_rate: float) -> float:
        return self.config.horizon_steps * self._step_gain_encoded(
            nbytes, read_rate, write_rate
        )

    def promote_benefit(self, nbytes: int, read_rate: float, write_rate: float) -> float:
        return -self.demote_benefit(nbytes, read_rate, write_rate)

    # -- decisions --------------------------------------------------------
    def should_demote(self, nbytes: int, read_rate: float, write_rate: float) -> bool:
        return self.demote_benefit(nbytes, read_rate, write_rate) > (
            self.config.margin * self.demote_cost(nbytes)
        )

    def should_promote(self, nbytes: int, read_rate: float, write_rate: float) -> bool:
        return self.promote_benefit(nbytes, read_rate, write_rate) > (
            self.config.margin * self.promote_cost(nbytes)
        )

    def decide(
        self, state: str, nbytes: int, read_rate: float, write_rate: float
    ) -> str | None:
        """"demote" / "promote" / None for an entity in ``state``.

        ``state`` is the resilience-state value string ("replicated" /
        "encoded"); other states are not transcodable.
        """
        if state == "replicated" and self.should_demote(nbytes, read_rate, write_rate):
            return "demote"
        if state == "encoded" and self.should_promote(nbytes, read_rate, write_rate):
            return "promote"
        return None


class TranscodeManager:
    """Background transcode scheduling against a live CoREC policy.

    Owns the access statistics and the cost model; at every step barrier
    it scans the replicated/encoded membership sets (reverse indexes, so
    the scan is O(entities in those states)) and schedules at most
    ``max_transcodes_per_step`` profitable transitions through the
    policy's token-serialized, crash-safe transition machinery.
    """

    def __init__(self, policy, config: TieringConfig):
        self.policy = policy
        self.config = config
        self.stats = AccessStats(config.ewma_alpha)
        self.model: TranscodeCostModel | None = None
        self._last_transcode: dict[EntityKey, int] = {}
        self.demotes_scheduled = 0
        self.promotes_scheduled = 0
        self.decisions_evaluated = 0

    def attach(self, runtime) -> None:
        layout = runtime.layout
        self.model = TranscodeCostModel(self.config, layout.k, layout.m, layout.n_level)

    # -- access recording (called from the policy's read/write hooks) ----
    def record_read(self, key: EntityKey) -> None:
        self.stats.record_read(key)

    def record_write(self, key: EntityKey) -> None:
        self.stats.record_write(key)

    # -- step barrier -----------------------------------------------------
    def _in_cooldown(self, key: EntityKey, step: int) -> bool:
        last = self._last_transcode.get(key)
        return last is not None and step - last < self.config.cooldown_steps

    def on_step_end(self, step: int) -> None:
        """Fold rates, then schedule the profitable transcodes of the step."""
        from repro.staging.objects import ResilienceState

        self.stats.advance()
        rt = self.policy.rt
        budget = self.config.max_transcodes_per_step
        for ent in rt.directory.entities_in_state(ResilienceState.REPLICATED):
            if budget <= 0:
                break
            if ent.transition_in_flight or self._in_cooldown(ent.key, step):
                continue
            self.decisions_evaluated += 1
            if self.model.should_demote(
                ent.nbytes, self.stats.read_rate(ent.key), self.stats.write_rate(ent.key)
            ):
                self._last_transcode[ent.key] = step
                rt.metrics.count("tiering_demotes")
                self.policy._schedule_demotion(ent)
                self.demotes_scheduled += 1
                budget -= 1
        for ent in rt.directory.entities_in_state(ResilienceState.ENCODED):
            if budget <= 0:
                break
            if ent.transition_in_flight or self._in_cooldown(ent.key, step):
                continue
            self.decisions_evaluated += 1
            if self.model.should_promote(
                ent.nbytes, self.stats.read_rate(ent.key), self.stats.write_rate(ent.key)
            ):
                self._last_transcode[ent.key] = step
                rt.metrics.count("tiering_promotes")
                self.policy._maybe_schedule_promotion(ent)
                self.promotes_scheduled += 1
                budget -= 1
        # Access-rate decay also informs the multi-tier stores (the
        # future-work extension): keep their utility ordering fresh.
        for srv in rt.servers:
            tiered = getattr(srv, "tiered_store", None)
            if tiered is not None:
                tiered.decay_access(1 - self.config.ewma_alpha)
