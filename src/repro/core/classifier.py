"""Online hot/cold data-access classification (paper Section II-C).

An entity is **write-hot** if it was written recently, is spatially adjacent
to recently-written entities, or is predicted by its own temporal pattern to
be written soon; otherwise it is **write-cold**.  Hot entities are
replicated; cold ones are erasure coded.

Three signals (``spatial_radius=0`` and ``temporal_lookahead=False`` switch
the last two off for the ablation bench):

- **recency** — written within the last ``hot_window_steps`` timesteps at
  least ``hot_threshold`` times;
- **spatial locality** — a block within Chebyshev ``spatial_radius`` (in
  block-grid space) of a freshly written block is promoted for
  ``spatial_ttl_steps`` steps ("data objects with spatial coordinates near
  current hot data are anticipated to be accessed in the near future");
- **temporal lookahead** — if an entity's write history shows a stable
  period ``p``, it is promoted ``LOOKAHEAD_STEPS`` before its predicted
  next write (the multi-timestep look-ahead that drives Case 2).

The classifier also keeps the accuracy bookkeeping behind the paper's miss
ratio :math:`r_m`: a write arriving at an entity currently classified cold
is a *miss* (a real hot object was treated as cold).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.staging.domain import Domain

__all__ = ["ClassifierConfig", "HotColdClassifier"]

EntityKey = tuple[str, int]
LOOKAHEAD_STEPS = 1  # how early a periodic entity is promoted before its next write


@dataclass
class ClassifierConfig:
    hot_window_steps: int = 3
    hot_threshold: int = 1
    spatial_radius: int = 1
    spatial_ttl_steps: int = 2
    temporal_lookahead: bool = True
    history_len: int = 8

    def __post_init__(self) -> None:
        if self.hot_window_steps < 1 or self.hot_threshold < 1:
            raise ValueError("window and threshold must be >= 1")
        if self.spatial_radius < 0 or self.spatial_ttl_steps < 0:
            raise ValueError("spatial parameters must be >= 0")
        if self.history_len < 2:
            raise ValueError("history_len must be >= 2 for period detection")


class HotColdClassifier:
    """Per-entity write-history tracking and hot/cold decisions."""

    def __init__(self, domain: Domain, config: ClassifierConfig | None = None):
        self.domain = domain
        self.config = config or ClassifierConfig()
        self._history: dict[EntityKey, deque[int]] = {}
        self._spatial_hot_until: dict[EntityKey, int] = {}
        # accuracy bookkeeping
        self.writes_total = 0
        self.writes_while_cold = 0

    # ------------------------------------------------------------------
    def record_write(self, key: EntityKey, step: int, was_hot: bool | None = None) -> None:
        """Note a write to ``key`` at timestep ``step``.

        ``was_hot`` is the classification in force when the write arrived
        (for miss accounting); pass None to skip accounting (e.g. replays).
        """
        hist = self._history.get(key)
        if hist is None:
            hist = deque(maxlen=self.config.history_len)
            self._history[key] = hist
        hist.append(step)
        if was_hot is not None:
            self.writes_total += 1
            if not was_hot:
                self.writes_while_cold += 1
        if self.config.spatial_radius > 0:
            name, block_id = key
            until = step + self.config.spatial_ttl_steps
            for nbr in self.domain.neighbor_blocks(block_id, self.config.spatial_radius):
                nbr_key = (name, nbr)
                if self._spatial_hot_until.get(nbr_key, -1) < until:
                    self._spatial_hot_until[nbr_key] = until

    # ------------------------------------------------------------------
    def recency_hot(self, key: EntityKey, step: int) -> bool:
        hist = self._history.get(key)
        if not hist:
            return False
        lo = step - self.config.hot_window_steps + 1
        recent = sum(1 for s in hist if s >= lo)
        return recent >= self.config.hot_threshold

    def spatial_hot(self, key: EntityKey, step: int) -> bool:
        return self._spatial_hot_until.get(key, -1) >= step

    def detect_period(self, key: EntityKey) -> int | None:
        """Stable inter-write period of ``key``, or None.

        Requires at least two equal consecutive intervals (three writes).
        """
        hist = self._history.get(key)
        if hist is None or len(hist) < 3:
            return None
        gaps = [b - a for a, b in zip(list(hist)[:-1], list(hist)[1:])]
        tail = gaps[-2:]
        if tail[0] == tail[1] and tail[0] > 0:
            return tail[0]
        return None

    def predicted_hot(self, key: EntityKey, step: int) -> bool:
        """Temporal lookahead: next periodic write within ``LOOKAHEAD_STEPS``."""
        if not self.config.temporal_lookahead:
            return False
        period = self.detect_period(key)
        if period is None:
            return False
        last = self._history[key][-1]
        next_write = last + period
        return 0 <= next_write - step <= LOOKAHEAD_STEPS

    # ------------------------------------------------------------------
    def is_hot(self, key: EntityKey, step: int) -> bool:
        """The combined classification used by the CoREC policy."""
        if self.recency_hot(key, step):
            return True
        if self.spatial_hot(key, step):
            return True
        return self.predicted_hot(key, step)

    def miss_ratio(self) -> float:
        """Fraction of writes that arrived while classified cold."""
        return self.writes_while_cold / self.writes_total if self.writes_total else 0.0

    def advance(self, step: int) -> None:
        """Garbage-collect expired spatial promotions (once per timestep)."""
        if self._spatial_hot_until:
            self._spatial_hot_until = {
                k: v for k, v in self._spatial_hot_until.items() if v >= step
            }
