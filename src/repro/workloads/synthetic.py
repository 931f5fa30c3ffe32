"""The five synthetic access-pattern cases of the paper's Section IV.

Each case writes/reads a 3-D global domain over ``timesteps`` iterations
through a grid of parallel writer clients (and reader clients for the read
case), mirroring Table I's setup:

- **case1** — write the entire data domain in each time step;
- **case2** — the domain is divided into ``subdomain_groups`` subdomains,
  one written per time step (the whole domain every N steps);
- **case3** — a hot subset is written at high frequency, everything else
  written once (hot spots);
- **case4** — random subsets of the domain written each step;
- **case5** — populate once, then read the entire domain every time step.

A *failure plan* maps timestep -> [(action, server)] so benchmarks can
reproduce the paper's Figure 10 schedule ("first failure at time step 4,
second at 6; recoveries start at 8 and 12").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro.sim.engine import AllOf
from repro.staging.domain import BBox, Domain
from repro.util.stats import TimeSeries

__all__ = ["SyntheticWorkloadConfig", "SyntheticWorkload", "writer_regions", "reader_regions"]

CASES = ("case1", "case2", "case3", "case4", "case5")


def _grid_factor(n: int, ndim: int) -> tuple[int, ...]:
    """Factor ``n`` into a near-cubic ndim grid (largest factors first)."""
    dims = [1] * ndim
    remaining = n
    # Greedy: repeatedly split off the smallest prime factor onto the
    # currently-smallest dimension, yielding a balanced decomposition.
    f = 2
    factors = []
    while remaining > 1:
        while remaining % f == 0:
            factors.append(f)
            remaining //= f
        f += 1 if f == 2 else 2
        if f * f > remaining and remaining > 1:
            factors.append(remaining)
            break
    for p in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims, reverse=True))


def _split_extent(extent: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, extent) into ``parts`` contiguous near-equal intervals."""
    edges = np.linspace(0, extent, parts + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(parts)]


def _tile_domain(domain: Domain, grid: tuple[int, ...]) -> list[BBox]:
    per_dim = [_split_extent(s, g) for s, g in zip(domain.shape, grid)]
    boxes = []
    import itertools

    for idx in itertools.product(*(range(g) for g in grid)):
        lb = tuple(per_dim[d][idx[d]][0] for d in range(len(grid)))
        ub = tuple(per_dim[d][idx[d]][1] for d in range(len(grid)))
        boxes.append(BBox(lb, ub))
    return boxes


def writer_regions(domain: Domain, n_writers: int) -> list[BBox]:
    """Disjoint per-writer subdomains covering the whole domain."""
    grid = _grid_factor(n_writers, domain.ndim)
    return _tile_domain(domain, grid)


def reader_regions(domain: Domain, n_readers: int) -> list[BBox]:
    """Disjoint per-reader subdomains covering the whole domain."""
    return writer_regions(domain, n_readers)


@dataclass
class SyntheticWorkloadConfig:
    case: str = "case1"
    n_writers: int = 64
    n_readers: int = 32
    timesteps: int = 20
    var: str = "field"
    subdomain_groups: int = 4          # case2: rotating subdomain count
    hot_fraction: float = 0.125        # case3: hot share of the domain
    write_probability: float = 0.3     # case4: per-writer write chance
    seed: int = 7
    read_in_write_cases: bool = False  # optional read phase after writes
    compute_time_s: float = 0.0        # per-step simulation compute phase
    # Read-phase pattern (case 5 and read_in_write_cases). The paper ran
    # "various cases of reads" mirroring the write patterns; results
    # "show similar patterns as case 5":
    #   "all"    — every reader reads its share of the whole domain;
    #   "subset" — only a fixed subset of the domain is read each step;
    #   "random" — a random subset of reader regions per step;
    #   "hot"    — a small hot region is read at high frequency, the rest
    #              once.
    read_pattern: str = "all"
    read_fraction: float = 0.25        # share read by "subset"/"hot"/"random"
    failure_plan: dict[int, list[tuple[str, int]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}; pick one of {CASES}")
        if self.timesteps < 1 or self.n_writers < 1:
            raise ValueError("need at least one timestep and one writer")
        if not 0 < self.hot_fraction <= 1:
            raise ValueError("hot_fraction must be in (0, 1]")
        if self.read_pattern not in ("all", "subset", "random", "hot"):
            raise ValueError(f"unknown read pattern {self.read_pattern!r}")
        if not 0 < self.read_fraction <= 1:
            raise ValueError("read_fraction must be in (0, 1]")


class SyntheticWorkload:
    """Drives one synthetic case against a staging service."""

    def __init__(self, service, config: SyntheticWorkloadConfig):
        self.service = service
        self.config = config
        self.domain: Domain = service.domain
        self.writer_boxes = writer_regions(self.domain, config.n_writers)
        self.reader_boxes = reader_regions(self.domain, max(1, config.n_readers))
        self.rng = np.random.default_rng(config.seed)
        self.step_put = TimeSeries("step_put_mean")
        self.step_get = TimeSeries("step_get_mean")

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """The whole workflow as one simulator process body."""
        cfg = self.config
        if cfg.case == "case5":
            yield from self._populate()
            yield from self.service.end_step()
        for step in range(cfg.timesteps):
            self._apply_failure_plan(self.service.step)
            if cfg.compute_time_s > 0:
                # The simulation computes before staging its results; this
                # is what makes resilience overhead a *fraction* of the
                # workflow rather than the whole of it.
                yield self.service.sim.timeout(cfg.compute_time_s)
            if cfg.case == "case5":
                yield from self._read_phase()
            else:
                yield from self._write_phase(step)
                if cfg.read_in_write_cases:
                    yield from self._read_phase()
            yield from self.service.end_step()
        yield from self.service.flush()

    # ------------------------------------------------------------------
    def _apply_failure_plan(self, step: int) -> None:
        for action, sid in self.config.failure_plan.get(step, []):
            if action == "fail":
                self.service.fail_server(sid)
            elif action == "replace":
                self.service.replace_server(sid)
            else:
                raise ValueError(f"unknown failure action {action!r}")

    def _writers_for_step(self, step: int) -> list[int]:
        cfg = self.config
        n = len(self.writer_boxes)
        if cfg.case == "case1":
            return list(range(n))
        if cfg.case == "case2":
            group = step % cfg.subdomain_groups
            lo = n * group // cfg.subdomain_groups
            hi = n * (group + 1) // cfg.subdomain_groups
            return list(range(lo, hi))
        if cfg.case == "case3":
            n_hot = max(1, int(round(n * cfg.hot_fraction)))
            hot = list(range(n_hot))
            if step == 0:
                return list(range(n))  # cold part written exactly once
            return hot
        if cfg.case == "case4":
            mask = self.rng.random(n) < cfg.write_probability
            chosen = [i for i in range(n) if mask[i]]
            return chosen or [int(self.rng.integers(0, n))]
        raise AssertionError(f"no write phase for {cfg.case}")

    # Response times are appended as each flow completes, so a phase's
    # mean sums them in completion order (the goldens pin that order).
    def _timed_put(self, durations: list[float], *args) -> Generator:
        durations.append((yield from self.service.put(*args)))

    def _timed_get(self, durations: list[float], *args) -> Generator:
        durations.append((yield from self.service.get(*args))[0])

    def _write_phase(self, step: int) -> Generator:
        sim = self.service.sim
        durations: list[float] = []
        procs = [
            sim.process(
                self._timed_put(durations, f"w{i}", self.config.var, self.writer_boxes[i]),
                name=f"w{i}-s{step}",
            )
            for i in self._writers_for_step(step)
        ]
        yield AllOf(sim, procs)
        if durations:
            self.step_put.add(self.service.step, float(np.mean(durations)))

    def _populate(self) -> Generator:
        """Initial write of the whole domain (case 5 setup)."""
        sim = self.service.sim
        procs = [
            sim.process(self.service.put(f"w{i}", self.config.var, box), name=f"pop-w{i}")
            for i, box in enumerate(self.writer_boxes)
        ]
        yield AllOf(sim, procs)

    def _readers_for_step(self) -> list[int]:
        cfg = self.config
        n = min(cfg.n_readers, len(self.reader_boxes))
        if cfg.read_pattern == "all":
            return list(range(n))
        n_part = max(1, int(round(n * cfg.read_fraction)))
        if cfg.read_pattern == "subset":
            return list(range(n_part))
        if cfg.read_pattern == "random":
            chosen = self.rng.random(n) < cfg.read_fraction
            out = [i for i in range(n) if chosen[i]]
            return out or [int(self.rng.integers(0, n))]
        # "hot": the hot readers read every step; the rest only on step 0.
        if self.service.step <= 1:
            return list(range(n))
        return list(range(n_part))

    def _read_phase(self) -> Generator:
        sim = self.service.sim
        durations: list[float] = []
        procs = [
            sim.process(
                self._timed_get(durations, f"r{i}", self.config.var, self.reader_boxes[i]),
                name=f"r{i}-s{self.service.step}",
            )
            for i in self._readers_for_step()
        ]
        yield AllOf(sim, procs)
        if durations:
            self.step_get.add(self.service.step, float(np.mean(durations)))
