"""S3D-like combustion workflow at the paper's Table II scales.

The paper couples the S3D lifted-hydrogen simulation with an analysis
application through DataSpaces on Titan at 4480 / 8960 / 17920 cores.  What
the staging evaluation depends on is the *I/O pattern*, not the chemistry:

- every simulation core owns a 64x64x64 spatial subdomain and writes it
  each time step;
- analysis cores read the full domain at a (lower) analysis frequency;
- core counts keep fixed ratios (16 simulation : 1 staging : 0.5 analysis);
- weak scaling: the domain grows with the core count.

``TABLE_II`` records the paper's exact configurations; :class:`S3DConfig`
derives a proportionally reduced configuration (divide each writer-grid
dimension by ``shrink``) that preserves every ratio, which — per the
Section II-D model — is what determines the relative behaviour of the
resilience schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro.sim.engine import AllOf
from repro.staging.domain import BBox
from repro.util.stats import TimeSeries
from repro.workloads.synthetic import apply_failure_plan, reader_regions

__all__ = ["TABLE_II", "S3DConfig", "S3DWorkload"]

# The paper's Table II, verbatim.
TABLE_II = (
    {
        "total_cores": 4480,
        "sim_grid": (16, 16, 16),
        "sim_cores": 4096,
        "staging_cores": 256,
        "analysis_cores": 128,
        "volume": (1024, 1024, 1024),
        "data_gb": 160,
    },
    {
        "total_cores": 8960,
        "sim_grid": (32, 16, 16),
        "sim_cores": 8448,
        "staging_cores": 512,
        "analysis_cores": 256,
        "volume": (2048, 1024, 1024),
        "data_gb": 320,
    },
    {
        "total_cores": 17920,
        "sim_grid": (32, 32, 16),
        "sim_cores": 16896,
        "staging_cores": 1024,
        "analysis_cores": 512,
        "volume": (2048, 2048, 1024),
        "data_gb": 640,
    },
)


@dataclass
class S3DConfig:
    """A Table II scale reduced by ``shrink`` in each grid dimension.

    With the default ``shrink=4``: 64/128/256 writers, 4/8/16 staging
    servers, 2/4/8 analysis readers and a 256^3 (then 512*256^2, 512^2*256)
    domain — exactly the paper's ratios.
    """

    scale_index: int = 0
    shrink: int = 4
    per_core_subdomain: int = 64   # S3D assigns 64^3 per core
    element_bytes: int = 1
    timesteps: int = 20
    analysis_every: int = 2        # analyses run at lower temporal frequency
    var: str = "species"
    failure_plan: dict[int, list[tuple[str, int]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.scale_index < len(TABLE_II):
            raise ValueError("scale_index must select a Table II column")
        if self.shrink < 1:
            raise ValueError("shrink must be >= 1")
        base = TABLE_II[self.scale_index]
        if any(g % self.shrink for g in base["sim_grid"]):
            raise ValueError(f"shrink {self.shrink} does not divide grid {base['sim_grid']}")

    # ------------------------------------------------------------------
    @property
    def table_entry(self) -> dict:
        return TABLE_II[self.scale_index]

    @property
    def writer_grid(self) -> tuple[int, ...]:
        return tuple(g // self.shrink for g in self.table_entry["sim_grid"])

    @property
    def n_writers(self) -> int:
        n = 1
        for g in self.writer_grid:
            n *= g
        return n

    @property
    def n_staging(self) -> int:
        # Keep the paper's 16:1 simulation:staging core ratio.
        return max(4, self.n_writers // 16)

    @property
    def n_analysis(self) -> int:
        return max(1, self.n_writers // 32)

    @property
    def domain_shape(self) -> tuple[int, ...]:
        return tuple(g * self.per_core_subdomain for g in self.writer_grid)

    @property
    def per_step_bytes(self) -> int:
        v = 1
        for s in self.domain_shape:
            v *= s
        return v * self.element_bytes


class S3DWorkload:
    """The coupled simulation + analysis workflow as a simulator process."""

    def __init__(self, service, config: S3DConfig):
        self.service = service
        self.config = config
        shape = service.domain.shape
        if tuple(shape) != tuple(config.domain_shape):
            raise ValueError(
                f"service domain {shape} does not match S3D config {config.domain_shape}"
            )
        self.writer_boxes = self._writer_boxes()
        self.analysis_boxes = self._analysis_boxes()
        self.step_put = TimeSeries("s3d_step_put")
        self.step_get = TimeSeries("s3d_step_get")
        self.cumulative_write_s = 0.0
        self.cumulative_read_s = 0.0

    def _writer_boxes(self) -> list[BBox]:
        import itertools

        c = self.config.per_core_subdomain
        grid = self.config.writer_grid
        boxes = []
        for idx in itertools.product(*(range(g) for g in grid)):
            lb = tuple(i * c for i in idx)
            ub = tuple((i + 1) * c for i in idx)
            boxes.append(BBox(lb, ub))
        return boxes

    def _analysis_boxes(self) -> list[BBox]:
        return reader_regions(self.service.domain, self.config.n_analysis)

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        cfg = self.config
        sim = self.service.sim
        for step in range(cfg.timesteps):
            apply_failure_plan(self.service, cfg.failure_plan, step)
            # Analysis reads the *previous* step's staged data first — the
            # coupled pipeline overlaps analysis with the next simulation
            # phase, so a failure at a step boundary hits the read path.
            if step > 0 and step % cfg.analysis_every == 0:
                before_n = self.service.metrics.get_stat.n
                before_total = self.service.metrics.get_stat.total
                procs = [
                    sim.process(self.service.get(f"an{i}", cfg.var, box), name=f"an{i}-{cfg.var}")
                    for i, box in enumerate(self.analysis_boxes)
                ]
                yield AllOf(sim, procs)
                n_new = self.service.metrics.get_stat.n - before_n
                if n_new:
                    step_mean = (self.service.metrics.get_stat.total - before_total) / n_new
                    self.step_get.add(step, step_mean)
                    # Cumulative *response* time: the per-step mean summed
                    # over steps (client-observed; concurrent clients are
                    # not double-counted).
                    self.cumulative_read_s += step_mean
            # Simulation writes its per-core subdomains.
            before_n = self.service.metrics.put_stat.n
            before_total = self.service.metrics.put_stat.total
            procs = [
                sim.process(self.service.put(f"sim{i}", cfg.var, box), name=f"sim{i}-{cfg.var}")
                for i, box in enumerate(self.writer_boxes)
            ]
            yield AllOf(sim, procs)
            n_new = self.service.metrics.put_stat.n - before_n
            if n_new:
                step_mean = (self.service.metrics.put_stat.total - before_total) / n_new
                self.step_put.add(step, step_mean)
                self.cumulative_write_s += step_mean
            yield from self.service.end_step()
        yield from self.service.flush()
