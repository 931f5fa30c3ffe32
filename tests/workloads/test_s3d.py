"""Tests for the S3D-like workflow generator."""

import pytest

from repro import CoRECPolicy, StagingConfig, StagingService
from repro.workloads.s3d import S3DConfig, S3DWorkload, TABLE_II


class TestTableII:
    def test_three_scales(self):
        assert len(TABLE_II) == 3
        assert [e["total_cores"] for e in TABLE_II] == [4480, 8960, 17920]

    def test_core_ratios(self):
        for e in TABLE_II:
            # Staging is ~1/16 of simulation; analysis half of staging.
            assert e["sim_cores"] / e["staging_cores"] == pytest.approx(16, rel=0.05)
            assert e["analysis_cores"] * 2 == e["staging_cores"]

    def test_weak_scaling_volume(self):
        v0 = TABLE_II[0]["volume"]
        v1 = TABLE_II[1]["volume"]
        assert v1[0] == 2 * v0[0]


class TestS3DConfig:
    def test_scale_index_validation(self):
        with pytest.raises(ValueError):
            S3DConfig(scale_index=5)

    def test_shrink_must_divide(self):
        with pytest.raises(ValueError):
            S3DConfig(scale_index=0, shrink=3)  # 16 % 3 != 0

    def test_default_shrink_preserves_ratios(self):
        cfg = S3DConfig(scale_index=0, shrink=4)
        assert cfg.writer_grid == (4, 4, 4)
        assert cfg.n_writers == 64
        assert cfg.n_staging == 4
        assert cfg.n_analysis == 2
        assert cfg.domain_shape == (256, 256, 256)

    def test_scales_grow(self):
        cfgs = [S3DConfig(scale_index=i, shrink=8) for i in range(3)]
        writers = [c.n_writers for c in cfgs]
        assert writers == [8, 16, 32]
        assert cfgs[1].per_step_bytes == 2 * cfgs[0].per_step_bytes

    def test_per_step_bytes(self):
        cfg = S3DConfig(scale_index=0, shrink=8, per_core_subdomain=8, element_bytes=2)
        assert cfg.per_step_bytes == (2 * 8) ** 3 * 2


def run_s3d(scale_index=0, shrink=8, timesteps=3, **cfg_kw):
    cfg = S3DConfig(
        scale_index=scale_index,
        shrink=shrink,
        per_core_subdomain=8,
        timesteps=timesteps,
        **cfg_kw,
    )
    svc = StagingService(
        StagingConfig(
            n_servers=max(4, cfg.n_staging),
            domain_shape=cfg.domain_shape,
            element_bytes=1,
            object_max_bytes=512,
            nodes_per_cabinet=1,
            seed=0,
        ),
        CoRECPolicy(),
    )
    wl = S3DWorkload(svc, cfg)
    svc.run_workflow(wl.run())
    svc.run()
    return svc, wl


class TestS3DWorkload:
    def test_domain_mismatch_rejected(self):
        cfg = S3DConfig(scale_index=0, shrink=8, per_core_subdomain=8)
        svc = StagingService(StagingConfig(n_servers=4, domain_shape=(10, 10, 10)), CoRECPolicy())
        with pytest.raises(ValueError):
            S3DWorkload(svc, cfg)

    def test_writers_cover_domain(self):
        svc, wl = run_s3d()
        total = sum(b.volume for b in wl.writer_boxes)
        assert total == svc.domain.bbox.volume

    def test_puts_per_step(self):
        svc, wl = run_s3d(timesteps=3)
        assert svc.metrics.put_stat.n == 3 * wl.config.n_writers

    def test_analysis_frequency(self):
        svc, wl = run_s3d(timesteps=5, analysis_every=2)
        # Analysis reads the previous step's data at steps 2 and 4.
        assert len(wl.step_get) == 2

    def test_cumulative_times_accumulate(self):
        svc, wl = run_s3d(timesteps=4)
        assert wl.cumulative_write_s > 0
        assert wl.cumulative_read_s > 0
        # Cumulative response = sum of per-step means.
        assert wl.cumulative_write_s == pytest.approx(sum(wl.step_put.values))

    def test_failure_plan(self):
        cfg_kw = dict(failure_plan={1: [("fail", 0)], 2: [("replace", 0)]})
        svc, wl = run_s3d(timesteps=4, **cfg_kw)
        assert svc.read_errors == 0
        assert not svc.servers[0].failed

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown failure action 'explode'"):
            run_s3d(timesteps=2, failure_plan={1: [("explode", 0)]})

    def test_no_read_errors(self):
        svc, wl = run_s3d()
        assert svc.read_errors == 0
