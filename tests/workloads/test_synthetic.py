"""Tests for the five synthetic access-pattern cases."""

import numpy as np
import pytest

from repro.staging.domain import Domain
from repro.workloads.synthetic import (
    SyntheticWorkload,
    SyntheticWorkloadConfig,
    reader_regions,
    writer_regions,
)

from tests.conftest import make_service


class TestRegionTiling:
    def test_writer_regions_cover_domain(self):
        d = Domain((32, 32, 32), (8, 8, 8))
        boxes = writer_regions(d, 8)
        assert len(boxes) == 8
        assert sum(b.volume for b in boxes) == d.bbox.volume

    def test_writer_regions_disjoint(self):
        d = Domain((16, 16), (4, 4))
        boxes = writer_regions(d, 4)
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert a.intersect(b) is None

    def test_non_power_of_two_writers(self):
        d = Domain((30, 30, 30), (10, 10, 10))
        boxes = writer_regions(d, 6)
        assert len(boxes) == 6
        assert sum(b.volume for b in boxes) == d.bbox.volume

    def test_prime_writer_count(self):
        d = Domain((14, 14), (7, 7))
        boxes = writer_regions(d, 7)
        assert len(boxes) == 7
        assert sum(b.volume for b in boxes) == d.bbox.volume

    def test_single_writer(self):
        d = Domain((8,), (4,))
        assert writer_regions(d, 1) == [d.bbox]

    def test_reader_regions_same_machinery(self):
        d = Domain((16, 16), (4, 4))
        assert reader_regions(d, 4) == writer_regions(d, 4)


class TestConfigValidation:
    def test_unknown_case(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(case="case9")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(timesteps=0)

    def test_bad_hot_fraction(self):
        with pytest.raises(ValueError):
            SyntheticWorkloadConfig(hot_fraction=0.0)


def run_case(case, policy="corec", timesteps=4, n_writers=8, **cfg_kw):
    svc = make_service(policy)
    cfg = SyntheticWorkloadConfig(
        case=case, n_writers=n_writers, n_readers=4, timesteps=timesteps, **cfg_kw
    )
    wl = SyntheticWorkload(svc, cfg)
    svc.run_workflow(wl.run())
    svc.run()
    return svc, wl


class TestCase1:
    def test_every_entity_written_every_step(self):
        svc, wl = run_case("case1", timesteps=3)
        for e in svc.directory.entities.values():
            assert e.version + 1 == 3

    def test_put_counts(self):
        svc, wl = run_case("case1", timesteps=3)
        assert svc.metrics.put_stat.n == 3 * 8

    def test_step_series_recorded(self):
        svc, wl = run_case("case1", timesteps=3)
        assert len(wl.step_put) == 3


class TestCase2:
    def test_rotating_subdomains(self):
        svc, wl = run_case("case2", timesteps=4)
        # Over 4 steps each writer wrote exactly once.
        for e in svc.directory.entities.values():
            assert e.version + 1 == 1

    def test_two_full_cycles(self):
        svc, wl = run_case("case2", timesteps=8)
        for e in svc.directory.entities.values():
            assert e.version + 1 == 2


class TestCase3:
    def test_hot_subset_written_more(self):
        svc, wl = run_case("case3", timesteps=5, hot_fraction=0.125)
        counts = sorted(e.version + 1 for e in svc.directory.entities.values())
        assert counts[0] == 1       # cold data written once
        assert counts[-1] == 5      # hot data written every step

    def test_hot_fraction_size(self):
        svc, wl = run_case("case3", timesteps=3, hot_fraction=0.25)
        hot = [e for e in svc.directory.entities.values() if e.version + 1 == 3]
        assert 1 <= len(hot) <= svc.domain.n_blocks // 2


class TestCase4:
    def test_random_subsets_deterministic(self):
        a = run_case("case4", timesteps=4, seed=3)[0]
        b = run_case("case4", timesteps=4, seed=3)[0]
        ca = {k: e.version + 1 for k, e in a.directory.entities.items()}
        cb = {k: e.version + 1 for k, e in b.directory.entities.items()}
        assert ca == cb

    def test_at_least_one_writer_per_step(self):
        svc, wl = run_case("case4", timesteps=5, write_probability=0.01)
        assert svc.metrics.put_stat.n >= 5


class TestCase5:
    def test_read_only_after_populate(self):
        svc, wl = run_case("case5", timesteps=3)
        assert svc.metrics.put_stat.n == 8           # populate only
        assert svc.metrics.get_stat.n == 3 * 4       # reads per step
        assert len(wl.step_get) == 3

    def test_read_errors_zero(self):
        svc, wl = run_case("case5", timesteps=3)
        assert svc.read_errors == 0


class TestFailurePlan:
    def test_scheduled_failure_executes(self):
        svc = make_service("corec", tracing=True)
        cfg = SyntheticWorkloadConfig(
            case="case5",
            n_writers=8,
            n_readers=4,
            timesteps=6,
            failure_plan={2: [("fail", 3)], 4: [("replace", 3)]},
        )
        wl = SyntheticWorkload(svc, cfg)
        svc.run_workflow(wl.run())
        svc.run()
        assert svc.read_errors == 0
        assert not svc.servers[3].failed
        assert len(svc.tracer.find("failure.detect")) == 1
        assert len(svc.tracer.find("failure.replace")) == 1

    def test_unknown_action_rejected(self):
        svc = make_service("corec")
        cfg = SyntheticWorkloadConfig(
            case="case1", n_writers=8, timesteps=2, failure_plan={0: [("explode", 1)]}
        )
        wl = SyntheticWorkload(svc, cfg)
        with pytest.raises(ValueError):
            svc.run_workflow(wl.run())

    def test_degraded_reads_slower_with_failure(self):
        base, wl_base = run_case("case5", policy="erasure", timesteps=4)
        svc = make_service("erasure")
        cfg = SyntheticWorkloadConfig(
            case="case5", n_writers=8, n_readers=4, timesteps=4,
            failure_plan={1: [("fail", 0)]},
        )
        wl = SyntheticWorkload(svc, cfg)
        svc.run_workflow(wl.run())
        svc.run()
        assert svc.metrics.get_stat.mean >= base.metrics.get_stat.mean


class TestReadPatterns:
    def test_all_pattern_reads_everything(self):
        svc = make_service("corec")
        cfg = SyntheticWorkloadConfig(case="case5", n_writers=8, n_readers=8, timesteps=4)
        wl = SyntheticWorkload(svc, cfg)
        svc.run_workflow(wl.run())
        svc.run()
        assert svc.read_errors == 0
        assert svc.metrics.get_stat.n == 4 * 8
