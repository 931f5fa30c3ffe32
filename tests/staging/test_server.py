"""Tests for staging-server state, cost model and workload monitor."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.staging.server import CostModel, StagingServer
from tests.conftest import make_service


class TestCostModel:
    def test_store_cost_has_fixed_and_variable_parts(self):
        c = CostModel(put_op_s=1e-5, memcpy_bps=1e9)
        assert c.store_cost(0) == pytest.approx(1e-5)
        assert c.store_cost(10**9) == pytest.approx(1.0 + 1e-5)

    def test_encode_cost_scales_with_k_m_and_size(self):
        c = CostModel(gf_bps=1e9, put_op_s=0)
        base = c.encode_cost(3, 1, 1000)
        assert c.encode_cost(6, 1, 1000) == pytest.approx(2 * base)
        assert c.encode_cost(3, 2, 1000) == pytest.approx(2 * base)
        assert c.encode_cost(3, 1, 2000) == pytest.approx(2 * base)

    def test_parity_update_cheaper_than_encode(self):
        c = CostModel()
        assert c.parity_update_cost(1, 4096) < c.encode_cost(3, 1, 4096)

    def test_decode_cost_positive(self):
        c = CostModel()
        assert c.decode_cost(3, 1, 4096) > 0


class TestStoreOperations:
    def make(self):
        return StagingServer(Simulator(), 0)

    def test_store_fetch_roundtrip(self):
        s = self.make()
        payload = np.arange(16, dtype=np.uint8)
        s.store_bytes("k", payload)
        assert (s.fetch_bytes("k") == payload).all()
        assert s.has("k")

    def test_bytes_stored_tracking(self):
        s = self.make()
        s.store_bytes("a", np.zeros(10, np.uint8))
        s.store_bytes("b", np.zeros(20, np.uint8))
        assert s.bytes_stored == 30
        s.store_bytes("a", np.zeros(5, np.uint8))  # overwrite shrinks
        assert s.bytes_stored == 25
        s.delete_bytes("b")
        assert s.bytes_stored == 5

    def test_fetch_missing_raises(self):
        with pytest.raises(KeyError):
            self.make().fetch_bytes("missing")

    def test_delete_missing_is_noop(self):
        self.make().delete_bytes("missing")

    def test_an_entity_copy_carries_its_version_a_parity_none(self):
        s = self.make()
        s.store_bytes("P/v/0", np.zeros(8, np.uint8), 0)
        s.store_bytes("R/v/1", np.zeros(8, np.uint8), 3)
        s.store_bytes("stripe0/shard3", np.zeros(8, np.uint8))
        assert (s.version_of("P/v/0"), s.version_of("R/v/1")) == (0, 3)
        assert s.version_of("stripe0/shard3") is None
        s.store_bytes("P/v/0", np.ones(8, np.uint8), 1)  # overwrite
        assert s.version_of("P/v/0") == 1
        s.delete_bytes("P/v/0")
        assert s.version_of("P/v/0") is None
        assert s.version_of("missing") is None
        s.fail()
        assert s.version_of("R/v/1") is None
        s.replace()
        assert s.version_of("R/v/1") is None and not s.versions
        s.store_bytes("R/v/1", np.zeros(8, np.uint8), 4)
        assert s.version_of("R/v/1") == 4


class TestFailureSemantics:
    def test_fail_clears_store(self):
        s = StagingServer(Simulator(), 0)
        s.store_bytes("k", np.ones(8, np.uint8))
        s.fail()
        assert s.failed
        assert s.bytes_stored == 0
        assert not s.has("k")

    def test_ops_on_failed_server_raise(self):
        s = StagingServer(Simulator(), 0)
        s.fail()
        with pytest.raises(RuntimeError):
            s.store_bytes("k", np.ones(1, np.uint8))
        with pytest.raises(RuntimeError):
            s.fetch_bytes("k")

    def test_replace_bumps_epoch(self):
        s = StagingServer(Simulator(), 0)
        s.fail()
        s.replace()
        assert not s.failed
        assert s.epoch == 1
        assert len(s.store) == 0

    def test_replace_healthy_raises(self):
        s = StagingServer(Simulator(), 0)
        with pytest.raises(RuntimeError):
            s.replace()


class TestBusyAndWorkload:
    """Server 0's CPU and workload monitor, booked through the one booking
    body there is: ``StagingRuntime.busy``."""

    def make(self):
        svc = make_service("none")
        return svc.sim, svc.servers[0], lambda dur: svc.runtime.busy(0, dur, "store")

    def test_busy_serializes_on_cpu(self):
        sim, s, busy = self.make()
        log = []

        def work(tag):
            dur = yield from busy(1.0)
            log.append((sim.now, tag, dur))

        sim.process(work("a"))
        sim.process(work("b"))
        sim.run()
        assert log[0] == (1.0, "a", 1.0)
        assert log[1][0] == 2.0
        assert log[1][2] == pytest.approx(2.0)  # includes queue wait

    def test_workload_level_reflects_queue(self):
        sim, s, busy = self.make()
        assert s.workload_level() == pytest.approx(0.0, abs=0.1)

        for _ in range(3):
            sim.process(busy(10.0))
        sim.run(until=1.0)
        # One in service + two queued.
        assert s.workload_level() >= 3.0

    def test_workload_window_expires(self):
        sim, s, busy = self.make()  # WORKLOAD_WINDOW_S is 1 s

        sim.process(busy(0.01))
        sim.run()
        busy_now = s.workload_level()
        sim.timeout(5.0)
        sim.run()
        assert s.workload_level() <= busy_now
