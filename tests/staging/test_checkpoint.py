"""Tests for the Checkpoint/Restart baseline (Figure 2 model)."""

import pytest

from repro.staging.checkpoint import CheckpointConfig, CheckpointedStaging, PFSModel

from tests.conftest import make_service


class TestPFSModel:
    def test_write_time_linear_in_bytes(self):
        pfs = PFSModel(aggregate_bandwidth_bps=1e9, latency_s=0.01)
        t1 = pfs.write_time(10**9)
        t2 = pfs.write_time(2 * 10**9)
        assert t2 - t1 == pytest.approx(1.0)

    def test_latency_floor(self):
        pfs = PFSModel(aggregate_bandwidth_bps=1e9, latency_s=0.01)
        assert pfs.write_time(0) == pytest.approx(0.01)


class TestCheckpointConfig:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            CheckpointConfig(interval_s=0)

    def test_default_pfs(self):
        assert CheckpointConfig().pfs is not None


class TestCheckpointing:
    def make(self, interval=1.0):
        svc = make_service("none")
        ckpt = CheckpointedStaging(
            svc,
            CheckpointConfig(interval_s=interval, pfs=PFSModel(aggregate_bandwidth_bps=1e6, latency_s=0.001)),
        )
        return svc, ckpt

    def test_periodic_checkpoints(self):
        svc, ckpt = self.make(interval=1.0)

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)

        ckpt.start()
        svc.run_workflow(wf())
        svc.run(until=3.5)
        ckpt.stop()
        assert ckpt.n_checkpoints == 3
        assert ckpt.total_checkpoint_time > 0

    def test_checkpoint_cost_scales_with_staged_bytes(self):
        svc1, ckpt1 = self.make()
        svc2, ckpt2 = self.make()

        def fill(svc, frac):
            def wf():
                box = svc.domain.block_bbox(0) if frac == "one" else svc.domain.bbox
                yield from svc.put("w0", "v", box)
            svc.run_workflow(wf())

        fill(svc1, "one")
        fill(svc2, "all")
        svc1.run_workflow(ckpt1.checkpoint_once())
        svc2.run_workflow(ckpt2.checkpoint_once())
        assert ckpt2.total_checkpoint_time > ckpt1.total_checkpoint_time

    def test_checkpoint_blocks_requests(self):
        svc, ckpt = self.make()

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)

        svc.run_workflow(wf())
        # Staged 32 KiB at 1 MB/s -> ~33 ms checkpoint; a put issued during
        # the checkpoint must wait for the server CPUs.
        t_free = None

        def timed():
            nonlocal t_free
            ck = svc.sim.process(ckpt.checkpoint_once())
            yield svc.sim.timeout(0.001)  # checkpoint already holding CPUs
            t0 = svc.sim.now
            yield from svc.put("w0", "v", svc.domain.block_bbox(0))
            t_free = svc.sim.now - t0
            yield ck

        svc.run_workflow(timed())
        assert t_free > 0.01  # blocked behind the checkpoint drain

    def test_restart_time_accounted(self):
        svc, ckpt = self.make()

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)

        svc.run_workflow(wf())
        svc.run_workflow(ckpt.checkpoint_once())
        svc.run_workflow(ckpt.restart())
        assert ckpt.total_restart_time > 0
        # Restart includes the redistribution overhead on top of the read.
        assert ckpt.total_restart_time > ckpt.config.pfs.read_time(ckpt.last_checkpoint_bytes)

    def test_stop_halts_loop(self):
        svc, ckpt = self.make(interval=1.0)
        ckpt.start()
        svc.run(until=1.5)
        n = ckpt.n_checkpoints
        ckpt.stop()
        svc.run(until=10.0)
        assert ckpt.n_checkpoints == n

    def test_stop_while_waiting_for_a_cpu_leaks_no_slot_and_no_request(self):
        """``stop()`` interrupts the checkpoint while it holds servers 0 and 1
        and is queued for server 2's CPU: the two slots come back and the
        queued request is withdrawn, not granted to a dead process."""
        svc, ckpt = self.make(interval=1.0)

        def hog():  # server 2 is busy across the checkpoint's start
            yield from svc.runtime.busy(2, 5.0, "store")

        svc.sim.process(hog())
        ckpt.start()
        svc.run(until=1.5)
        cpus = [srv.cpu for srv in svc.servers]
        assert [c.in_use for c in cpus[:3]] == [1, 1, 1] and cpus[2].queued == 1
        ckpt.stop()
        svc.run()  # the hog ends at 5.0; nothing is left to grant
        assert ckpt.n_checkpoints == 0
        assert [(c.in_use, c.queued) for c in cpus] == [(0, 0)] * len(cpus)
        done = []

        def later(sid):
            yield from svc.runtime.busy(sid, 0.1, "store")
            done.append(sid)

        for sid in range(len(cpus)):
            svc.sim.process(later(sid))
        svc.run()
        assert sorted(done) == list(range(len(cpus)))
