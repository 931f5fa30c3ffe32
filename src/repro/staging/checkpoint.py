"""Checkpoint/Restart baseline for the staged data (paper Figure 2).

Models the motivation experiment of Section II-A: the staging servers
periodically checkpoint their entire in-memory content to the parallel file
system.  A checkpoint is a globally consistent snapshot — all servers pause
request processing (their CPU slots are held) while the staged bytes drain
to the PFS at its aggregate bandwidth.  Restart reads the snapshot back and
redistributes it.

The PFS is the bottleneck: ``duration = latency + staged_bytes /
aggregate_bandwidth``, which is what makes checkpoint cost grow linearly
with staged data size — the effect Figure 2 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.sim.engine import Simulator

__all__ = ["PFSModel", "CheckpointConfig", "CheckpointedStaging"]


@dataclass
class PFSModel:
    """Aggregate-bandwidth parallel-filesystem model (Lustre-like)."""

    aggregate_bandwidth_bps: float = 2.0e9
    latency_s: float = 5.0e-3

    def write_time(self, nbytes: int) -> float:
        return self.latency_s + nbytes / self.aggregate_bandwidth_bps

    def read_time(self, nbytes: int) -> float:
        return self.latency_s + nbytes / self.aggregate_bandwidth_bps


@dataclass
class CheckpointConfig:
    """Periodic checkpointing parameters (the paper used a 4 s period)."""

    interval_s: float = 4.0
    pfs: PFSModel = None
    redistribute_overhead: float = 0.25  # restart extra cost (re-index, scatter)

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if self.pfs is None:
            self.pfs = PFSModel()


class CheckpointedStaging:
    """Drives periodic global checkpoints of a staging service.

    Attach to any :class:`~repro.staging.service.StagingService`; normally
    used with the :class:`~repro.core.policies.NoResilience` policy, since
    Checkpoint/Restart *is* the fault-tolerance mechanism here.
    """

    def __init__(self, service, config: CheckpointConfig | None = None):
        self.service = service
        self.config = config or CheckpointConfig()
        self.n_checkpoints = 0
        self.total_checkpoint_time = 0.0
        self.total_restart_time = 0.0
        self.last_checkpoint_bytes = 0
        self._proc = None
        self._stopped = False

    # ------------------------------------------------------------------
    def staged_bytes(self) -> int:
        return sum(s.bytes_stored for s in self.service.servers)

    def start(self) -> None:
        """Launch the periodic checkpoint process."""
        self._proc = self.service.sim.process(self._loop(), name="checkpointer")

    def stop(self) -> None:
        self._stopped = True
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")

    def _loop(self) -> Generator:
        from repro.sim.engine import Interrupt

        sim: Simulator = self.service.sim
        try:
            while not self._stopped:
                yield sim.timeout(self.config.interval_s)
                if self._stopped:
                    return
                yield from self.checkpoint_once()
        except Interrupt:
            return

    def checkpoint_once(self) -> Generator:
        """One globally consistent checkpoint: pause all servers, drain."""
        sim = self.service.sim
        t0 = sim.now
        requests = []
        servers = [s for s in self.service.servers if not s.failed]
        try:
            for srv in servers:
                req = srv.cpu.request()
                requests.append((srv, req))
                yield req
            nbytes = self.staged_bytes()
            self.last_checkpoint_bytes = nbytes
            yield sim.timeout(self.config.pfs.write_time(nbytes))
        finally:
            # An interrupt can land while the last request is still queued:
            # cancel() withdraws that one and releases the granted ones.
            for srv, req in requests:
                srv.cpu.cancel(req)
        duration = sim.now - t0
        self.n_checkpoints += 1
        self.total_checkpoint_time += duration
        self.service.log.emit(sim.now, "checkpoint", source="ckpt", bytes=nbytes, duration=duration)
        return duration

    def restart(self) -> Generator:
        """Global restart from the last checkpoint (rollback).

        Reads the snapshot back and redistributes it; all servers blocked.
        Returns the restart duration.
        """
        sim = self.service.sim
        t0 = sim.now
        nbytes = self.last_checkpoint_bytes
        base = self.config.pfs.read_time(nbytes)
        yield sim.timeout(base * (1.0 + self.config.redistribute_overhead))
        duration = sim.now - t0
        self.total_restart_time += duration
        self.service.log.emit(sim.now, "restart", source="ckpt", bytes=nbytes, duration=duration)
        return duration
