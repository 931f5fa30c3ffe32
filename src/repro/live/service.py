"""Async facade over the staging service on the live engine.

``LiveStagingService`` assembles the *same* :class:`~repro.staging.service.StagingService`
— same policies, runtime, directory, codec, metrics — but injects a
:class:`~repro.live.engine.LiveEngine` clock and a
:class:`~repro.live.transport.LiveTransport` fabric, then exposes the
client API as coroutines.  Every generator flow (put/get, stripe
formation, recovery sweeps) runs unchanged; what changes is who drives
it: asyncio tasks on the wall clock instead of a virtual-time heap.

Host compute (payload digests, GF(2^8) encode/decode batches) reaches the
engine through :meth:`StagingRuntime.compute`, which names the bytes the
work passes over.  Work on fewer than :data:`INLINE_COMPUTE_BYTES` runs on
the loop — the hop to a worker costs more than the work; everything else
is offloaded to the engine's worker pool and runs **lock-free**: the
codec layer is thread-safe (locked decode-matrix cache, condition-guarded
coding batch, thread-local scratch pools), so concurrent offloads
genuinely overlap.  On top of that, each offloaded kernel pass is
stripe-parallel — ``RSCode.parallel_map`` is wired to
:meth:`LiveEngine.codec_map`, which fans the pass's column splits across
a dedicated codec worker pool.
"""

from __future__ import annotations

import asyncio
from typing import Any

import numpy as np

from repro.live.engine import LiveEngine
from repro.live.transport import LiveTransport
from repro.obs.export import prometheus_text
from repro.obs.wallclock import WallClockTracer
from repro.staging.domain import BBox
from repro.staging.service import StagingConfig, StagingService

__all__ = ["LiveStagingService", "INLINE_COMPUTE_BYTES"]

#: Compute over fewer input bytes than this runs inline on the event loop.
#: It is the measured cost of the worker hop (submit, wake, completion
#: callback, microqueue resume) expressed as work of the slowest per-byte
#: kernel a flow offloads.  The hop: 47 us in an otherwise idle process on
#: one core (a flow with one offload 60 us, with one inline 12 us), ~80 us
#: with a client thread competing for the interpreter.  The kernels, in ns
#: per input byte named to ``compute`` at 64 KiB / 256 KiB / 1 MiB:
#: ``payload_digest`` (CRC-32) 0.23 / 0.22 / 0.22, RS(3,1) ``encode``
#: 0.22 / 0.09 / 0.06, ``reconstruct_shard`` 0.24 / 0.09 / 0.06 (``decode``,
#: which no flow offloads, 0.37 / 0.20 / 0.48).  The checksum is the
#: slowest, so the hop is worth 210-360 KiB of it; 256 KiB of CRC is 57 us
#: on the loop.
INLINE_COMPUTE_BYTES = 256 * 1024


class LiveStagingService:
    """One live (wall-clock, concurrent) staging deployment.

    Must be constructed inside a running asyncio event loop; all methods
    must be called on that loop.
    """

    def __init__(
        self,
        config: StagingConfig,
        policy,
        time_scale: float = 0.0,
        max_workers: int | None = None,
        tracing: bool = False,
    ):
        self.engine = LiveEngine(time_scale=time_scale, max_workers=max_workers)
        # Wall-clock tracing: the injected tracer replaces the sim-time
        # Tracer the StagingService would build, so put/get flows, the
        # runtime's leaf instrumentation and the engine's offload/codec
        # spans all land in one wall-clock span tree.  `config.tracing`
        # opts in too, for callers that only hold a StagingConfig.
        self.tracing = bool(tracing or config.tracing)
        self.tracer = WallClockTracer() if self.tracing else None
        transport = LiveTransport(self.engine, config.network)
        self.service = StagingService(
            config, policy, engine=self.engine, transport=transport, tracer=self.tracer
        )
        if self.tracer is None:
            self.tracer = self.service.tracer  # NULL_TRACER
        self.engine.tracer = self.tracer
        self.service.runtime.compute_offload = self._place_compute
        # Stripe-parallel kernel passes: large encodes/decodes split by
        # column range across the engine's codec pool.  Byte-identical
        # to serial (columns are independent), so sim-vs-live
        # conformance is unaffected.
        self.service.codec.code.parallel_map = self.engine.codec_map
        self._register_live_gauges()
        if self.tracing:
            self.engine.start_watchdog(
                histogram=self.service.metrics.registry.histogram("live.loop.lag_s")
            )

    def _register_live_gauges(self) -> None:
        """Publish live-only counters next to the service's gauges."""
        from repro.live import protocol

        reg = self.service.metrics.registry
        code = self.service.codec.code
        engine = self.engine
        code.parallel_stats.register_gauges(reg, "codec.parallel")
        protocol.PROTO_STATS.register_gauges(reg, "protocol")
        # Continuous saturation signals for the data plane: worker-pool
        # backlogs, the zero-delay microqueue, in-flight offloads and the
        # watchdog's event-loop lag readings.
        reg.gauge("live.pool.queue_depth", lambda: engine.pool_queue_depth)
        reg.gauge("live.codec_pool.queue_depth", lambda: engine.codec_queue_depth)
        reg.gauge("live.microqueue.depth", lambda: engine.microqueue_depth)
        reg.gauge("live.events.ready_total", lambda: engine.events_ready)
        reg.gauge("live.events.scheduled_total", lambda: engine.actions_scheduled)
        reg.gauge("live.offloads.inlined_total", lambda: engine.offloads_inlined)
        reg.gauge("live.offloads.submitted_total", lambda: engine.offloads_submitted)
        reg.gauge("live.offloads.inflight", lambda: engine.offloads_inflight)
        reg.gauge("live.loop.lag_last_s", lambda: engine.loop_lag_s)
        reg.gauge("live.loop.lag_max_s", lambda: engine.loop_lag_max_s)

    def _place_compute(self, fn, nbytes: int, category: str):
        if nbytes < INLINE_COMPUTE_BYTES:
            return self.engine.inline(fn, charge=category)
        return self.engine.offload(fn, charge=category)

    # ------------------------------------------------------------------
    # convenience passthroughs
    # ------------------------------------------------------------------
    @property
    def config(self) -> StagingConfig:
        return self.service.config

    @property
    def runtime(self):
        return self.service.runtime

    @property
    def directory(self):
        return self.service.directory

    @property
    def domain(self):
        return self.service.domain

    @property
    def servers(self):
        return self.service.servers

    @property
    def metrics(self):
        return self.service.metrics

    @property
    def step(self) -> int:
        return self.service.step

    # ------------------------------------------------------------------
    # client API (coroutines)
    # ------------------------------------------------------------------
    async def put(
        self, client_name: str, name: str, region: BBox, data: np.ndarray | None = None
    ) -> float:
        return await self.engine.run_process(
            self.service.put(client_name, name, region, data), name=f"put-{name}"
        )

    async def get(
        self, client_name: str, name: str, region: BBox, verify: bool | None = None
    ) -> tuple[float, dict[int, np.ndarray]]:
        return await self.engine.run_process(
            self.service.get(client_name, name, region, verify), name=f"get-{name}"
        )

    # ------------------------------------------------------------------
    # batched ops (one shard's slice of a routed multi-block request)
    # ------------------------------------------------------------------
    async def put_blocks(
        self, client_name: str, name: str, subputs: list[tuple[BBox, np.ndarray | None]]
    ) -> float:
        """Stage several sub-regions of one variable concurrently.

        A cluster router decomposes a client put onto the block grid and
        ships each shard exactly the sub-regions it owns in one ``mput``
        frame; the sub-puts then fan out here just like the block flows of
        a single-process multi-block put.  Returns the slowest sub-put's
        response time (the batch's completion time).
        """
        durations = await asyncio.gather(
            *(self.put(client_name, name, bbox, data) for bbox, data in subputs)
        )
        return max(durations)

    async def get_blocks(
        self, client_name: str, name: str, regions: list[BBox], verify: bool | None = None
    ) -> tuple[float, dict[int, np.ndarray]]:
        """Read several regions of one variable concurrently; merged payloads."""
        results = await asyncio.gather(
            *(self.get(client_name, name, region, verify) for region in regions)
        )
        payloads: dict[int, np.ndarray] = {}
        for _, part in results:
            payloads.update(part)
        return max(d for d, _ in results), payloads

    async def end_step(self) -> None:
        await self.engine.run_process(self.service.end_step(), name="end_step")

    async def flush(self) -> None:
        await self.engine.run_process(self.service.flush(), name="flush")

    async def quiesce(self) -> None:
        """Drain all scheduled work, background protection and offloads."""
        await self.engine.quiesce()

    # ------------------------------------------------------------------
    # failures (synchronous state changes; recovery runs in background)
    # ------------------------------------------------------------------
    def fail_server(self, sid: int) -> None:
        self.service.fail_server(sid)

    def replace_server(self, sid: int) -> None:
        self.service.replace_server(sid)

    def alive_servers(self) -> list[int]:
        return self.service.alive_servers()

    # ------------------------------------------------------------------
    # audit / introspection
    # ------------------------------------------------------------------
    async def verify_all(self) -> dict:
        """Live analogue of :meth:`StagingService.verify_all` (read audit)."""
        from repro.core.runtime import DataLossError

        svc = self.service
        verified = 0
        unrecoverable = []
        for key in sorted(svc.directory.entities):
            ent = svc.directory.entities[key]
            if ent.version < 0:
                continue
            try:
                await self.engine.run_process(svc.audit_probe(ent), name=f"audit-{key}")
                verified += 1
            except DataLossError:
                unrecoverable.append(key)
        return {"verified": verified, "unrecoverable": unrecoverable}

    def storage_report(self) -> dict:
        return self.service.storage_report()

    def stats(self) -> dict[str, Any]:
        """Small operational summary for the protocol's STATS op."""
        m = self.service.metrics
        return {
            "now": self.engine.now,
            "step": self.service.step,
            "puts": m.put_stat.n,
            "gets": m.get_stat.n,
            "alive_servers": self.alive_servers(),
            "entities": len(self.service.directory.entities),
            "stripes": len(self.service.directory.stripes),
            "read_errors": self.service.read_errors,
            "events_dropped": self.service.log.dropped,
        }

    def observe_request(self, op: str, e2e_s: float, breakdown: dict[str, float]) -> None:
        """Fold one traced request into the registry (loop thread only).

        Per-op counters + end-to-end histograms, plus one histogram per
        attribution category — the continuous view the periodic metrics
        snapshot and the Prometheus dump export.
        """
        reg = self.service.metrics.registry
        reg.counter(f"live.rpc.{op}").inc()
        reg.histogram(f"live.rpc.{op}.e2e_s").observe(e2e_s)
        for cat, dt in breakdown.items():
            reg.histogram(f"live.attr.{cat}_s").observe(dt)

    def metrics_text(self) -> str:
        """Prometheus text exposition of the full metrics registry."""
        return prometheus_text(self.service.metrics.registry)

    async def close(self) -> None:
        await self.engine.quiesce()
        self.engine.close()
