"""``sim_s3d``: the S3D coupled workflow on the deterministic simulator.

No ``repro.live`` at all.  ``S3DWorkload`` at Table II scale 2 shrunk by 4
(256 writers, 16 staging servers, 8 analysis readers — the
``bench_fig11_s3d_read`` deployment) supplies the writer and reader boxes;
this module drives its timesteps one phase at a time so that the wall
time the simulator needs for a write phase, a read phase and a recovery
can be told apart.  Each lap is one fresh service: step 0 (every entity
created) is set-up, the remaining steps are measured, and two servers
fail and are replaced along the way.

Simulated outputs (``sim.now``, put/get counts, storage efficiency) are
bit-deterministic for a seed and are checked to be identical lap to lap;
the seed-independent ones are pinned in :data:`PINS`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from targets import Lap, Spans, Untimed, calib_unit, clock, service_counters

FABRIC_SCALE = 32  # bench_fig11's data:bandwidth scaling
GF_SCALE = 8
VAR = "species"


@dataclass(frozen=True)
class SimSpec:
    steps: int  # timesteps per lap, the set-up step included
    victims: int  # odd measured steps that lose (and get back) a server


# Every measured step is: analysis reads the previous step, then the
# simulation writes.  On odd steps a seeded server fails before the reads
# (so they are degraded) and is replaced right after them, before the writes
# would re-create its blocks elsewhere — recovery then has the server's whole
# content to rebuild, which is long enough to time.
SIM_SPEC = SimSpec(steps=12, victims=6)
SIM_SMOKE = SimSpec(steps=4, victims=1)

#: Seed-independent simulated outputs of one full lap (block ops counted
#: by the service's own metrics): any change here is a behaviour change.
PINS = {"puts": 3072, "gets": 88, "blocks": 512}


def build(seed: int, tracing: bool = False):
    from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService
    from repro.sim.network import NetworkConfig
    from repro.staging.server import CostModel
    from repro.workloads.s3d import S3DConfig, S3DWorkload

    cfg = S3DConfig(scale_index=2, shrink=4, per_core_subdomain=16, element_bytes=8,
                    analysis_every=1, var=VAR)
    svc = StagingService(
        StagingConfig(
            n_servers=cfg.n_staging,
            domain_shape=cfg.domain_shape,
            element_bytes=8,
            object_max_bytes=16384,
            async_protection=True,
            nodes_per_cabinet=1,
            network=NetworkConfig(
                bandwidth_bps=5.0e9 / FABRIC_SCALE,
                local_copy_bandwidth_bps=40.0e9 / FABRIC_SCALE,
            ),
            costs=CostModel(memcpy_bps=20.0e9 / FABRIC_SCALE, gf_bps=1.0e9 / GF_SCALE),
            tracing=tracing,
            seed=seed,
        ),
        CoRECPolicy(CoRECConfig(storage_bound=0.67)),
    )
    return svc, S3DWorkload(svc, cfg)


def _phase(svc, flows) -> tuple[float, float, list]:
    """Run sibling flows to completion; returns (t0, t1, their values)."""
    from repro.sim.engine import AllOf

    procs = []

    def body():
        procs.extend(svc.sim.process(flow) for flow in flows)
        yield AllOf(svc.sim, procs)

    t0 = clock()
    svc.run_workflow(body())
    return t0, clock(), [p.value for p in procs]


def run_lap(seed: int, spec: SimSpec, spans: Spans | None = None, tracing: bool = False) -> Lap:
    from repro.chaos.invariants import QUIESCENT, run_invariants

    lap = Lap()
    t_setup = clock()
    svc, wl = build(seed, tracing)
    domain = svc.domain
    n_blocks = domain.n_blocks
    block_bytes = domain.nbytes(domain.block_bbox(0))
    victims = [int(v) for v in np.random.default_rng([seed, 99]).permutation(len(svc.servers))]

    def write_phase():
        return _phase(svc, [svc.put(f"sim{i}", VAR, box) for i, box in enumerate(wl.writer_boxes)])

    def sample_host_speed():
        lap.calib.extend(calib_unit() for _ in range(4))

    write_phase()
    svc.run_workflow(svc.end_step())
    lap.setup_s = clock() - t_setup
    sample_host_speed()

    parent = None if spans is None else spans.add("core.runtime.lap", clock(), 0.0, None, None)
    untimed = Untimed()
    cpu_begin = time.process_time()
    t_begin = clock()
    for step in range(1, spec.steps):
        victim = victims[step // 2] if step % 2 and step // 2 < spec.victims else None
        if victim is not None:
            svc.fail_server(victim)
        t0, t1, results = _phase(
            svc, [svc.get(f"an{i}", VAR, box) for i, box in enumerate(wl.analysis_boxes)]
        )
        n_read = sum(len(payloads) for _, payloads in results)
        (lap.get if victim is None else lap.degraded).append((t1 - t0) / n_read)
        lap.ops += n_read
        lap.bytes_moved += n_read * block_bytes
        if spans is not None:
            spans.add("core.runtime.get_phase", t0, t1, parent, step)
        # Every block was written once per step, so its version is step-1.
        with untimed:
            for _, payloads in results:
                for bid, got in payloads.items():
                    want = svc.synth_payload(VAR, bid, step - 1, block_bytes)
                    if not np.array_equal(got, want):
                        lap.fail(f"step {step}: block {bid} read back wrong bytes")
        if victim is not None:
            svc.run()  # background protection first: time only the recovery
            t0 = clock()
            svc.replace_server(victim)
            svc.run()
            t1 = clock()
            lap.recover.append(t1 - t0)
            if spans is not None:
                spans.add("core.recovery.replace", t0, t1, parent, step)
        t0, t1, _ = write_phase()
        lap.put.append((t1 - t0) / n_blocks)
        lap.ops += n_blocks
        lap.bytes_moved += n_blocks * block_bytes
        if spans is not None:
            spans.add("core.runtime.put_phase", t0, t1, parent, step)
        svc.run_workflow(svc.end_step())
        with untimed:
            sample_host_speed()  # between timesteps: see Lap.speed
    svc.run_workflow(svc.flush())
    svc.run()
    t_end = clock()
    lap.window_s = t_end - t_begin - untimed.wall
    lap.cpu_s = time.process_time() - cpu_begin - untimed.cpu
    if spans is not None:
        spans.close(parent, t_end)

    lap.attempted = lap.ops
    lap.efficiency = svc.metrics.storage.efficiency()
    lap.counters = service_counters(svc)
    lap.counters.update(
        sim_time_s=svc.sim.now,
        puts=float(svc.metrics.put_stat.n),
        gets=float(svc.metrics.get_stat.n),
        blocks=float(n_blocks),
    )
    if svc.read_errors:
        lap.fail(f"{svc.read_errors} read errors")
    for violation in run_invariants(svc, tier=QUIESCENT):
        lap.fail(str(violation))
    for key in svc.verify_all()["unrecoverable"]:
        lap.fail(f"unrecoverable {key}")
    if spec is SIM_SPEC:
        for name, want in PINS.items():
            if lap.counters[name] != want:
                lap.fail(f"pinned {name}: {lap.counters[name]} != {want}")
    return lap
