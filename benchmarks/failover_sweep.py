"""Failover sweep: every victim of 144 small S3D runs under async protection.

Usage::

    PYTHONPATH=src python benchmarks/failover_sweep.py

Scale 1; shrink 4 and 8 (8 and 4 staging servers); 8^3 and 16^3 per
core; 4 and 16 KiB objects; seeds 1-3; each staging server in turn fails
at step 1 and is replaced at step 2, with ``async_protection`` on and
``CoRECPolicy(storage_bound=0.67)``.  After each run drains, the whole
quiescent invariant suite runs and every staged entity is read back.
Prints each violation and a summary line; exits 1 if any run ends with
a quiescent violation or an unrecoverable entity.

Asynchronous protection is where writes, stripe formation and failover
race (a put is acknowledged before its replicas or parity land), and the
tier-1 chaos matrix runs it on few geometries: this sweep is the wide
net.  About 65 s on one core of a 2-vCPU x86-64 host.
"""

from __future__ import annotations

import itertools
import sys

from repro import CoRECConfig, CoRECPolicy, StagingConfig, StagingService
from repro.chaos.invariants import QUIESCENT, run_invariants
from repro.workloads.s3d import S3DConfig, S3DWorkload


def run_one(shrink: int, per_core: int, nbytes: int, seed: int, victim: int):
    """One run; returns ``(violations, unrecoverable entities)``."""
    cfg = S3DConfig(
        scale_index=1, shrink=shrink, per_core_subdomain=per_core, element_bytes=8,
        timesteps=3, analysis_every=2,
        failure_plan={1: [("fail", victim)], 2: [("replace", victim)]},
    )
    svc = StagingService(
        StagingConfig(
            n_servers=cfg.n_staging, domain_shape=cfg.domain_shape, element_bytes=8,
            object_max_bytes=nbytes, async_protection=True, nodes_per_cabinet=1,
            seed=seed,
        ),
        CoRECPolicy(CoRECConfig(storage_bound=0.67)),
    )
    svc.run_workflow(S3DWorkload(svc, cfg).run())
    svc.run()
    return run_invariants(svc, tier=QUIESCENT), svc.verify_all()["unrecoverable"]


def main() -> int:
    runs = violating = lossy = 0
    for shrink, per_core, nbytes, seed in itertools.product(
        (4, 8), (8, 16), (4096, 16384), (1, 2, 3)
    ):
        n = S3DConfig(scale_index=1, shrink=shrink, per_core_subdomain=per_core).n_staging
        for victim in range(n):
            found, lost = run_one(shrink, per_core, nbytes, seed, victim)
            runs += 1
            violating += bool(found)
            lossy += bool(lost)
            for v in found:
                print(shrink, per_core, nbytes, seed, victim, v)
            for name, block in lost:
                print(shrink, per_core, nbytes, seed, victim, f"unrecoverable {name}/{block}")
    print(f"runs={runs} with_violations={violating} with_unrecoverable={lossy}")
    return 1 if violating or lossy else 0


if __name__ == "__main__":
    sys.exit(main())
