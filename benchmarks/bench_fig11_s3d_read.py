"""Figure 11 — cumulative S3D read response time, three weak-scaling points.

Paper setup (Table II): the S3D lifted-hydrogen workflow coupled with an
analysis application at 4480 / 8960 / 17920 cores, cumulative read time
over 20 timesteps, for: PFS (no staging), DataSpaces (staging, no
resilience), Replication, Erasure and CoREC; plus failure variants where
CoREC cuts read response by up to ~40.8% (1 failure) and ~37.4% (2
failures) versus pure erasure coding.

Reproduction: each Table II column is shrunk by 8 in every writer-grid
dimension (ratios preserved, see S3DConfig); PFS is modelled by its
aggregate bandwidth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import StagingConfig, StagingService
from repro.core.policies import bounded_spec, policy_from_spec
from repro.sim.network import NetworkConfig
from repro.staging.checkpoint import PFSModel
from repro.staging.server import CostModel
from repro.workloads.s3d import S3DConfig, S3DWorkload

from common import print_table, save_results

# /4 per writer-grid dimension keeps the paper's 16:1 simulation:staging
# core ratio un-clamped (64/128/256 writers on 4/8/16 staging servers), so
# the weak scaling of Table II is preserved.
SHRINK = 4
TIMESTEPS = 20
SCALES = (0, 1, 2)

# The paper stages 160-640 GB against a ~5 GB/s fabric; our reduced domains
# are ~10^4x smaller, so the byte-rate knobs are scaled down by FABRIC_SCALE
# to preserve the data:bandwidth ratio — this is what keeps recovery windows
# spanning multiple timesteps, as they do on the real machine.  The GF
# throughput is scaled less (GF_SCALE): on the testbed, encoding runs at a
# few GB/s against a 5 GB/s network, i.e. comparable per byte, and keeping
# that ratio is what puts erasure's write penalty in the paper's ~25% band
# instead of blowing it past the PFS.
FABRIC_SCALE = 32
GF_SCALE = 8


def run_s3d(scale_index: int, policy_name: str, failure_plan=None):
    cfg = S3DConfig(
        scale_index=scale_index,
        shrink=SHRINK,
        per_core_subdomain=16,
        element_bytes=8,  # double-precision fields, as staged by S3D
        timesteps=TIMESTEPS,
        analysis_every=2,
        failure_plan=failure_plan or {},
    )
    svc = StagingService(
        StagingConfig(
            n_servers=max(4, cfg.n_staging),
            domain_shape=cfg.domain_shape,
            element_bytes=8,
            object_max_bytes=16384,
            async_protection=True,  # large-scale deployments protect off the ACK path
            nodes_per_cabinet=1,
            network=NetworkConfig(
                bandwidth_bps=5.0e9 / FABRIC_SCALE,
                local_copy_bandwidth_bps=40.0e9 / FABRIC_SCALE,
            ),
            costs=CostModel(
                memcpy_bps=20.0e9 / FABRIC_SCALE,
                gf_bps=1.0e9 / GF_SCALE,
            ),
            seed=2,
        ),
        policy_from_spec(bounded_spec(policy_name, 0.67)),
    )
    wl = S3DWorkload(svc, cfg)
    svc.run_workflow(wl.run())
    svc.run()
    return svc, wl, cfg


def pfs_cumulative_read(cfg: S3DConfig) -> float:
    """S3D without staging: analyses read the whole domain from the PFS."""
    pfs = PFSModel(aggregate_bandwidth_bps=2.0e8 / FABRIC_SCALE, latency_s=5e-3)
    reads = TIMESTEPS // 2  # analysis frequency
    return reads * pfs.read_time(cfg.per_step_bytes)


def fig11_experiment():
    table = {}
    for scale in SCALES:
        rows = []
        cfg_probe = S3DConfig(scale_index=scale, shrink=SHRINK, per_core_subdomain=16)
        rows.append({"policy": "pfs", "cum_read_s": pfs_cumulative_read(cfg_probe), "read_errors": 0})
        for policy in ("dataspaces", "replicate", "erasure", "corec"):
            svc, wl, cfg = run_s3d(scale, policy)
            rows.append(
                {
                    "policy": policy,
                    "cum_read_s": wl.cumulative_read_s,
                    "read_errors": svc.read_errors,
                }
            )
        # Failure variants: one and two failures during the run.  The two
        # failures are sequential (the first server is replaced and repaired
        # before the second fails): with RS(k,1) and a single coding group
        # at the smallest scale, two *concurrent* failures would exceed the
        # configured resilience level.
        for label, plan in (
            ("corec+1f", {4: [("fail", 0)], 8: [("replace", 0)]}),
            ("corec+2f", {4: [("fail", 0)], 6: [("replace", 0)], 8: [("fail", 2)], 12: [("replace", 2)]}),
            ("erasure+1f", {4: [("fail", 0)], 8: [("replace", 0)]}),
            ("erasure+2f", {4: [("fail", 0)], 6: [("replace", 0)], 8: [("fail", 2)], 12: [("replace", 2)]}),
        ):
            policy = label.split("+")[0]
            svc, wl, cfg = run_s3d(scale, policy, failure_plan=plan)
            rows.append(
                {"policy": label, "cum_read_s": wl.cumulative_read_s, "read_errors": svc.read_errors}
            )
        table[scale] = rows
    return table


def test_fig11_s3d_cumulative_read(benchmark):
    table = benchmark.pedantic(fig11_experiment, rounds=1, iterations=1)
    for scale, rows in table.items():
        cores = [4480, 8960, 17920][scale]
        print_table(
            f"Figure 11: cumulative read response, {cores}-core scale (/8^3)",
            rows,
            [
                ("policy", "mechanism", ""),
                ("cum_read_s", "cum read (s)", "{:.4f}"),
                ("read_errors", "read errs", "{}"),
            ],
        )
    save_results("fig11_s3d_read", table)

    for scale, rows in table.items():
        by = {r["policy"]: r for r in rows}
        assert all(r["read_errors"] == 0 for r in rows)
        # PFS-based S3D has by far the longest read time.
        staging = [p for p in by if p != "pfs"]
        assert all(by["pfs"]["cum_read_s"] > 2 * by[p]["cum_read_s"] for p in staging)
        # Failure-free staging reads are broadly similar across schemes;
        # failures make reads slower.
        assert by["corec+1f"]["cum_read_s"] > by["corec"]["cum_read_s"]
        assert by["erasure+1f"]["cum_read_s"] > by["erasure"]["cum_read_s"]
        # Under failures CoREC (replica fallbacks + lazy recovery) reads
        # faster than pure erasure coding (decode + aggressive storm).
        assert by["corec+1f"]["cum_read_s"] < by["erasure+1f"]["cum_read_s"]
        assert by["corec+2f"]["cum_read_s"] < by["erasure+2f"]["cum_read_s"]
    benchmark.extra_info["scales"] = len(table)
