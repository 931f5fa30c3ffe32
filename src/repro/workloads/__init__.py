"""Workload generators for the evaluation.

- :mod:`repro.workloads.synthetic` — the five Section IV test cases
  (write-everything, rotating subdomains, hot subsets, random subsets,
  read-everything) with failure-plan hooks;
- :mod:`repro.workloads.s3d` — the S3D-like combustion workflow at the
  paper's Table II weak-scaling configurations (proportionally reduced);
- :mod:`repro.workloads.capture` — the op tape (the one workload format:
  JSONL, wall-clock issue times, verify flags, payload digests,
  fail/replace ops) and its client-side recorder;
- :mod:`repro.workloads.load` — the Tape -> Target seam (``open_target``
  over sim / live / cluster, ``apply_op``), tape replay, and the seeded
  open-loop load generator with its SLO gate.
"""

from repro.workloads.synthetic import (
    SyntheticWorkload,
    SyntheticWorkloadConfig,
    writer_regions,
    reader_regions,
)
from repro.workloads.s3d import S3DWorkload, S3DConfig, TABLE_II
from repro.workloads.capture import CaptureRecorder, Tape, TapeOp
from repro.workloads.load import (
    LoadSpec,
    LoadReport,
    OpSpec,
    ReplayReport,
    SLO,
    SimTarget,
    apply_op,
    arrival_times,
    build_schedule,
    open_target,
    replay_tape,
    run_load,
)

__all__ = [
    "SyntheticWorkload",
    "SyntheticWorkloadConfig",
    "writer_regions",
    "reader_regions",
    "S3DWorkload",
    "S3DConfig",
    "TABLE_II",
    "CaptureRecorder",
    "Tape",
    "TapeOp",
    "LoadSpec",
    "LoadReport",
    "OpSpec",
    "ReplayReport",
    "SLO",
    "SimTarget",
    "apply_op",
    "arrival_times",
    "build_schedule",
    "open_target",
    "replay_tape",
    "run_load",
]
