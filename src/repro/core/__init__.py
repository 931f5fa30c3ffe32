"""CoREC core: the paper's primary contribution.

- :mod:`repro.core.model` — the Section II-D analytic cost/efficiency model
  (Figure 4);
- :mod:`repro.core.partition` — Algorithm 1 geometric object fitting;
- :mod:`repro.core.placement` — grouped replication & erasure-coding layout
  over the topology-aware ring (Section III-A);
- :mod:`repro.core.classifier` — online hot/cold data classification from
  spatial/temporal access locality (Section II-C);
- :mod:`repro.core.tokens` — the load-balancing, conflict-avoiding encoding
  token workflow (Section III-B);
- :mod:`repro.core.metrics` — response-time and execution-breakdown
  accounting (Figures 8 and 9);
- :mod:`repro.core.recovery` — degraded reads, lazy recovery and the
  aggressive-recovery baseline (Section III-D, Figure 10);
- :mod:`repro.core.policies` — the resilience-policy interface and the
  NoResilience / Replication / ErasureOnly baselines, plus
  ``policy_from_spec``, the one ``(name, options)`` policy factory;
- :mod:`repro.core.hybrid` — simple hybrid erasure coding (random
  selection, no classification);
- :mod:`repro.core.corec` — the full CoREC policy;
- :mod:`repro.core.runtime` — shared write/read/encode/recover flows
  executed on the simulator.
"""

from repro.core.model import CoRECModel, ModelParams
from repro.core.partition import fit_object, choose_block_shape, PartitionResult
from repro.core.placement import GroupLayout
from repro.core.classifier import HotColdClassifier, ClassifierConfig
from repro.core.metrics import Metrics
from repro.core.policies import (
    ResiliencePolicy,
    NoResilience,
    ReplicationPolicy,
    ErasurePolicy,
    DataLossError,
    policy_from_spec,
    bounded_spec,
    replay_spec,
)
from repro.core.hybrid import SimpleHybridPolicy
from repro.core.corec import CoRECPolicy, CoRECConfig
from repro.core.durability import DurabilityParams, group_mttdl, system_mttdl, annual_loss_probability

__all__ = [
    "CoRECModel",
    "ModelParams",
    "fit_object",
    "choose_block_shape",
    "PartitionResult",
    "GroupLayout",
    "HotColdClassifier",
    "ClassifierConfig",
    "Metrics",
    "ResiliencePolicy",
    "NoResilience",
    "ReplicationPolicy",
    "ErasurePolicy",
    "SimpleHybridPolicy",
    "CoRECPolicy",
    "CoRECConfig",
    "DataLossError",
    "policy_from_spec",
    "bounded_spec",
    "replay_spec",
    "DurabilityParams",
    "group_mttdl",
    "system_mttdl",
    "annual_loss_probability",
]
