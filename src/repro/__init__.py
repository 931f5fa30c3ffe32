"""CoREC: Scalable Data Resilience for In-Memory Data Staging.

A from-scratch Python reproduction of the IPDPS 2018 paper's system:
a resilient in-memory staging service that combines dynamic replication
with erasure coding based on online hot/cold data classification, plus the
substrates it needs (a Reed-Solomon codec over GF(2^8), a discrete-event
cluster simulator standing in for the Titan testbed, and a DataSpaces-like
staging layer).

Quickstart::

    from repro import StagingConfig, StagingService, CoRECPolicy
    from repro.workloads import SyntheticWorkload, SyntheticWorkloadConfig

    service = StagingService(StagingConfig(n_servers=8), CoRECPolicy())
    wl = SyntheticWorkload(service, SyntheticWorkloadConfig(case="case1",
                                                            n_writers=8,
                                                            timesteps=5))
    service.run_workflow(wl.run())
    print(service.metrics.snapshot())
"""

__version__ = "1.0.0"

from repro.staging.service import StagingConfig, StagingService
from repro.core.policies import (
    NoResilience,
    ReplicationPolicy,
    ErasurePolicy,
    DataLossError,
)
from repro.core.hybrid import SimpleHybridPolicy
from repro.core.corec import CoRECPolicy, CoRECConfig
from repro.core.recovery import RecoveryConfig
from repro.core.model import CoRECModel, ModelParams
from repro.staging.domain import BBox, Domain
from repro.staging.tiers import StorageTier, TieredStore, default_tiers
from repro.core.durability import DurabilityParams, group_mttdl, annual_loss_probability
from repro.obs import MetricsRegistry, Tracer

__all__ = [
    "__version__",
    "StagingConfig",
    "StagingService",
    "NoResilience",
    "ReplicationPolicy",
    "ErasurePolicy",
    "SimpleHybridPolicy",
    "CoRECPolicy",
    "CoRECConfig",
    "RecoveryConfig",
    "CoRECModel",
    "ModelParams",
    "BBox",
    "Domain",
    "DataLossError",
    "StorageTier",
    "TieredStore",
    "default_tiers",
    "DurabilityParams",
    "group_mttdl",
    "annual_loss_probability",
    "MetricsRegistry",
    "Tracer",
]
