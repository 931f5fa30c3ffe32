"""DataSpaces-like in-memory staging service.

Implements the virtual shared-space abstraction the paper builds on: n-D
array regions written by simulation clients are partitioned into objects,
distributed across staging servers by a spatial index, and read back by
analysis clients via bounding-box queries.

Modules
-------
- :mod:`repro.staging.domain` — n-D half-open bounding boxes and the global
  domain grid;
- :mod:`repro.staging.objects` — payload digests, stripes and block
  entities (the unit of hot/cold classification);
- :mod:`repro.staging.index` — the block -> server spatial index (the DHT
  analogue);
- :mod:`repro.staging.server` — staging-server state: local object store,
  CPU resource, workload monitor, failure flag;
- :mod:`repro.staging.metadata` — the distributed object directory;
- :mod:`repro.staging.service` — assembly of cluster + network + servers +
  resilience runtime, with client-facing ``put``/``get``;
- :mod:`repro.staging.checkpoint` — the Checkpoint/Restart baseline used by
  the paper's Figure 2 motivation experiment.
"""

from repro.staging.domain import BBox, Domain
from repro.staging.objects import BlockEntity, ResilienceState
from repro.staging.index import SpatialIndex
from repro.staging.server import StagingServer, CostModel
from repro.staging.metadata import MetadataDirectory

__all__ = [
    "BBox",
    "Domain",
    "BlockEntity",
    "ResilienceState",
    "SpatialIndex",
    "StagingServer",
    "CostModel",
    "MetadataDirectory",
    "StagingService",
    "StagingConfig",
    "CheckpointedStaging",
    "CheckpointConfig",
]

_LAZY = {
    # service and checkpoint sit above repro.core in the layering; import
    # them lazily to avoid a circular import through core's model modules.
    "StagingService": "repro.staging.service",
    "StagingConfig": "repro.staging.service",
    "CheckpointedStaging": "repro.staging.checkpoint",
    "CheckpointConfig": "repro.staging.checkpoint",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target)
    return getattr(module, name)
