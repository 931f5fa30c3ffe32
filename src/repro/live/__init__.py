"""Live (wall-clock, concurrent) staging backend.

The simulator answers "what would CoREC's policies do"; this package
answers "do they survive contact with a real event loop".  It reuses the
entire policy/runtime/directory stack behind the
:mod:`repro.core.backend` interfaces:

- :class:`LiveEngine` — asyncio-backed clock driving the same
  generator-process model as the simulator, with host compute
  (digests, GF(2^8) kernel passes) run on the loop;
- :class:`LiveTransport` — cooperative-yield transport with the
  simulator's transfer accounting (a modeled transfer takes no wall
  time);
- :class:`LiveStagingService` — async facade assembling the standard
  :class:`~repro.staging.service.StagingService` on the live backend;
- :class:`LiveServer` / :class:`LiveClient` — length-prefixed TCP
  protocol for real multi-client traffic (``serve_in_thread`` runs the
  whole stack on a background thread for tests and load generators);
- :class:`LiveCluster` / :class:`ClusterClient` — sharded multi-process
  deployment (one OS process per coding-group shard) plus the
  block→shard routing client over the same wire protocol;
- :mod:`repro.live.conformance` — seeded differential workloads
  asserting sim, live and sharded-cluster runs reach byte-identical
  state at quiescence.
"""

from repro.live.cluster import LiveCluster, ShardPlan
from repro.live.engine import LiveEngine, LiveProcessError
from repro.live.protocol import LiveClient, ProtocolError, RemoteOpError
from repro.live.router import ClusterClient
from repro.live.server import LiveServer, ServerHandle, serve_in_thread
from repro.live.service import LiveStagingService
from repro.live.transport import LiveTransport

__all__ = [
    "LiveEngine",
    "LiveProcessError",
    "LiveTransport",
    "LiveStagingService",
    "LiveServer",
    "ServerHandle",
    "serve_in_thread",
    "LiveClient",
    "ProtocolError",
    "RemoteOpError",
    "LiveCluster",
    "ShardPlan",
    "ClusterClient",
]
