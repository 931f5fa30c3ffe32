"""Discrete-event simulation engine and cluster/network models.

This subpackage is the substitute for the paper's physical testbed (Titan
Cray XK7 with RDMA transport).  It provides:

- :mod:`repro.sim.engine` — a deterministic event-heap simulator with
  generator-coroutine processes, timeouts, interrupts and condition events
  (a minimal SimPy work-alike, built from scratch);
- :mod:`repro.sim.resources` — FIFO resources for modelling CPU slots and
  NIC serialization;
- :mod:`repro.sim.network` — a latency + bandwidth point-to-point transfer
  model with per-endpoint contention;
- :mod:`repro.sim.cluster` — nodes, cabinets and the topology-aware logical
  ring used by CoREC's grouped placement (paper Section III-A).

Servers fail and are replaced through the staging service
(``fail_server`` / ``replace_server``): at workload steps from a
``failure_plan``, or at the times of a chaos campaign's ``FailureUnit``
list (:mod:`repro.chaos.campaign`).
"""

from repro.sim.engine import Simulator, Process, Event, Timeout, Interrupt, AnyOf, AllOf
from repro.sim.resources import Resource
from repro.sim.network import Network, NetworkConfig
from repro.sim.cluster import Cluster, topology_aware_ring

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Timeout",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "Resource",
    "Network",
    "NetworkConfig",
    "Cluster",
    "topology_aware_ring",
]
