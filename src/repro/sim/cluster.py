"""Physical cluster topology: one server per node, nodes in cabinets.

The paper's grouped placement (Section III-A) depends on knowing which
staging servers share a failure domain: "a single event such as a power
failure or a physical disturbance will affect multiple devices".  The
cluster model records the server -> cabinet mapping, and
:func:`topology_aware_ring` produces the logical server ring CoREC places
replication/coding groups on — reordered so that any ``n`` consecutive ring
positions fall in ``n`` distinct cabinets (when enough cabinets exist).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Cluster", "topology_aware_ring"]


@dataclass
class Cluster:
    """Server/cabinet layout: one staging server per physical node.

    Parameters
    ----------
    n_servers:
        Total staging servers.
    nodes_per_cabinet:
        Physical nodes, hence servers, per cabinet (the correlated-failure
        domain): server ``s`` sits in cabinet ``s // nodes_per_cabinet``.
    """

    n_servers: int
    nodes_per_cabinet: int = 4

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("need at least one server")
        if self.nodes_per_cabinet < 1:
            raise ValueError("nodes_per_cabinet must be >= 1")

    @property
    def n_cabinets(self) -> int:
        return -(-self.n_servers // self.nodes_per_cabinet)  # ceil division

    def cabinet_of(self, server_id: int) -> int:
        self._check(server_id)
        return server_id // self.nodes_per_cabinet

    def servers_in_cabinet(self, cabinet: int) -> list[int]:
        return [s for s in range(self.n_servers) if self.cabinet_of(s) == cabinet]

    def _check(self, server_id: int) -> None:
        if not 0 <= server_id < self.n_servers:
            raise IndexError(f"server {server_id} out of range 0..{self.n_servers - 1}")


def topology_aware_ring(cluster: Cluster) -> list[int]:
    """Logical server ring with consecutive entries in distinct cabinets.

    Round-robins across cabinets: take one server from cabinet 0, one from
    cabinet 1, ..., wrapping until all servers are placed.  With ``c``
    cabinets, any window of ``min(c, n)`` consecutive ring entries spans
    that many distinct cabinets, so a replication or coding group of size
    <= c never has two members in the same failure domain.
    """
    by_cabinet: dict[int, list[int]] = {}
    for s in range(cluster.n_servers):
        by_cabinet.setdefault(cluster.cabinet_of(s), []).append(s)
    queues = [sorted(v) for _, v in sorted(by_cabinet.items())]
    ring: list[int] = []
    i = 0
    while len(ring) < cluster.n_servers:
        q = queues[i % len(queues)]
        if q:
            ring.append(q.pop(0))
        i += 1
        # Guard against an infinite loop once only one cabinet has servers
        # left: the modular scan still visits it every len(queues) steps.
        if i > cluster.n_servers * max(1, len(queues)) * 2:  # pragma: no cover
            raise RuntimeError("ring construction failed to terminate")
    return ring
