"""The load-balancing, conflict-avoiding encoding workflow (Section III-B).

Each replication group shares **one encoding token**: only the holder may
perform an encoding operation, which (a) guarantees that at most one stripe
operation is in flight per group — "exactly one stripe is placed in the
coding grouped servers" — and (b) lets the group route the work to its
least-loaded member.  Because hot data is always replicated, every group
member holds the bytes locally, so whichever member executes the encode
reads the data without extra transfers.

With ``enabled=False`` the manager degrades to the naive behaviour (encode
always executes on the primary, no serialization), which is the ablation
baseline.
"""

from __future__ import annotations

from typing import Callable, Generator, Sequence

from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.staging.server import StagingServer

__all__ = ["EncodingTokenManager"]


class EncodingTokenManager:
    """One token (mutex) per replication group plus executor selection."""

    def __init__(
        self,
        sim: Simulator,
        n_groups: int,
        servers: Sequence[StagingServer],
        enabled: bool = True,
    ):
        self.sim = sim
        self.servers = servers
        self.enabled = enabled
        self._tokens = [Resource(sim) for _ in range(n_groups)]
        self.encodes_by_server: dict[int, int] = {}
        self.offloaded = 0   # encodes routed away from the busiest candidate
        self.executed = 0

    # ------------------------------------------------------------------
    def choose_executor(self, candidates: Sequence[int], preferred: int) -> int:
        """Least-loaded alive candidate; ``preferred`` breaks ties.

        ``candidates`` are the replication-group members that hold a copy of
        the data (primary + replicas).  Dead servers are skipped.
        """
        alive = [s for s in candidates if not self.servers[s].failed]
        if not alive:
            raise RuntimeError("no alive server available to execute encode")
        if not self.enabled:
            return preferred if preferred in alive else alive[0]
        best = min(
            alive,
            key=lambda s: (self.servers[s].workload_level(), s != preferred, s),
        )
        return best

    def run_encode(
        self,
        group_id: int,
        candidates: Sequence[int],
        preferred: int,
        work: Callable[[int], Generator],
    ) -> Generator:
        """Process body: acquire the group token, pick an executor, run work.

        ``work(executor)`` is a generator performing the actual gather /
        encode / distribute flow on the chosen server.  Returns whatever
        ``work`` returns.
        """
        if self.enabled:
            token = self._tokens[group_id]
            req = token.request()
            yield req
        try:
            executor = self.choose_executor(candidates, preferred)
            if executor != preferred:
                self.offloaded += 1
            self.executed += 1
            self.encodes_by_server[executor] = self.encodes_by_server.get(executor, 0) + 1
            result = yield from work(executor)
            return result
        finally:
            if self.enabled:
                token.release(req)
