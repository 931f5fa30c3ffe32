"""Spatial index: block -> primary staging server.

DataSpaces distributes the staged domain across servers with a DHT over a
space-filling decomposition.  We reproduce the essential property — a
*deterministic, balanced* mapping from spatial blocks to servers that every
client can compute locally — with a block-grid round-robin assignment.
"""

from __future__ import annotations

from repro.staging.domain import Domain

__all__ = ["SpatialIndex"]


class SpatialIndex:
    """Maps domain blocks to primary servers: block ``b`` lives on server
    ``b % n_servers``, preserving spatial striding — what the original
    DataSpaces layout achieves.  The variable name plays no role."""

    def __init__(self, domain: Domain, n_servers: int):
        if n_servers < 1:
            raise ValueError("need at least one server")
        self.domain = domain
        self.n_servers = n_servers

    def primary_of_block(self, block_id: int, name: str = "") -> int:
        """Primary server for one block of one variable."""
        if not 0 <= block_id < self.domain.n_blocks:
            raise IndexError(f"block {block_id} out of range")
        return block_id % self.n_servers

    def blocks_per_server(self, name: str = "") -> dict[int, int]:
        """Block-count load per server (for balance assertions).

        Blocks 0..n-1 striped over servers: server s gets one extra block
        iff s < n_blocks % n_servers.
        """
        base, extra = divmod(self.domain.n_blocks, self.n_servers)
        return {s: base + (1 if s < extra else 0) for s in range(self.n_servers)}
