"""Tests for the spatial index."""

import pytest

from repro.staging.domain import Domain
from repro.staging.index import SpatialIndex


class TestRoundRobin:
    def test_block_assignment(self):
        d = Domain((16,), (4,))
        idx = SpatialIndex(d, n_servers=2)
        assert [idx.primary_of_block(b) for b in range(4)] == [0, 1, 0, 1]

    def test_balance(self):
        d = Domain((8, 8, 8), (2, 2, 2))  # 64 blocks
        idx = SpatialIndex(d, n_servers=8)
        counts = idx.blocks_per_server()
        assert all(c == 8 for c in counts.values())

    def test_out_of_range(self):
        d = Domain((8,), (4,))
        idx = SpatialIndex(d, 2)
        with pytest.raises(IndexError):
            idx.primary_of_block(5)


def scan_blocks_per_server(idx, name=""):
    """O(n_blocks) reference for the analytic ``blocks_per_server``."""
    counts = {s: 0 for s in range(idx.n_servers)}
    for bid in range(idx.domain.n_blocks):
        counts[idx.primary_of_block(bid, name)] += 1
    return counts


class TestBlocksPerServerCache:
    def test_cache_matches_reference_scan(self):
        d = Domain((20, 12), (4, 4))  # 15 blocks over 6 servers, any variable
        idx = SpatialIndex(d, 6)
        for name in ("a", "b", "a"):
            assert idx.blocks_per_server(name) == scan_blocks_per_server(idx, name)

    def test_round_robin_analytic_matches_scan(self):
        # 13 blocks over 5 servers: ragged striping, base+1 for the first 3.
        d = Domain((13,), (1,))
        idx = SpatialIndex(d, 5)
        assert idx.blocks_per_server() == scan_blocks_per_server(idx)
        assert idx.blocks_per_server() == {0: 3, 1: 3, 2: 3, 3: 2, 4: 2}

    def test_cached_result_is_a_copy(self):
        idx = SpatialIndex(Domain((16,), (4,)), 2)
        counts = idx.blocks_per_server("v")
        counts[0] = -999
        assert idx.blocks_per_server("v") != counts


class TestValidation:
    def test_bad_server_count(self):
        with pytest.raises(ValueError):
            SpatialIndex(Domain((8,), (4,)), 0)
