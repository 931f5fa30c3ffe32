"""Tests for cluster topology and the topology-aware ring."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.cluster import Cluster, topology_aware_ring


class TestCluster:
    def test_basic_layout(self):
        c = Cluster(n_servers=8, nodes_per_cabinet=2)
        assert c.n_cabinets == 4
        assert c.cabinet_of(0) == 0
        assert c.cabinet_of(7) == 3

    def test_ragged_node_count(self):
        c = Cluster(n_servers=5, nodes_per_cabinet=2)
        assert c.n_cabinets == 3
        assert c.servers_in_cabinet(2) == [4]

    def test_out_of_range(self):
        c = Cluster(n_servers=4)
        with pytest.raises(IndexError):
            c.cabinet_of(4)
        with pytest.raises(IndexError):
            c.cabinet_of(-1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Cluster(n_servers=0)
        with pytest.raises(ValueError):
            Cluster(n_servers=4, nodes_per_cabinet=0)

    def test_servers_in_cabinet(self):
        c = Cluster(n_servers=8, nodes_per_cabinet=4)
        assert c.servers_in_cabinet(0) == [0, 1, 2, 3]
        assert c.servers_in_cabinet(1) == [4, 5, 6, 7]


class TestTopologyAwareRing:
    def test_ring_is_permutation(self):
        c = Cluster(n_servers=12, nodes_per_cabinet=2)
        ring = topology_aware_ring(c)
        assert sorted(ring) == list(range(12))

    def test_adjacent_ring_entries_in_distinct_cabinets(self):
        c = Cluster(n_servers=12, nodes_per_cabinet=2)
        ring = topology_aware_ring(c)
        cabs = [c.cabinet_of(s) for s in ring]
        for i in range(len(ring)):
            assert cabs[i] != cabs[(i + 1) % len(ring)]

    def test_window_spans_distinct_cabinets(self):
        # Any window of size <= n_cabinets spans distinct cabinets when the
        # distribution is balanced.
        c = Cluster(n_servers=16, nodes_per_cabinet=2)
        ring = topology_aware_ring(c)
        w = min(c.n_cabinets, 4)
        for start in range(len(ring)):
            window = [ring[(start + j) % len(ring)] for j in range(w)]
            cabs = {c.cabinet_of(s) for s in window}
            assert len(cabs) == w

    def test_single_cabinet_cluster(self):
        c = Cluster(n_servers=4, nodes_per_cabinet=8)
        ring = topology_aware_ring(c)
        assert sorted(ring) == [0, 1, 2, 3]

    @given(n=st.integers(1, 64), npc=st.integers(1, 8))
    def test_ring_always_permutation_property(self, n, npc):
        c = Cluster(n_servers=n, nodes_per_cabinet=npc)
        ring = topology_aware_ring(c)
        assert sorted(ring) == list(range(n))
