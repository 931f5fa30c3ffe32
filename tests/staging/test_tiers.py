"""Tests for the multi-tier storage extension."""

import numpy as np
import pytest

from repro.staging.tiers import StorageTier, TieredStore, TierPlacementRule, default_tiers


def payload(n, fill=1):
    return np.full(n, fill, dtype=np.uint8)


def two_tier(dram=1000):
    return TieredStore(
        [
            StorageTier("dram", dram, write_bps=1e9, read_bps=1e9),
            StorageTier("ssd", 0, write_bps=1e8, read_bps=1e8, latency_s=1e-5),
        ]
    )


class TestStorageTier:
    def test_write_read_times(self):
        t = StorageTier("x", 100, write_bps=1e6, read_bps=2e6, latency_s=1e-3)
        assert t.write_time(1000) == pytest.approx(1e-3 + 1e-3)
        assert t.read_time(1000) == pytest.approx(1e-3 + 5e-4)

    def test_default_stack(self):
        tiers = default_tiers(dram_bytes=1 << 20, nvram_bytes=1 << 22)
        assert [t.name for t in tiers] == ["dram", "nvram", "ssd"]
        assert tiers[-1].capacity_bytes == 0  # unbounded bottom

    def test_default_stack_speed_ordering(self):
        tiers = default_tiers(dram_bytes=1, nvram_bytes=1)
        assert tiers[0].read_bps > tiers[1].read_bps > tiers[2].read_bps


class TestTieredStoreBasics:
    def test_requires_tiers(self):
        with pytest.raises(ValueError):
            TieredStore([])

    def test_only_bottom_unbounded(self):
        with pytest.raises(ValueError):
            TieredStore(
                [
                    StorageTier("a", 0, 1e9, 1e9),
                    StorageTier("b", 100, 1e9, 1e9),
                ]
            )

    def test_put_get_roundtrip(self):
        ts = two_tier()
        cost = ts.put("P/v/0", payload(100))
        assert cost > 0
        got, rcost = ts.fetch("P/v/0")
        assert (got == payload(100)).all()
        assert rcost > 0
        assert ts.tier_of("P/v/0") == "dram"

    def test_occupancy_tracking(self):
        ts = two_tier()
        ts.put("P/v/0", payload(100))
        ts.put("P/v/1", payload(200))
        assert ts.occupancy[0] == 300
        ts.delete("P/v/0")
        assert ts.occupancy[0] == 200

    def test_overwrite_replaces_bytes(self):
        ts = two_tier()
        ts.put("P/v/0", payload(100))
        ts.put("P/v/0", payload(50, fill=2))
        assert ts.occupancy[0] == 50
        got, _ = ts.fetch("P/v/0")
        assert (got == 2).all()

    def test_clear(self):
        ts = two_tier()
        ts.put("P/v/0", payload(10))
        ts.clear()
        assert len(ts) == 0
        assert ts.occupancy == [0, 0]


class TestPlacementRule:
    def test_primary_prefers_dram(self):
        ts = two_tier()
        ts.put("P/v/0", payload(10))
        assert ts.tier_of("P/v/0") == "dram"

    def test_redundancy_prefers_capacity_tier(self):
        ts = two_tier()
        ts.put("R/v/0", payload(10))
        ts.put("stripe3/shard3", payload(10))
        assert ts.tier_of("R/v/0") == "ssd"
        assert ts.tier_of("stripe3/shard3") == "ssd"

    def test_single_tier_clamps(self):
        ts = TieredStore([StorageTier("dram", 0, 1e9, 1e9)])
        ts.put("R/v/0", payload(10))
        assert ts.tier_of("R/v/0") == "dram"

    def test_custom_rule(self):
        ts = TieredStore(
            [
                StorageTier("dram", 1000, 1e9, 1e9),
                StorageTier("ssd", 0, 1e8, 1e8),
            ],
            rule=TierPlacementRule(replica_tier=0),
        )
        ts.put("R/v/0", payload(10))
        assert ts.tier_of("R/v/0") == "dram"


class TestCapacityPressure:
    def test_eviction_under_pressure(self):
        ts = two_tier(dram=250)
        ts.put("P/v/0", payload(100))
        ts.put("P/v/1", payload(100))
        ts.put("P/v/2", payload(100))  # exceeds DRAM; something demotes
        assert ts.occupancy[0] <= 250
        assert ts.migrations_down >= 1
        # All three objects still readable.
        for k in ("P/v/0", "P/v/1", "P/v/2"):
            got, _ = ts.fetch(k)
            assert got.size == 100

    def test_lowest_utility_evicted_first(self):
        ts = two_tier(dram=250)
        ts.put("P/v/0", payload(100))
        ts.put("P/v/1", payload(100))
        for _ in range(5):
            ts.fetch("P/v/0")  # make v0 hot
        ts.put("P/v/2", payload(100))
        # v1 (cold) went down; v0 (hot) stayed.
        assert ts.tier_of("P/v/0") == "dram"
        assert ts.tier_of("P/v/1") == "ssd"

    def test_fetch_promotes_a_demoted_object(self):
        ts = two_tier(dram=250)
        ts.put("P/v/0", payload(100))
        ts.put("P/v/1", payload(100))
        ts.put("P/v/2", payload(100))
        demoted = next(k for k in ("P/v/0", "P/v/1", "P/v/2") if ts.tier_of(k) == "ssd")
        ts.delete(next(k for k in ("P/v/0", "P/v/1", "P/v/2") if ts.tier_of(k) == "dram"))
        ts.fetch(demoted)
        assert ts.tier_of(demoted) == "dram"
        assert ts.migrations_up >= 1

    def test_bottom_tier_never_full(self):
        ts = two_tier(dram=100)
        for i in range(50):
            ts.put(f"R/v/{i}", payload(100))
        assert len(ts) == 50

    def test_stats(self):
        ts = two_tier()
        ts.put("P/v/0", payload(10))
        s = ts.stats()
        assert s["objects"] == 1
        assert s["occupancy"]["dram"] == 10


class TestServerIntegration:
    def test_server_with_tiers(self):
        from repro.sim.engine import Simulator
        from repro.staging.server import StagingServer
        from repro.staging.tiers import default_tiers

        srv = StagingServer(Simulator(), 0, tiers=default_tiers(dram_bytes=1 << 20))
        srv.store_bytes("P/v/0", payload(128))
        srv.store_bytes("R/v/0", payload(128))
        assert srv.tiered.tier_of("P/v/0") == "dram"
        assert srv.tiered.tier_of("R/v/0") == "ssd"
        assert srv.tier_busy_s > 0
        srv.fetch_bytes("R/v/0")
        srv.delete_bytes("R/v/0")
        assert "R/v/0" not in srv.tiered
        srv.fail()
        assert len(srv.tiered) == 0

    def test_service_end_to_end_with_tiers(self):
        from repro import CoRECPolicy, StagingConfig, StagingService
        from repro.staging.tiers import default_tiers

        svc = StagingService(
            StagingConfig(
                n_servers=8,
                domain_shape=(32, 32, 32),
                element_bytes=1,
                object_max_bytes=4096,
                tiers=tuple(default_tiers(dram_bytes=64 * 1024)),
                seed=1,
            ),
            CoRECPolicy(),
        )

        def wf():
            for _ in range(3):
                yield from svc.put("w0", "v", svc.domain.bbox)
                yield from svc.end_step()
            yield from svc.flush()
            yield from svc.get("r0", "v", svc.domain.bbox)

        svc.run_workflow(wf())
        svc.run()
        assert svc.read_errors == 0
        # Redundancy landed on capacity tiers somewhere in the fleet.
        placements = set()
        for srv in svc.servers:
            for key in srv.tiered.keys():
                placements.add((key.split("/")[0], srv.tiered.tier_of(key)))
        assert ("P", "dram") in {(k[:1], t) for k, t in placements}
        assert any(t != "dram" for _, t in placements)
