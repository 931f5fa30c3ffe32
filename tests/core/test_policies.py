"""Tests for the baseline policies (none / replication / erasure)."""

import pytest

from repro import DataLossError
from repro.core.runtime import primary_key, replica_key
from repro.staging.objects import ResilienceState

from tests.conftest import accounting_consistent, make_service, stripes_consistent


def write_all(svc, steps=1, var="v"):
    box = svc.domain.bbox

    def wf():
        for _ in range(steps):
            yield from svc.put("w0", var, box)
            yield from svc.end_step()
        yield from svc.flush()

    svc.run_workflow(wf())


class TestNoResilience:
    def test_only_primary_copies(self):
        svc = make_service("none")
        write_all(svc)
        assert svc.metrics.storage.replica == 0
        assert svc.metrics.storage.parity == 0
        assert svc.metrics.storage.efficiency() == 1.0

    def test_every_entity_none_state(self):
        svc = make_service("none")
        write_all(svc)
        assert all(
            e.state == ResilienceState.NONE for e in svc.directory.entities.values()
        )

    def test_no_repair_on_access(self):
        svc = make_service("none")
        assert not svc.policy.repair_on_access


class TestReplicationPolicy:
    def test_all_replicated(self):
        svc = make_service("replication")
        write_all(svc)
        ents = list(svc.directory.entities.values())
        assert all(e.state == ResilienceState.REPLICATED for e in ents)
        assert all(len(e.replicas) == 1 for e in ents)
        assert accounting_consistent(svc)

    def test_efficiency_half(self):
        svc = make_service("replication")
        write_all(svc)
        assert svc.metrics.storage.efficiency() == pytest.approx(0.5)

    def test_replicas_refresh_on_update(self):
        svc = make_service("replication")
        write_all(svc, steps=2)
        for e in svc.directory.entities.values():
            target = e.replicas[0]
            replica = svc.servers[target].fetch_bytes(replica_key(e))
            primary = svc.servers[e.primary].fetch_bytes(primary_key(e))
            assert (replica == primary).all()

    def test_survives_single_failure(self):
        svc = make_service("replication")
        write_all(svc)
        svc.fail_server(0)

        def wf():
            _, payloads = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        assert svc.read_errors == 0

    def test_replicas_on_distinct_servers(self):
        svc = make_service("replication")
        write_all(svc)
        for e in svc.directory.entities.values():
            assert e.primary not in e.replicas


class TestErasurePolicy:
    def test_all_encoded_after_flush(self):
        svc = make_service("erasure")
        write_all(svc)
        ents = list(svc.directory.entities.values())
        assert all(e.state == ResilienceState.ENCODED for e in ents)
        assert stripes_consistent(svc)
        assert accounting_consistent(svc)

    def test_storage_efficiency_above_replication(self):
        svc = make_service("erasure")
        write_all(svc)
        assert svc.metrics.storage.efficiency() > 0.5

    def test_updates_reencode(self):
        svc = make_service("erasure")
        write_all(svc, steps=3)
        assert svc.metrics.counters["stripe_reencodes"] > 0
        assert stripes_consistent(svc)

    def test_survives_single_failure_with_decode(self):
        svc = make_service("erasure")
        write_all(svc)
        svc.fail_server(1)

        def wf():
            _, payloads = yield from svc.get("r0", "v", svc.domain.bbox)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        assert svc.read_errors == 0

    def test_two_failures_in_one_group_lose_data(self):
        svc = make_service("erasure")
        write_all(svc)
        stripe = next(iter(svc.directory.stripes.values()))
        # Kill two shard holders of the same stripe before aggressive
        # recovery can help (same instant).
        holders = dict(stripe.holders())
        svc.fail_server(holders[0])
        svc.fail_server(holders[1])

        def wf():
            yield from svc.get("r0", "v", svc.domain.bbox)

        with pytest.raises(DataLossError):
            svc.run_workflow(wf())

    def test_aggressive_recovery_on_failure(self):
        svc = make_service("erasure")
        write_all(svc)
        svc.fail_server(0)
        svc.run()  # let the aggressive recovery drain
        # Lost primaries were reconstructed onto survivors.
        assert svc.metrics.counters.get("recovered_objects", 0) > 0
        for e in svc.directory.entities.values():
            assert svc.servers[e.primary].has(primary_key(e))

    def test_write_slower_than_replication(self):
        svc_r = make_service("replication")
        svc_e = make_service("erasure")
        write_all(svc_r, steps=3)
        write_all(svc_e, steps=3)
        assert svc_e.metrics.put_stat.mean > svc_r.metrics.put_stat.mean


class TestPolicyFromSpec:
    """The one (name, options) policy factory."""

    def test_every_name_builds_its_policy(self):
        from repro import (
            CoRECPolicy,
            ErasurePolicy,
            NoResilience,
            ReplicationPolicy,
            SimpleHybridPolicy,
        )
        from repro.core.policies import policy_from_spec

        expected = {
            "none": NoResilience,
            "dataspaces": NoResilience,
            "replicate": ReplicationPolicy,
            "erasure": ErasurePolicy,
            "hybrid": SimpleHybridPolicy,
            "corec": CoRECPolicy,
        }
        for name, cls in expected.items():
            assert type(policy_from_spec((name, {}), seed=3)) is cls
        # Fresh instance per call: servers never share a policy.
        spec = ("corec", {"storage_bound": 0.5, "promote_on_access": False})
        a, b = policy_from_spec(spec), policy_from_spec(spec)
        assert a is not b
        assert a.config.storage_bound == 0.5 and not a.config.promote_on_access

    def test_options_reach_the_policy(self):
        import numpy as np

        from repro.core.policies import policy_from_spec

        assert policy_from_spec(
            ("erasure", {"update_strategy": "delta"})
        ).update_strategy == "delta"
        hybrid = policy_from_spec(("hybrid", {"storage_bound": 0.6}), seed=11)
        assert hybrid.storage_bound == 0.6
        assert hybrid.rng.random() == np.random.default_rng(11).random()

    def test_recovery_replaces_the_default(self):
        from repro.core.policies import policy_from_spec
        from repro.core.recovery import RecoveryConfig

        lazy = RecoveryConfig(mode="lazy", mtbf_s=2.0)
        for name in ("replicate", "erasure", "hybrid", "corec"):
            policy = policy_from_spec((name, {}), seed=1, recovery=lazy)
            assert policy.recovery_config is lazy
        assert policy_from_spec(("erasure", {})).recovery_config.mode == "aggressive"

    @pytest.mark.parametrize(
        "spec, kwargs, complaint",
        [
            (("raid5", {}), {}, "unknown policy 'raid5'"),
            (("replicate", {"storage_bound": 0.5}), {}, "no option"),
            (("corec", {"storage_bond": 0.5}), {}, "storage_bond"),
            (("corec", {"recovery": None}), {}, "recovery"),
            (("none", {}), {"recovery": object()}, "never recovers"),
            (("hybrid", {}), {}, "needs a seed"),
        ],
    )
    def test_bad_specs_fail_closed(self, spec, kwargs, complaint):
        from repro.core.policies import policy_from_spec

        with pytest.raises(ValueError, match=complaint):
            policy_from_spec(spec, **kwargs)

    def test_spec_helpers(self):
        from repro.core.policies import bounded_spec, replay_spec

        assert bounded_spec("corec", 0.6) == ("corec", {"storage_bound": 0.6})
        assert bounded_spec("hybrid", 0.6, update_strategy="delta") == (
            "hybrid", {"storage_bound": 0.6, "update_strategy": "delta"}
        )
        assert bounded_spec("erasure", 0.6) == ("erasure", {})
        assert replay_spec("replicate") == ("replicate", {})
        assert replay_spec("corec", enforcement_scope="group") == (
            "corec",
            {
                "promote_on_access": False,
                "max_promotions_per_step": 0,
                "enforcement_scope": "group",
            },
        )
