"""Stochastic MTBF failures driven end-to-end.

Draws the chaos campaign's MTBF timeline (``_stochastic_units``: one
server down at a time, each replaced after a repair delay, the next
failure held off until the repair could finish) and applies it to a
running workflow with ``inject_units``, asserting the survivability
contract: whenever concurrent failures never exceed the code's tolerance,
no byte is lost.
"""

import numpy as np
import pytest

from repro.chaos.campaign import ChaosConfig, _stochastic_units, inject_units
from repro.workloads.synthetic import SyntheticWorkload, SyntheticWorkloadConfig

from tests.conftest import make_service


def _case1(svc) -> SyntheticWorkload:
    return SyntheticWorkload(
        svc,
        SyntheticWorkloadConfig(
            case="case1", n_writers=8, n_readers=4, timesteps=8,
            read_in_write_cases=True,
        ),
    )


def run_stochastic(policy_name: str, seed: int, n_failures: int = 3):
    """Run case1 under the seed's MTBF timeline, scaled to the run's length.

    A replaced server is repaired at once (the policy's deadline sweep is
    far away), so each failure is recovered before the next one lands.
    Returns the service, the drawn units and the walker's applied
    ``(t, kind, server)`` events.
    """
    calm = make_service(policy_name)
    calm.run_workflow(_case1(calm).run())
    svc = make_service(policy_name)
    cfg = ChaosConfig(mode="stochastic", n_servers=svc.config.n_servers, n_failures=n_failures)
    units = _stochastic_units(cfg, calm.sim.now, np.random.default_rng(seed))
    applied: list[tuple[float, str, int]] = []

    def apply(kind: str, sid: int) -> None:
        applied.append((svc.sim.now, kind, sid))
        if kind == "fail":
            svc.fail_server(sid)
        else:
            svc.replace_server(sid)
            svc.sim.process(svc.policy.recovery._repair_all_missing(sid))

    inject_units(svc.sim, units, apply)
    svc.run_workflow(_case1(svc).run())
    svc.run()
    return svc, units, applied


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_corec_survives_random_single_failures(seed):
    svc, _, _ = run_stochastic("corec", seed)
    assert svc.read_errors == 0
    # Final read of everything must still be byte-exact.
    def wf():
        _, payloads = yield from svc.get("r0", "field", svc.domain.bbox)
        assert len(payloads) == svc.domain.n_blocks
    svc.run_workflow(wf())
    assert svc.read_errors == 0


@pytest.mark.parametrize("policy", ["replication", "erasure"])
def test_baselines_survive_random_single_failures(policy):
    svc, _, _ = run_stochastic(policy, seed=5)
    def wf():
        yield from svc.get("r0", "field", svc.domain.bbox)
    svc.run_workflow(wf())
    assert svc.read_errors == 0


def test_failures_actually_happened():
    svc, units, applied = run_stochastic("corec", seed=1, n_failures=6)
    assert len(units) >= 1
    assert sorted((t, s) for t, kind, s in applied if kind == "fail") == sorted(
        (u.t_fail, u.server) for u in units
    )


def test_deterministic_under_same_seed():
    a_svc, a_units, _ = run_stochastic("corec", seed=7)
    b_svc, b_units, _ = run_stochastic("corec", seed=7)
    assert a_units == b_units
    assert a_svc.metrics.put_stat.mean == b_svc.metrics.put_stat.mean
    assert dict(a_svc.metrics.counters) == dict(b_svc.metrics.counters)
