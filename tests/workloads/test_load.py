"""Tests for the open-loop load generator, SLO gate and tape replayer."""

from __future__ import annotations

import numpy as np
import pytest

import os
from contextlib import closing

from repro.staging.service import StagingService, build_geometry
from repro.workloads.capture import CaptureRecorder, Tape, TapeOp
from repro.workloads.load import (
    ARRIVAL_PROCESSES,
    SLO,
    LoadReport,
    LoadSpec,
    SimTarget,
    apply_op,
    arrival_times,
    build_schedule,
    open_target,
    replay_tape,
    run_load,
)

from tests.conftest import make_service, small_config


class TestArrivalProcesses:
    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_sorted_bounded_and_deterministic(self, process):
        a = arrival_times(process, rate=40, duration=2.0, seed=9)
        b = arrival_times(process, rate=40, duration=2.0, seed=9)
        assert a == b
        assert a == sorted(a)
        assert all(0.0 <= t < 2.0 for t in a)
        assert len(a) > 20  # roughly rate * duration arrivals

    def test_seeds_differ(self):
        a = arrival_times("poisson", 40, 2.0, seed=1)
        b = arrival_times("poisson", 40, 2.0, seed=2)
        assert a != b

    def test_hotspot_bursts_in_the_middle(self):
        ts = arrival_times("hotspot", 40, 4.0, seed=3)
        middle = sum(1 for t in ts if 1.5 <= t < 2.5)
        edge = sum(1 for t in ts if t < 1.0)
        assert middle > edge * 2

    def test_flash_crowd_spikes_after_onset(self):
        ts = arrival_times("flash-crowd", 30, 4.0, seed=3)
        before = sum(1 for t in ts if 1.0 <= t < 2.0)
        after = sum(1 for t in ts if 2.0 <= t < 3.0)
        assert after > before * 2

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            arrival_times("nope", 10, 1.0, 1)
        with pytest.raises(ValueError):
            arrival_times("poisson", 0, 1.0, 1)


class TestSchedule:
    def test_deterministic_and_reads_follow_writes(self):
        spec = LoadSpec(rate=60, duration=2.0, flows=3, seed=5,
                        read_fraction=0.5)
        sched = build_schedule(spec)
        assert sched == build_schedule(spec)
        written: set = set()
        for op in sched:
            if op.op == "get":
                assert (op.var, op.block) in written  # servable by construction
            else:
                written.add((op.var, op.block))

    def test_flows_assigned_round_robin(self):
        spec = LoadSpec(rate=60, duration=1.0, flows=3, seed=5)
        sched = build_schedule(spec)
        assert {op.flow for op in sched} == {"flow0", "flow1", "flow2"}


    # (ops, puts, gets, sha256[:16] of the (t, flow, op, var, block) rows) of
    # every LoadSpec in bench_load.py and in this file, taken at the commit
    # before ``verify_fraction`` went: the retired verify draw keeps its place
    # in the seeded stream, so none of them moved.
    PINNED_SCHEDULES = [
        (dict(process="poisson", rate=80.0, duration=5.0, flows=4, seed=7),
         396, 251, 145, "75f51026b93e87aa"),  # bench_load.py, BENCH_load.json
        (dict(process="poisson", rate=40.0, duration=1.5, flows=2, seed=7),
         64, 38, 26, "d07b9bb1da4f50ee"),  # bench_load.py --smoke
        (dict(rate=60, duration=2.0, flows=3, seed=5, read_fraction=0.5),
         121, 62, 59, "83de303cc8bb5a64"),
        (dict(rate=60, duration=1.0, flows=3, seed=5), 57, 35, 22, "193852cbd949c372"),
        (dict(rate=80, duration=0.5, flows=2, seed=4, n_blocks=8),
         36, 21, 15, "19b4aafa56c19148"),
        (dict(rate=60, duration=0.5, flows=2, seed=4, n_blocks=8),
         21, 12, 9, "44c4647f8b42429b"),
        (dict(rate=200, duration=0.2, flows=1, seed=4, n_blocks=8),
         36, 21, 15, "dae8cf20a2d0eda5"),
    ]

    @pytest.mark.parametrize("kwargs, ops, puts, gets, sha", PINNED_SCHEDULES)
    def test_seeded_schedules_are_op_for_op_what_they_were(
        self, kwargs, ops, puts, gets, sha
    ):
        import hashlib
        import json

        sched = build_schedule(LoadSpec(**kwargs))
        rows = [(round(o.t, 9), o.flow, o.op, o.var, o.block) for o in sched]
        assert (len(sched), sum(o.op == "put" for o in sched),
                sum(o.op == "get" for o in sched)) == (ops, puts, gets)
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == sha

    def test_committed_load_baseline_counts_match_its_schedule(self):
        import json

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "benchmarks", "BENCH_load.json"
        )
        with open(path, encoding="utf-8") as fh:
            load = json.load(fh)["load"]
        _, ops, puts, gets, _ = self.PINNED_SCHEDULES[0]
        assert (load["ops"], load["puts"], load["gets"]) == (ops, puts, gets)


class TestSLO:
    def make_report(self, put_p99=1.0, get_p99=1.0, errors=0, ops=100):
        return LoadReport(
            ops=ops, puts=ops // 2, gets=ops // 2, errors=errors,
            put_percentiles_ms={"p99": put_p99},
            get_percentiles_ms={"p99": get_p99},
        )

    def test_pass(self):
        slo = SLO(put_p99_ms=10, get_p99_ms=10, max_error_rate=0.01)
        assert slo.evaluate(self.make_report()) == []

    def test_each_clause_violates_independently(self):
        slo = SLO(put_p99_ms=10, get_p99_ms=10, max_error_rate=0.01)
        assert len(slo.evaluate(self.make_report(put_p99=20))) == 1
        assert len(slo.evaluate(self.make_report(get_p99=20))) == 1
        assert len(slo.evaluate(self.make_report(errors=5))) == 1
        assert len(slo.evaluate(self.make_report(20, 20, 5))) == 3

    def test_none_disables_latency_clause(self):
        slo = SLO(max_error_rate=0.5)
        assert slo.evaluate(self.make_report(put_p99=1e9)) == []


class FakeLoadClient:
    """In-process client: instant ops, optional injected failures."""

    def __init__(self, flow, fail_every=0):
        self.flow = flow
        self.fail_every = fail_every
        self.count = 0
        self.closed = False

    def put(self, var, lb, ub, data=None):
        self.count += 1
        if self.fail_every and self.count % self.fail_every == 0:
            raise RuntimeError("injected")
        return 0.0

    def get(self, var, lb, ub, verify=None):
        self.count += 1
        if self.fail_every and self.count % self.fail_every == 0:
            raise RuntimeError("injected")
        return 0.0, {}

    def step(self):
        return 0

    def flush(self):
        pass

    def quiesce(self):
        pass

    def fail_server(self, sid):
        pass

    def replace_server(self, sid):
        pass

    def close(self):
        self.closed = True


@pytest.fixture(scope="module")
def domain():
    _, domain, _, _ = build_geometry(small_config())
    return domain


N_BLOCKS = 8  # the small_config grid has exactly 8 blocks


class TestRunLoad:
    def test_open_loop_run_counts_and_gate(self, domain):
        spec = LoadSpec(rate=80, duration=0.5, flows=2, seed=4,
                        n_blocks=N_BLOCKS)
        clients: list = []

        def factory(flow):
            cli = FakeLoadClient(flow)
            clients.append(cli)
            return cli

        slo = SLO(put_p99_ms=1000, get_p99_ms=1000)
        report = run_load(factory, spec, domain=domain, slo=slo)
        assert report.ops == len(build_schedule(spec))
        assert report.errors == 0
        assert report.slo_gate == "pass"
        assert all(cli.closed for cli in clients)
        assert sum(cli.count for cli in clients) == report.ops

    def test_errors_fail_gate_and_report_only_mode(self, domain):
        spec = LoadSpec(rate=80, duration=0.5, flows=2, seed=4,
                        n_blocks=N_BLOCKS)
        slo = SLO(max_error_rate=0.0)
        report = run_load(
            lambda f: FakeLoadClient(f, fail_every=3), spec, domain=domain,
            slo=slo,
        )
        assert report.errors > 0
        assert report.slo_gate == "fail"
        assert report.slo_violations
        report2 = run_load(
            lambda f: FakeLoadClient(f, fail_every=3), spec, domain=domain,
            slo=slo, enforce_slo=False,
        )
        assert report2.slo_gate == "report-only"

    def test_capture_tape_records_every_flow(self, domain):
        spec = LoadSpec(rate=60, duration=0.5, flows=2, seed=4,
                        n_blocks=N_BLOCKS)
        tape = Tape()
        report = run_load(
            lambda f: FakeLoadClient(f), spec, domain=domain,
            capture_tape=tape,
        )
        assert len(tape) == report.ops
        assert set(tape.flows()) == {"flow0", "flow1"}

    def test_missing_domain_raises(self):
        spec = LoadSpec(rate=200, duration=0.2, flows=1, seed=4,
                        n_blocks=N_BLOCKS)
        with pytest.raises(TypeError):
            run_load(lambda f: FakeLoadClient(f), spec)


def capture_sim_tape(policy="replication", with_projection=True):
    """Record a small deterministic workload from a sim-backed target."""
    svc = make_service(policy)
    target = SimTarget(svc, name="w")
    rec = CaptureRecorder(target, flow="w")
    domain = target.domain
    box0, box1 = domain.block_bbox(0), domain.block_bbox(1)
    target.put("v", box0.lb, box0.ub)
    target.put("v", box1.lb, box1.ub)
    target.step()
    target.get("v", box0.lb, box0.ub)
    target.get("v", box1.lb, box1.ub, True)
    target.flush()
    target.quiesce()
    return rec.finalize(
        config=small_config(),
        policy_spec=(policy, {}),
        projection=target.projection() if with_projection else None,
    )


class TestReplay:
    def test_sim_capture_replays_byte_identical_on_sim(self):
        tape = capture_sim_tape()
        report = replay_tape(tape, SimTarget(make_service("replication")))
        assert report.ok
        assert report.digest_checks == 2
        assert report.projection_check == "match"
        assert report.ops == len(tape)

    def test_digest_mismatch_detected(self):
        tape = capture_sim_tape(with_projection=False)
        import dataclasses

        for i, op in enumerate(tape.ops):
            if op.op == "get":
                tape.ops[i] = dataclasses.replace(
                    op, digests={k: "deadbeef" for k in op.digests}
                )
        report = replay_tape(tape, SimTarget(make_service("replication")))
        assert not report.ok
        assert len(report.mismatches) == 2

    def test_projection_mismatch_detected(self):
        tape = capture_sim_tape()
        tape.meta["projection_sha256"] = "0" * 64
        report = replay_tape(tape, SimTarget(make_service("replication")))
        assert report.projection_check == "MISMATCH"
        assert not report.ok

    def test_replay_against_different_policy_catches_divergence(self):
        # Same bytes read back (digest equality holds) but the protection
        # state differs, so the projection digest must differ.
        tape = capture_sim_tape(policy="replication")
        report = replay_tape(tape, SimTarget(make_service("corec")))
        assert report.digest_checks == 2 and not any(
            "get" in m for m in report.mismatches
        )
        assert report.projection_check == "MISMATCH"

    def test_amplification_semantics(self):
        tape = capture_sim_tape()
        svc = make_service("replication")
        target = SimTarget(svc, name="replay")
        seen: list[tuple] = []
        orig_put, orig_get = target.put, target.get
        target.put = lambda var, lb, ub, data=None: (
            seen.append(("put", var)), orig_put(var, lb, ub, data))[1]
        target.get = lambda var, lb, ub, verify=None: (
            seen.append(("get", var)), orig_get(var, lb, ub, verify))[1]
        report = replay_tape(tape, target, amplify={"w": 3})
        # Each of w's 2 puts and 2 gets is issued 3x in total.
        assert sum(1 for k, _ in seen if k == "put") == 6
        assert sum(1 for k, _ in seen if k == "get") == 6
        assert report.amplified_ops == 8
        # Amplified puts write shadow vars; amplified gets re-read originals.
        assert {v for k, v in seen if k == "put"} == {"v", "v~amp1", "v~amp2"}
        assert {v for k, v in seen if k == "get"} == {"v"}
        # Originals still digest-check; projection is skipped (state changed).
        assert not report.mismatches
        assert report.projection_check == "skipped-amplified"

    def test_speedup_paces_the_replay(self):
        tape = Tape()
        tape.record(0.0, "step", "w")
        tape.record(0.4, "step", "w")

        class NullTarget:
            def step(self):
                pass

        import time

        t0 = time.monotonic()
        replay_tape(tape, NullTarget(), speedup=2.0)
        paced = time.monotonic() - t0
        assert paced >= 0.18  # 0.4 s gap compressed 2x

        t0 = time.monotonic()
        replay_tape(tape, NullTarget(), speedup=None)
        assert time.monotonic() - t0 < 0.1  # unpaced replay is flat out

    def test_elided_payload_skips_projection_and_is_flagged(self):
        svc = make_service("replication")
        target = SimTarget(svc, name="w")
        rec = CaptureRecorder(target, flow="w", inline_limit=4)
        box = target.domain.block_bbox(0)
        shape = tuple(u - l for l, u in zip(box.lb, box.ub))
        target.put("v", box.lb, box.ub,
                   np.ones(shape, dtype=np.uint8))
        target.quiesce()
        tape = rec.finalize(config=small_config(),
                            policy_spec=("replication", {}),
                            projection=target.projection())
        report = replay_tape(tape, SimTarget(make_service("replication")))
        assert report.unfaithful_puts == 1
        assert report.projection_check == "skipped-elided-payloads"

    def test_inline_payload_replays_byte_identical(self):
        svc = make_service("replication")
        target = SimTarget(svc, name="w")
        rec = CaptureRecorder(target, flow="w")
        box = target.domain.block_bbox(0)
        shape = tuple(u - l for l, u in zip(box.lb, box.ub))
        rng = np.random.default_rng(3)
        target.put("v", box.lb, box.ub,
                   rng.integers(0, 256, size=shape, dtype=np.uint8))
        target.step()
        target.get("v", box.lb, box.ub)
        target.flush()
        target.quiesce()
        tape = rec.finalize(config=small_config(),
                            policy_spec=("replication", {}),
                            projection=target.projection())
        report = replay_tape(tape, SimTarget(make_service("replication")))
        assert report.ok
        assert report.unfaithful_puts == 0
        assert report.projection_check == "match"

    def test_committed_v1_tape_still_replays_on_sim(self):
        """Back-compat pin: the release tape (format v1) loads under the
        current reader and replays byte-identically, deployment rebuilt
        from its own meta the way ``repro replay`` does."""
        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "benchmarks", "tapes",
            "smoke.tape.jsonl",
        )
        tape = Tape.load(path)
        assert tape.meta["version"] == 1
        with open_target("sim", *tape.deployment()) as connect:
            with closing(connect("replay")) as client:
                report = replay_tape(tape, client)
        assert report.ok, report.mismatches
        assert report.digest_checks == 28
        assert report.projection_check == "match"


class TestTargetSeam:
    def test_apply_op_dispatches_every_kind(self):
        calls: list[tuple] = []

        class Spy:
            def put(self, var, lb, ub, data=None):
                calls.append(("put", var, lb, ub, data))

            def get(self, var, lb, ub, verify=None):
                calls.append(("get", var, lb, ub, verify))
                return 0.0, {0: b"x"}

            def step(self):
                calls.append(("step",))

            def flush(self):
                calls.append(("flush",))

            def quiesce(self):
                calls.append(("quiesce",))

            def fail_server(self, sid):
                calls.append(("fail", sid))

            def replace_server(self, sid):
                calls.append(("replace", sid))

        ops = [
            TapeOp(0, 0.0, "put", var="v", lb=(0,), ub=(4,)),
            TapeOp(1, 0.0, "get", var="v", lb=(0,), ub=(4,), verify=True),
            TapeOp(2, 0.0, "step"),
            TapeOp(3, 0.0, "flush"),
            TapeOp(4, 0.0, "quiesce"),
            TapeOp(5, 0.0, "fail", server=2),
            TapeOp(6, 0.0, "replace", server=2),
        ]
        results = [apply_op(Spy(), op) for op in ops]
        assert results == [None, {0: b"x"}, None, None, None, None, None]
        assert calls == [
            ("put", "v", (0,), (4,), None),
            ("get", "v", (0,), (4,), True),
            ("step",), ("flush",), ("quiesce",), ("fail", 2), ("replace", 2),
        ]
        with pytest.raises(ValueError, match="unknown tape op"):
            apply_op(Spy(), TapeOp(7, 0.0, "teleport"))

    def test_sim_target_fails_and_replaces_servers(self):
        svc = make_service("replication")
        target = SimTarget(svc)
        box = target.domain.block_bbox(0)
        target.put("v", box.lb, box.ub)
        victim = svc.directory.entities[("v", 0)].primary
        target.fail_server(victim)
        assert svc.servers[victim].failed
        _, payloads = target.get("v", box.lb, box.ub)  # served by the replica
        assert payloads
        target.replace_server(victim)
        assert not svc.servers[victim].failed

    def test_open_target_rejects_unknown_backend_and_sim_keywords(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with open_target("mainframe", small_config(), ("replicate", {})):
                pass
        with pytest.raises(TypeError, match="n_shards"):
            with open_target("sim", small_config(), ("replicate", {}), n_shards=2):
                pass

    def test_open_target_hands_out_one_client_per_flow(self):
        with open_target("sim", small_config(), ("replicate", {})) as connect:
            a, b = connect("a"), connect("b")
            assert (a.name, b.name) == ("a", "b")
            assert a.service is b.service  # two flows, one deployment
