"""Acceptance: a tape captured from single-process live replays
byte-identically — read digests and quiescent projection — against both
the sim backend and the 2-shard multi-process cluster.

This is the end-to-end fidelity claim of the capture/replay harness: the
tape is a faithful record (geometry, verify flags, digests, projection
hash), and every backend that claims conformance must reproduce it
byte-for-byte.  A deliberately perturbed replay (different policy) must
be *caught*, which pins that the equivalence check has teeth.
"""

from __future__ import annotations

import dataclasses
from contextlib import closing

import pytest

from repro.live.conformance import (
    WORKLOADS,
    build_config,
    build_tape,
    policy_spec,
)
from repro.workloads.capture import CaptureRecorder
from repro.workloads.load import apply_op, open_target, replay_tape

N_SHARDS = 2


def small_spec():
    """Hybrid differential spec shrunk to bound runtime on small hosts."""
    return dataclasses.replace(
        WORKLOADS["hybrid"], n_steps=2, puts_per_step=4, gets_per_step=2,
        n_blocks=8,
    ).with_overrides(enforcement_scope="group")


def capture(spec, backend):
    """Record ``spec``'s workload from a ``backend`` deployment."""
    config = build_config(spec)
    with open_target(backend, config, policy_spec(spec)) as connect:
        with closing(connect("w")) as cli:
            recorder = CaptureRecorder(cli, flow="w")
            # The spec's tape quiesces after every op: background work
            # stays deterministic, so the recorded digests are
            # backend-independent ground truth.
            for op in build_tape(spec).ops:
                apply_op(cli, op)
            return recorder.finalize(
                config=config,
                policy_spec=policy_spec(spec),
                projection=cli.projection(),
            )


@pytest.fixture(scope="module")
def captured_tape():
    """The shrunk hybrid workload recorded from a single-process live run."""
    return capture(small_spec(), "live")


def replay_on(tape, backend, policy=None, **live_kwargs):
    """Replay ``tape`` the way ``repro replay`` does: deployment from its meta."""
    config, recorded_policy = tape.deployment()
    policy = recorded_policy if policy is None else policy
    with open_target(backend, config, policy, **live_kwargs) as connect:
        with closing(connect("replay")) as client:
            return replay_tape(tape, client)


class TestCaptureFidelity:
    def test_tape_carries_replayable_metadata(self, captured_tape):
        meta = captured_tape.meta
        assert meta["config"]["n_servers"] == 8
        assert meta["policy"][0] == "corec"
        assert len(meta["projection_sha256"]) == 64
        assert meta["flows"] == ["w"]
        gets = [o for o in captured_tape.ops if o.op == "get"]
        assert gets and all(o.digests for o in gets)

    def test_tape_survives_serialization(self, captured_tape, tmp_path):
        from repro.workloads.capture import Tape

        path = str(tmp_path / "t.tape.jsonl")
        captured_tape.save(path)
        restored = Tape.load(path)
        assert restored.ops == captured_tape.ops
        assert restored.meta["projection_sha256"] == (
            captured_tape.meta["projection_sha256"]
        )


class TestCrossBackendReplay:
    def test_replays_byte_identical_on_sim(self, captured_tape):
        report = replay_on(captured_tape, "sim")
        assert report.ok, report.mismatches
        assert report.digest_checks == sum(
            1 for o in captured_tape.ops if o.op == "get"
        )
        assert report.projection_check == "match"

    def test_replays_byte_identical_on_sharded_cluster(self, captured_tape):
        report = replay_on(captured_tape, "cluster", n_shards=N_SHARDS)
        assert report.ok, report.mismatches
        assert report.digest_checks > 0
        assert not report.mismatches
        assert report.projection_check == "match"

    def test_coding_sets_capture_replays_on_its_own_placement(self):
        """The tape records where parity lands: a CodingSets deployment
        replays on CodingSets, not on the default grouped layout."""
        spec = dataclasses.replace(
            small_spec(),
            config_overrides=dict(
                n_servers=16, placement_mode="coding_sets", max_coding_sets=3
            ),
        )
        report = replay_on(capture(spec, "sim"), "sim")
        assert report.ok, report.mismatches
        assert report.projection_check == "match"

    def test_divergent_backend_is_caught(self, captured_tape):
        """Replaying under a different policy must fail the projection
        check — proof the equivalence gate can actually fire."""
        # Replication policy instead of the recorded corec policy.
        report = replay_on(
            captured_tape, "sim", policy=policy_spec(WORKLOADS["replication-only"])
        )
        assert report.projection_check == "MISMATCH"
        assert not report.ok
