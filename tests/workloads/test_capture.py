"""Tests for the live-side tape capture format and recorder."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.live.conformance import WORKLOADS, build_config, build_tape, policy_spec
from repro.staging.objects import content_id
from repro.workloads.capture import (
    RETIRED_CONFIG_FIELDS,
    TAPE_FORMAT,
    TAPE_VERSION,
    CaptureRecorder,
    Tape,
    TapeOp,
    block_digests,
    config_from_meta,
    config_meta,
)
from repro.workloads.load import apply_op, open_target, replay_tape


class FakeClient:
    """Minimal blocking-client surface for recorder tests."""

    def __init__(self, name="fake"):
        self.name = name
        self.log: list[tuple] = []
        self._step = 0

    def put(self, var, lb, ub, data=None):
        self.log.append(("put", var, tuple(lb), tuple(ub)))
        return 0.001

    def get(self, var, lb, ub, verify=None):
        self.log.append(("get", var, tuple(lb), tuple(ub), verify))
        blob = np.arange(16, dtype=np.uint8)
        return 0.001, {0: memoryview(blob.tobytes())}

    def step(self):
        self.log.append(("step",))
        self._step += 1
        return self._step

    def flush(self):
        self.log.append(("flush",))

    def quiesce(self):
        self.log.append(("quiesce",))

    def fail_server(self, sid):
        self.log.append(("fail", sid))

    def replace_server(self, sid):
        self.log.append(("replace", sid))


class TestTapeFormat:
    def test_roundtrip(self):
        tape = Tape()
        tape.record(0.0, "put", "w", var="v", lb=(0,), ub=(8,))
        tape.record(0.1, "get", "r", var="v", lb=(0,), ub=(8,), verify=True,
                    digests={"0": "ab"})
        tape.record(0.2, "step", "w")
        restored = Tape.loads(tape.dumps())
        assert restored.ops == tape.ops
        assert restored.meta["format"] == TAPE_FORMAT
        assert restored.meta["version"] == TAPE_VERSION
        assert restored.flows() == ["w", "r"]

    def test_first_line_is_meta_then_one_op_per_line(self):
        tape = Tape()
        tape.record(0.0, "put", "w", var="v", lb=(0,), ub=(4,))
        lines = tape.dumps().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["format"] == TAPE_FORMAT
        assert json.loads(lines[1])["op"] == "put"

    def test_seq_assigned_in_record_order(self):
        tape = Tape()
        for i in range(5):
            tape.record(i * 0.1, "step", "w")
        assert [o.seq for o in tape.ops] == list(range(5))

    def test_bad_format_and_version_rejected(self):
        with pytest.raises(ValueError):
            Tape.loads("")
        with pytest.raises(ValueError):
            Tape.loads(json.dumps({"format": "nope", "version": 1}))
        with pytest.raises(ValueError):
            Tape.loads(json.dumps({"format": TAPE_FORMAT, "version": 99}))

    def test_v2_failure_ops_roundtrip_and_v1_still_loads(self):
        tape = Tape()
        tape.record(0.0, "fail", "w", server=3)
        tape.record(0.1, "replace", "w", server=3)
        restored = Tape.loads(tape.dumps())
        assert restored.ops == tape.ops
        assert [o.server for o in restored.ops] == [3, 3]
        assert "server" not in TapeOp(seq=0, t=0.0, op="step").to_json()
        v1 = json.dumps({"format": TAPE_FORMAT, "version": 1}) + "\n" + json.dumps(
            {"seq": 0, "t": 0.0, "op": "step", "flow": "w"}
        )
        assert [o.op for o in Tape.loads(v1).ops] == ["step"]

    @pytest.mark.parametrize(
        "row, complaint",
        [
            ({"seq": 1, "t": 0.1, "op": "teleport"}, "unknown op 'teleport'"),
            ({"t": 0.1, "op": "step"}, r"missing \['seq'\]"),
            ({"seq": 1, "op": "step"}, r"missing \['t'\]"),
            ({"seq": 1, "t": 0.1}, "unknown op None"),
            ({"seq": 1, "t": 0.1, "op": "put", "var": "v"}, r"missing \['lb', 'ub'\]"),
            ({"seq": 1, "t": 0.1, "op": "fail"}, r"missing \['server'\]"),
            ({"seq": "x", "t": 0.1, "op": "step"}, "invalid literal"),
            ([1, 2], "not a JSON object"),
        ],
    )
    def test_bad_row_rejected_at_load_naming_the_line(self, row, complaint):
        good = {"seq": 0, "t": 0.0, "op": "step", "flow": "w"}
        text = "\n".join(
            json.dumps(r)
            for r in ({"format": TAPE_FORMAT, "version": TAPE_VERSION}, good, row)
        )
        with pytest.raises(ValueError, match=f"tape line 3: .*{complaint}"):
            Tape.loads(text)

    def test_truncated_row_rejected_naming_the_line(self):
        text = json.dumps({"format": TAPE_FORMAT, "version": 1}) + '\n{"seq": 0, "t"'
        with pytest.raises(ValueError, match="tape line 2"):
            Tape.loads(text)

    def test_scratch_meta_keys_not_serialized(self):
        tape = Tape()
        tape.meta["_t0"] = 123.0
        assert "_t0" not in json.loads(tape.dumps().splitlines()[0])

    def test_payload_b64_roundtrip(self):
        data = np.arange(32, dtype=np.uint8)
        import base64

        op = TapeOp(seq=0, t=0.0, op="put", var="v", lb=(0,), ub=(32,),
                    nbytes=32,
                    payload_b64=base64.b64encode(data.tobytes()).decode(),
                    dtype="uint8")
        restored = TapeOp.from_json(op.to_json())
        assert np.array_equal(restored.decode_payload(), data)
        assert TapeOp(seq=0, t=0.0, op="step").decode_payload() is None

    def test_file_roundtrip(self, tmp_path):
        tape = Tape()
        tape.record(0.0, "put", "w", var="v", lb=(0,), ub=(8,))
        path = str(tmp_path / "t.tape.jsonl")
        tape.save(path)
        assert Tape.load(path).ops == tape.ops

    def test_config_meta_roundtrip(self):
        from tests.conftest import small_config

        config = small_config()
        rebuilt = config_from_meta(
            json.loads(json.dumps(config_meta(config)))
        )
        assert rebuilt.n_servers == config.n_servers
        assert rebuilt.domain_shape == config.domain_shape
        assert rebuilt.seed == config.seed

    def test_config_meta_carries_placement(self):
        from repro.staging.service import StagingConfig

        config = StagingConfig(
            n_servers=16, placement_mode="coding_sets", max_coding_sets=3
        )
        meta = json.loads(json.dumps(config_meta(config)))
        rebuilt = config_from_meta(meta)
        assert (rebuilt.placement_mode, rebuilt.max_coding_sets) == ("coding_sets", 3)
        # A tape from before the pair was recorded replays on the defaults.
        del meta["placement_mode"], meta["max_coding_sets"]
        legacy = config_from_meta(meta)
        assert (legacy.placement_mode, legacy.max_coding_sets) == ("grouped", 2)

    def test_config_meta_with_unknown_field_rejected(self):
        from tests.conftest import small_config

        meta = {**config_meta(small_config()), "n_servres": 8}
        with pytest.raises(ValueError, match="unknown field.*n_servres"):
            config_from_meta(meta)


class TestRetiredConfigFields:
    """``index_scheme``, ``verify_reads``, ``servers_per_node`` and
    ``rs_construction`` stopped being options: a tape that recorded the one
    value ever in use still loads, one that asks for another fails closed at
    load, and new tapes do not write them."""

    SMOKE_TAPE = os.path.join(
        os.path.dirname(__file__), "..", "..", "benchmarks", "tapes", "smoke.tape.jsonl"
    )

    def test_committed_v1_tape_carries_both_and_still_opens_its_deployment(self):
        # Its replay (projection: match, 28 digests) is
        # test_load.py::test_committed_v1_tape_still_replays_on_sim.
        tape = Tape.load(self.SMOKE_TAPE)
        assert tape.meta["version"] == 1
        assert tape.meta["config"]["index_scheme"] == "round_robin"
        assert tape.meta["config"]["verify_reads"] is True
        assert tape.meta["config"]["servers_per_node"] == 1
        assert tape.meta["config"]["rs_construction"] == "cauchy"
        config, policy = tape.deployment()
        assert config.n_servers == 8 and policy[0] == "corec"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("index_scheme", "hash"),
            ("verify_reads", False),
            ("servers_per_node", 2),
            ("rs_construction", "vandermonde"),
        ],
    )
    def test_another_value_is_rejected_at_load(self, field, value):
        with open(self.SMOKE_TAPE, encoding="utf-8") as fh:
            meta_line, _, ops = fh.read().partition("\n")
        meta = json.loads(meta_line)
        meta["config"][field] = value
        with pytest.raises(ValueError, match=field):
            Tape.loads(json.dumps(meta) + "\n" + ops)  # before any op runs

    def test_fresh_tapes_do_not_write_them(self):
        from tests.conftest import small_config

        cli = FakeClient()
        tape = CaptureRecorder(cli, flow="w").finalize(
            config=small_config(), policy_spec=("corec", {})
        )
        written = json.loads(tape.dumps().splitlines()[0])["config"]
        assert not set(RETIRED_CONFIG_FIELDS) & set(written)
        assert Tape.loads(tape.dumps()).deployment()[0].seed == small_config().seed

    def test_tape_without_deployment_meta_cannot_open_one(self):
        with pytest.raises(ValueError, match="config/policy"):
            Tape().deployment()


class TestBlockDigests:
    def test_accepts_arrays_and_buffers(self):
        arr = np.arange(16, dtype=np.uint8)
        from_array = block_digests({3: arr})
        from_buffer = block_digests({3: memoryview(arr.tobytes())})
        assert from_array == from_buffer == {"3": content_id(arr)}


class TestCaptureRecorder:
    def test_records_all_op_kinds_with_timing(self):
        cli = FakeClient()
        rec = CaptureRecorder(cli, flow="w")
        cli.put("v", (0,), (8,))
        cli.get("v", (0,), (8,), True)
        cli.step()
        cli.flush()
        cli.quiesce()
        cli.fail_server(3)
        cli.replace_server(3)
        tape = rec.detach()
        assert [o.op for o in tape.ops] == [
            "put", "get", "step", "flush", "quiesce", "fail", "replace"
        ]
        assert [o.server for o in tape.ops[-2:]] == [3, 3]
        assert cli.log[-2:] == [("fail", 3), ("replace", 3)]
        assert all(o.t >= 0 for o in tape.ops)
        assert tape.ops[0].t <= tape.ops[-1].t
        get = tape.ops[1]
        assert get.verify is True
        assert get.digests == block_digests(
            {0: np.arange(16, dtype=np.uint8)}
        )

    def test_put_with_data_inlines_payload(self):
        cli = FakeClient()
        rec = CaptureRecorder(cli, flow="w")
        data = np.arange(64, dtype=np.uint8)
        cli.put("v", (0,), (64,), data)
        tape = rec.detach()
        op = tape.ops[0]
        assert op.nbytes == 64
        assert op.digests == {"data": content_id(data)}
        assert np.array_equal(op.decode_payload(), data)
        assert op.payload is None

    def test_oversized_payload_elided_and_flagged(self):
        cli = FakeClient()
        rec = CaptureRecorder(cli, flow="w", inline_limit=16)
        cli.put("v", (0,), (64,), np.arange(64, dtype=np.uint8))
        tape = rec.detach()
        op = tape.ops[0]
        assert op.payload == "elided"
        assert op.payload_b64 is None
        assert "data" in op.digests  # digest still recorded

    def test_detach_restores_and_double_attach_raises(self):
        cli = FakeClient()
        rec = CaptureRecorder(cli, flow="w")
        with pytest.raises(RuntimeError):
            rec.attach()
        rec.detach()
        with pytest.raises(RuntimeError):
            rec.detach()
        assert "put" not in cli.__dict__  # class lookup restored
        cli.put("v", (0,), (8,))
        assert len(rec.tape) == 0  # no longer recording

    def test_nested_recorders_restore_inner_wrapper(self):
        cli = FakeClient()
        outer = CaptureRecorder(cli, flow="outer")
        inner = CaptureRecorder(cli, flow="inner")
        cli.put("v", (0,), (8,))
        inner.detach()
        cli.put("v", (8,), (16,))  # outer's wrapper must still be live
        outer.detach()
        assert [o.flow for o in inner.tape.ops] == ["inner"]
        assert [o.flow for o in outer.tape.ops] == ["outer", "outer"]

    def test_shared_tape_multi_flow(self):
        tape = Tape()
        a, b = FakeClient("a"), FakeClient("b")
        rec_a = CaptureRecorder(a, tape=tape, flow="a")
        rec_b = CaptureRecorder(b, tape=tape, flow="b")
        a.put("v", (0,), (8,))
        b.put("v", (8,), (16,))
        a.step()
        rec_a.detach()
        rec_b.detach()
        assert [o.flow for o in tape.ops] == ["a", "b", "a"]
        assert [o.seq for o in tape.ops] == [0, 1, 2]
        assert tape.flows() == ["a", "b"]

    def test_captured_failure_run_replays_on_sim(self):
        spec = WORKLOADS["failure-and-recover"]
        config, policy = build_config(spec), policy_spec(spec)
        ops = build_tape(spec).ops
        with open_target("sim", config, policy) as connect:
            client = connect("w")
            rec = CaptureRecorder(client, flow="w")
            for op in ops:
                apply_op(client, op)
            tape = rec.finalize(config, policy, projection=client.projection())
        assert [(o.op, o.server) for o in tape.ops] == [(o.op, o.server) for o in ops]
        with open_target("sim", *tape.deployment()) as connect:
            report = replay_tape(Tape.loads(tape.dumps()), connect("w"))
        assert report.projection_check == "match"
        assert report.ok

    def test_finalize_stamps_meta(self):
        from tests.conftest import small_config

        cli = FakeClient()
        rec = CaptureRecorder(cli, flow="w")
        cli.put("v", (0,), (8,))
        tape = rec.finalize(
            config=small_config(), policy_spec=("corec", {"storage_bound": 0.5})
        )
        assert not rec.attached
        assert tape.meta["config"]["n_servers"] == 8
        assert tape.meta["policy"] == ["corec", {"storage_bound": 0.5}]
        assert "_t0" not in json.loads(tape.dumps().splitlines()[0])
