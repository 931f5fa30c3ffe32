"""Tests for the assembled staging service (put/get, verification, failover)."""

import numpy as np
import pytest

from repro import BBox, DataLossError, StagingConfig, StagingService, NoResilience, ReplicationPolicy
from repro.staging.objects import ResilienceState
from repro.staging.service import _byte_ramp
from repro.util.rng import stable_hash

from tests.conftest import make_service, small_config


class TestConfigValidation:
    def test_too_few_servers_for_code(self):
        with pytest.raises(ValueError):
            StagingConfig(n_servers=2, k=3, n_level=1)

    def test_group_divisibility_enforced(self):
        # 10 servers: 10 % (k+m=4) != 0 -> layout construction must fail.
        with pytest.raises(ValueError):
            StagingService(small_config(n_servers=10), NoResilience())


class TestSynthPayloads:
    def test_deterministic(self):
        a = StagingService.synth_payload("v", 1, 2, 64)
        b = StagingService.synth_payload("v", 1, 2, 64)
        assert (a == b).all()

    def test_version_distinct(self):
        a = StagingService.synth_payload("v", 1, 1, 64)
        b = StagingService.synth_payload("v", 1, 2, 64)
        assert not (a == b).all()

    def test_block_distinct(self):
        a = StagingService.synth_payload("v", 1, 1, 64)
        b = StagingService.synth_payload("v", 2, 1, 64)
        assert not (a == b).all()


    @pytest.mark.parametrize("nbytes", [0, 1, 255, 256, 4096, 16384, 100001])
    def test_byte_identical_to_the_uint64_formula(self, nbytes):
        for version in (0, 1, 7):
            base = stable_hash(f"v/3@{version}")
            ramp = np.arange(nbytes, dtype=np.uint64)
            want = ((ramp * 131 + base) & 0xFF).astype(np.uint8)
            got = StagingService.synth_payload("v", 3, version, nbytes)
            assert got.dtype == np.uint8 and np.array_equal(got, want)

    def test_every_call_returns_its_own_writable_buffer(self):
        a = StagingService.synth_payload("v", 1, 2, 4096)
        b = StagingService.synth_payload("v", 1, 2, 4096)
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
        a[:] = 0
        assert np.array_equal(b, StagingService.synth_payload("v", 1, 2, 4096))

    def test_ramp_table_keeps_at_most_eight_sizes(self):
        for nbytes in range(1, 40):
            StagingService.synth_payload("v", 0, 0, nbytes)
        assert _byte_ramp.cache_info().currsize <= 8


class TestBlockPayload:
    """``_block_payload``'s full-block path against the general (sliced) one."""

    def test_full_block_returns_the_same_bytes_as_the_general_path(self):
        svc = make_service("none")
        block = 5
        box = svc.domain.block_bbox(block)
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=box.shape, dtype=np.uint8)
        fast = svc._block_payload("v", block, 0, box, data)
        assert fast.ndim == 1 and fast.dtype == np.uint8
        assert np.shares_memory(fast, data)  # a view of the caller's bytes
        # The same block written as part of a two-block region is sliced out.
        wide = box.union_bounds(svc.domain.block_bbox(block + 1))
        wide_data = rng.integers(0, 256, size=wide.shape, dtype=np.uint8)
        sel = tuple(slice(l - wl, u - wl) for l, u, wl in zip(box.lb, box.ub, wide.lb))
        wide_data[sel] = data
        general = svc._block_payload("v", block, 0, wide, wide_data)
        assert np.array_equal(fast, general)
        assert np.array_equal(fast, data.ravel())

    def test_full_block_of_wider_elements_is_viewed_as_bytes(self):
        svc = StagingService(small_config(element_bytes=8, object_max_bytes=32768), NoResilience())
        box = svc.domain.block_bbox(0)
        data = np.arange(box.volume, dtype=np.float64).reshape(box.shape)
        out = svc._block_payload("v", 0, 0, box, data)
        assert out.dtype == np.uint8 and out.size == box.volume * 8
        assert out.tobytes() == data.tobytes()

    def test_wrong_sized_array_is_rejected_on_both_paths(self):
        svc = make_service("none")
        box = svc.domain.block_bbox(0)
        wide = box.union_bounds(svc.domain.block_bbox(1))
        for region in (box, wide):
            short = np.zeros(region.volume - 1, dtype=np.uint8)
            with pytest.raises(ValueError, match=f"data has {region.volume - 1} bytes"):
                svc._block_payload("v", 0, 0, region, short)


class TestPutGet:
    def test_roundtrip_synthetic(self):
        svc = make_service("none")
        box = svc.domain.bbox

        def wf():
            yield from svc.put("w0", "v", box)
            dur, payloads = yield from svc.get("r0", "v", box)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        assert svc.read_errors == 0

    def test_roundtrip_explicit_data(self):
        svc = make_service("none")
        box = svc.domain.block_bbox(0)
        data = (np.arange(box.volume) % 251).astype(np.uint8).reshape(box.shape)

        def wf():
            yield from svc.put("w0", "v", box, data=data)
            _, payloads = yield from svc.get("r0", "v", box)
            got = payloads[0]
            assert (got == data.ravel()).all()

        svc.run_workflow(wf())

    def test_partial_block_write_is_read_modify_write(self):
        svc = make_service("none")
        block = svc.domain.block_bbox(0)
        sub = BBox(block.lb, tuple(l + s // 2 for l, s in zip(block.lb, block.shape)))
        full = np.ones(block.shape, dtype=np.uint8)
        patch = np.full(sub.shape, 7, dtype=np.uint8)

        def wf():
            yield from svc.put("w0", "v", block, data=full)
            yield from svc.put("w0", "v", sub, data=patch)
            _, payloads = yield from svc.get("r0", "v", block)
            got = payloads[0].reshape(block.shape)
            inner = tuple(slice(0, s // 2) for s in block.shape)
            assert (got[inner] == 7).all()
            # Untouched corner still holds the original write.
            assert got[-1, -1, -1] == 1

        svc.run_workflow(wf())

    def test_partial_write_after_primary_failure_keeps_the_rest(self):
        # The redirected primary of an encoded block holds no copy: the
        # read-modify-write base is decoded, not zeros.
        from repro import CoRECPolicy

        svc = StagingService(
            small_config(domain_shape=(16, 16, 16), object_max_bytes=4096), CoRECPolicy()
        )
        block = svc.domain.block_bbox(0)
        half = BBox(block.lb, (block.lb[0] + block.shape[0] // 2,) + tuple(block.ub[1:]))

        def stage():
            yield from svc.put("w0", "v", block, data=np.full(block.shape, 5, np.uint8))
            yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(stage())
        svc.run()
        ent = svc.directory.require("v", 0)
        assert ent.state == ResilienceState.ENCODED
        svc.fail_server(ent.primary)

        def rewrite_half():
            yield from svc.put("w0", "v", half, data=np.full(half.shape, 7, np.uint8))
            _, payloads = yield from svc.get("r0", "v", block)
            return payloads[0].reshape(block.shape)

        got = svc.sim.process(rewrite_half())
        svc.run()
        cut = block.shape[0] // 2
        assert (got.value[:cut] == 7).all()
        assert (got.value[cut:] == 5).all()

    def test_wrong_data_size_raises(self):
        svc = make_service("none")
        box = svc.domain.block_bbox(0)

        def wf():
            yield from svc.put("w0", "v", box, data=np.zeros(3, np.uint8))

        with pytest.raises(ValueError, match="bytes"):
            svc.run_workflow(wf())

    def test_versioning_overwrites(self):
        svc = make_service("none")
        box = svc.domain.block_bbox(0)

        def wf():
            yield from svc.put("w0", "v", box)
            yield from svc.put("w0", "v", box)
            ent = svc.directory.require("v", 0)
            assert ent.version == 1
            _, payloads = yield from svc.get("r0", "v", box)
            expected = StagingService.synth_payload("v", 0, 1, ent.nbytes)
            assert (payloads[0] == expected).all()

        svc.run_workflow(wf())

    def test_get_never_staged_raises(self):
        svc = make_service("none")

        def wf():
            yield from svc.get("r0", "v", svc.domain.bbox)

        with pytest.raises(KeyError):
            svc.run_workflow(wf())

    def test_put_outside_domain_raises(self):
        svc = make_service("none")

        def wf():
            yield from svc.put("w0", "v", BBox((100, 100, 100), (128, 128, 128)))

        with pytest.raises(ValueError):
            svc.run_workflow(wf())

    def test_metrics_recorded(self):
        svc = make_service("none")

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.get("r0", "v", svc.domain.bbox)

        svc.run_workflow(wf())
        assert svc.metrics.put_stat.n == 1
        assert svc.metrics.get_stat.n == 1
        assert svc.metrics.put_stat.mean > 0

    def test_response_time_positive_and_ordered(self):
        svc = make_service("replication")

        def wf():
            d1 = yield from svc.put("w0", "v", svc.domain.bbox)
            assert d1 > 0

        svc.run_workflow(wf())


class TestFailover:
    def test_data_loss_without_resilience(self):
        svc = make_service("none")
        box = svc.domain.bbox

        def wf():
            yield from svc.put("w0", "v", box)
            svc.fail_server(0)
            yield from svc.get("r0", "v", box)

        with pytest.raises(DataLossError):
            svc.run_workflow(wf())

    def test_replicated_survives_failure(self):
        svc = make_service("replication")
        box = svc.domain.bbox

        def wf():
            yield from svc.put("w0", "v", box)
            svc.fail_server(0)
            _, payloads = yield from svc.get("r0", "v", box)
            assert len(payloads) == svc.domain.n_blocks

        svc.run_workflow(wf())
        assert svc.read_errors == 0

    def test_write_redirects_from_failed_primary(self):
        svc = make_service("replication")
        box = svc.domain.block_bbox(0)
        ent_primary = svc.index.primary_of_block(0)

        def wf():
            yield from svc.put("w0", "v", box)
            svc.fail_server(ent_primary)
            yield from svc.put("w0", "v", box)
            ent = svc.directory.require("v", 0)
            assert ent.primary != ent_primary
            _, payloads = yield from svc.get("r0", "v", box)
            assert len(payloads) == 1

        svc.run_workflow(wf())
        assert svc.read_errors == 0

    def test_alive_servers(self):
        svc = make_service("none")
        svc.fail_server(3)
        assert 3 not in svc.alive_servers()
        svc.replace_server(3)
        assert 3 in svc.alive_servers()


class TestStepOrchestration:
    def test_end_step_advances(self):
        svc = make_service("none")

        def wf():
            assert svc.step == 0
            yield from svc.end_step()
            assert svc.step == 1

        svc.run_workflow(wf())


class TestVerifyAll:
    def test_clean_service_verifies_everything(self):
        svc = make_service("corec")

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)
            yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(wf())
        svc.run()
        audit = svc.verify_all()
        assert audit["verified"] == svc.domain.n_blocks
        assert audit["unrecoverable"] == []

    def test_detects_genuine_loss(self):
        svc = make_service("none")

        def wf():
            yield from svc.put("w0", "v", svc.domain.bbox)

        svc.run_workflow(wf())
        svc.fail_server(0)
        audit = svc.verify_all()
        assert len(audit["unrecoverable"]) > 0
        assert audit["verified"] + len(audit["unrecoverable"]) == svc.domain.n_blocks

    def test_survives_through_failure_with_corec(self):
        svc = make_service("corec")

        def wf():
            for _ in range(2):
                yield from svc.put("w0", "v", svc.domain.bbox)
                yield from svc.end_step()
            yield from svc.flush()

        svc.run_workflow(wf())
        svc.run()
        svc.fail_server(3)
        audit = svc.verify_all()
        assert audit["unrecoverable"] == []


_REPLAY_WITHOUT_LIVE = """
import json, sys
from repro.staging.service import projection_sha256
from repro.workloads.capture import Tape
from repro.workloads.load import apply_op, open_target

out = {}
for name, text in json.load(sys.stdin).items():
    tape = Tape.loads(text)
    with open_target("sim", *tape.deployment()) as connect:
        client = connect("w")
        for op in tape.ops:
            apply_op(client, op)
        out[name] = projection_sha256(client.service.projection())
out["imported_live"] = sorted(m for m in sys.modules if m.startswith("repro.live"))
print(json.dumps(out))
"""


class TestProjection:
    def test_conformance_pins_without_importing_the_live_backend(self):
        """``StagingService.projection()`` of the three conformance tapes
        hashes to the pinned literals in an interpreter that never imports
        ``repro.live`` — the dump describes a staging object, and staging
        and workloads reach it without the live package."""
        import json
        import os
        import subprocess
        import sys

        from repro.live.conformance import WORKLOADS, build_tape
        from tests.live.test_conformance import PINNED

        tapes = {name: build_tape(spec).dumps() for name, spec in WORKLOADS.items()}
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        done = subprocess.run(
            [sys.executable, "-c", _REPLAY_WITHOUT_LIVE],
            input=json.dumps(tapes), capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout)
        assert out.pop("imported_live") == []
        assert out == {name: sha for name, (sha, _, _) in PINNED.items()}
