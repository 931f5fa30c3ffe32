"""Field-axiom and kernel tests for GF(2^8)."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.erasure.gf256 import GF256

elem = st.integers(0, 255)
nonzero = st.integers(1, 255)


class TestTables:
    def test_exp_log_roundtrip(self):
        for a in range(1, 256):
            assert GF256.exp(GF256.LOG[a]) == a

    def test_mul_table_shape_and_dtype(self):
        assert GF256.MUL.shape == (256, 256)
        assert GF256.MUL.dtype == np.uint8

    def test_generator_has_full_order(self):
        # 2 must generate all 255 nonzero elements.
        seen = set()
        x = 1
        for _ in range(255):
            seen.add(x)
            x = GF256.mul(x, 2)
        assert len(seen) == 255


class TestFieldAxioms:
    @given(elem, elem)
    def test_addition_commutative(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)

    @given(elem)
    def test_addition_self_inverse(self, a):
        assert GF256.add(a, a) == 0

    @given(elem, elem)
    def test_multiplication_commutative(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(elem, elem, elem)
    def test_multiplication_associative(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(elem, elem, elem)
    def test_distributive(self, a, b, c):
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(elem)
    def test_multiplicative_identity(self, a):
        assert GF256.mul(a, 1) == a

    @given(elem)
    def test_zero_annihilates(self, a):
        assert GF256.mul(a, 0) == 0

    @given(nonzero)
    def test_inverse(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1

    @given(elem, nonzero)
    def test_div_mul_roundtrip(self, a, b):
        assert GF256.mul(GF256.div(a, b), b) == a


class TestScalarEdgeCases:
    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_zero_div_nonzero(self):
        assert GF256.div(0, 7) == 0

    def test_pow_zero_base(self):
        assert GF256.pow(0, 0) == 1
        assert GF256.pow(0, 3) == 0
        with pytest.raises(ZeroDivisionError):
            GF256.pow(0, -1)

    @given(nonzero, st.integers(-10, 10))
    def test_pow_matches_repeated_mul(self, a, n):
        expected = 1
        base = a if n >= 0 else GF256.inv(a)
        for _ in range(abs(n)):
            expected = GF256.mul(expected, base)
        assert GF256.pow(a, n) == expected


class TestVectorKernels:
    @given(elem, st.integers(0, 200))
    def test_mul_bytes_matches_scalar(self, c, n):
        rng = np.random.default_rng(n)
        buf = rng.integers(0, 256, n, dtype=np.uint8)
        out = GF256.mul_bytes(c, buf)
        expected = np.array([GF256.mul(c, int(b)) for b in buf], dtype=np.uint8)
        assert (out == expected).all()

    def test_mul_bytes_zero_scalar(self):
        buf = np.arange(10, dtype=np.uint8)
        assert (GF256.mul_bytes(0, buf) == 0).all()

    def test_mul_bytes_identity_scalar_copies(self):
        buf = np.arange(10, dtype=np.uint8)
        out = GF256.mul_bytes(1, buf)
        assert (out == buf).all()
        out[0] = 99
        assert buf[0] == 0  # must not alias

    @given(elem)
    def test_addmul_matches_manual(self, c):
        rng = np.random.default_rng(c)
        acc = rng.integers(0, 256, 64, dtype=np.uint8)
        buf = rng.integers(0, 256, 64, dtype=np.uint8)
        expected = acc ^ GF256.mul_bytes(c, buf)
        GF256.addmul_bytes(acc, c, buf)
        assert (acc == expected).all()

    def test_addmul_zero_coefficient_is_noop(self):
        acc = np.arange(16, dtype=np.uint8)
        before = acc.copy()
        GF256.addmul_bytes(acc, 0, np.ones(16, dtype=np.uint8))
        assert (acc == before).all()

    def test_matmul_bytes_identity(self):
        rng = np.random.default_rng(0)
        shards = rng.integers(0, 256, (3, 32), dtype=np.uint8)
        out = GF256.matmul_bytes(np.eye(3, dtype=np.uint8), shards)
        assert (out == shards).all()

    def test_matmul_bytes_shape_check(self):
        with pytest.raises(ValueError):
            GF256.matmul_bytes(np.eye(3, dtype=np.uint8), np.zeros((2, 8), np.uint8))

    def test_matmul_bytes_matches_scalar_math(self):
        rng = np.random.default_rng(1)
        mat = rng.integers(0, 256, (2, 3), dtype=np.uint8)
        shards = rng.integers(0, 256, (3, 5), dtype=np.uint8)
        out = GF256.matmul_bytes(mat, shards)
        for i in range(2):
            for col in range(5):
                acc = 0
                for j in range(3):
                    acc ^= GF256.mul(int(mat[i, j]), int(shards[j, col]))
                assert out[i, col] == acc


class TestOutParameter:
    def test_mul_bytes_into_out(self):
        rng = np.random.default_rng(20)
        buf = rng.integers(0, 256, 128, dtype=np.uint8)
        out = np.empty(128, dtype=np.uint8)
        res = GF256.mul_bytes(37, buf, out=out)
        assert res is out
        assert (res == GF256.mul_bytes(37, buf)).all()

    def test_mul_bytes_out_with_zero_and_one(self):
        buf = np.arange(32, dtype=np.uint8)
        out = np.full(32, 0xAB, dtype=np.uint8)
        assert (GF256.mul_bytes(0, buf, out=out) == 0).all()
        out = np.full(32, 0xAB, dtype=np.uint8)
        assert (GF256.mul_bytes(1, buf, out=out) == buf).all()

    def test_matmul_bytes_into_out(self):
        rng = np.random.default_rng(21)
        mat = rng.integers(0, 256, (3, 4), dtype=np.uint8)
        shards = rng.integers(0, 256, (4, 64), dtype=np.uint8)
        out = np.full((3, 64), 0xFF, dtype=np.uint8)
        res = GF256.matmul_bytes(mat, shards, out=out)
        assert res is out
        assert (res == GF256.matmul_bytes(mat, shards)).all()

    def test_matmul_bytes_accumulate_xors_into_out(self):
        rng = np.random.default_rng(22)
        mat = rng.integers(0, 256, (2, 3), dtype=np.uint8)
        shards = rng.integers(0, 256, (3, 16), dtype=np.uint8)
        base = rng.integers(0, 256, (2, 16), dtype=np.uint8)
        out = base.copy()
        GF256.matmul_bytes(mat, shards, out=out, accumulate=True)
        assert (out == (base ^ GF256.matmul_bytes(mat, shards))).all()

    def test_addmul_no_steady_state_allocation(self):
        # A warm 1 MiB addmul keeps nothing (the table fallback's scratch
        # row is grown by the warm-up call and reused) and, on the native
        # kernel, borrows nothing payload-sized either.  numpy's gather
        # widens its uint8 indices internally, a transient the fallback
        # cannot avoid.
        size = 1 << 20
        acc = np.zeros(size, dtype=np.uint8)
        buf = np.ones(size, dtype=np.uint8)
        GF256.addmul_bytes(acc, 7, buf)
        tracemalloc.start()
        try:
            GF256.addmul_bytes(acc, 9, buf)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 4096
        if GF256.selected_kernels()["large"] == "native":
            assert peak < size // 16

    @pytest.mark.parametrize(
        "acc, buf",
        [
            (np.zeros(8, np.uint8), np.array([3], np.uint8)),  # would broadcast
            (np.zeros((2, 4), np.uint8), np.arange(4, dtype=np.uint8)),  # ... twice
            (np.zeros(4, np.uint8), np.arange(8, dtype=np.uint8)),
            (np.zeros(16, np.uint8)[::2], np.arange(8, dtype=np.uint8)),  # strided
            (np.zeros(8, np.uint16), np.arange(8, dtype=np.uint8)),
            (bytearray(8), np.arange(8, dtype=np.uint8)),
        ],
    )
    def test_addmul_rejects_an_accumulator_that_is_not_the_buffers_size(self, acc, buf):
        before = bytes(acc)
        for c in (0, 1, 7):
            with pytest.raises(ValueError):
                GF256.addmul_bytes(acc, c, buf)
        assert bytes(acc) == before

    def test_addmul_rejects_a_read_only_accumulator(self):
        acc = np.zeros(8, np.uint8)
        acc.flags.writeable = False
        with pytest.raises(ValueError):
            GF256.addmul_bytes(acc, 7, np.arange(8, dtype=np.uint8))

    def test_addmul_makes_a_strided_source_contiguous(self):
        src = np.arange(32, dtype=np.uint8)
        acc = np.zeros(16, np.uint8)
        GF256.addmul_bytes(acc, 7, src[::2])
        assert (acc == GF256.mul_bytes(7, src[::2].copy())).all()
        acc2d = np.zeros((2, 8), np.uint8)  # same size, own shape: filled flat
        GF256.addmul_bytes(acc2d, 7, src[::2])
        assert (acc2d.ravel() == acc).all()

    def test_mul_bytes_rejects_a_strided_or_misshapen_out(self):
        buf = np.arange(8, dtype=np.uint8)
        for out in (np.zeros(16, np.uint8)[::2], np.zeros(4, np.uint8), np.zeros(8, np.int8)):
            with pytest.raises(ValueError):
                GF256.mul_bytes(7, buf, out=out)

    def test_mul_bytes_in_place(self):
        buf = np.arange(64, dtype=np.uint8)
        want = GF256.mul_bytes(37, buf)
        assert GF256.mul_bytes(37, buf, out=buf) is buf
        assert (buf == want).all()


# Shapes chosen to cross kernel tails: odd/even row and column counts,
# empty dims, single bytes, and payloads from one byte to tens of KiB.
# r = 5 opens a second group of four rows and k = 17 a second group of
# sixteen columns (which must accumulate onto the first even when the
# product overwrites); 31, 33, 95 and 129 leave scalar tails of 31 and 1
# bytes after the 32-byte SIMD body.
KERNEL_SHAPES = [
    (1, 1, 1),
    (2, 3, 5),
    (3, 6, 64),
    (4, 7, 1000),
    (3, 4, 0),
    (0, 3, 16),
    (2, 5, 40000),
    (5, 4, 129),
    (3, 17, 95),
    (5, 17, 33),
    (5, 17, 31),
]


def kernel_case(r: int, k: int, length: int):
    """A seeded (mat, shards) pair and the reference kernel's product."""
    rng = np.random.default_rng(r * 1000 + k * 100 + length)
    mat = rng.integers(0, 256, (r, k), dtype=np.uint8)
    if r and k:
        mat[0, 0] = 0  # exercise the zero-coefficient skip
        mat[-1, -1] = 1  # and the xor-only path
    shards = rng.integers(0, 256, (k, length), dtype=np.uint8)
    expected = np.zeros((r, length), dtype=np.uint8)
    GF256._kernel_reference(mat, shards, expected, 0, length)
    return mat, shards, expected


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", GF256.available_kernels())
    @pytest.mark.parametrize("r,k,length", KERNEL_SHAPES)
    def test_kernel_matches_reference(self, name, r, k, length):
        mat, shards, expected = kernel_case(r, k, length)
        GF256.set_kernel(name)
        try:
            got = GF256.matmul_bytes(mat, shards)
        finally:
            GF256.set_kernel(None)
        assert (got == expected).all()

    @pytest.mark.parametrize("accumulate", [False, True], ids=["overwrite", "accumulate"])
    @pytest.mark.parametrize("name", GF256.available_kernels())
    @pytest.mark.parametrize("r,k,length", KERNEL_SHAPES)
    def test_kernel_writes_or_accumulates_into_a_dirty_out(self, name, r, k, length, accumulate):
        """What ``out`` held before is gone (overwrite) or XORed in (accumulate)."""
        mat, shards, expected = kernel_case(r, k, length)
        if accumulate:
            expected ^= 0xAA
        out = np.full((r, length), 0xAA, dtype=np.uint8)
        GF256.set_kernel(name)
        try:
            got = GF256.matmul_bytes(mat, shards, out=out, accumulate=accumulate)
        finally:
            GF256.set_kernel(None)
        assert got is out
        assert (out == expected).all()

    def test_set_kernel_rejects_unknown(self):
        with pytest.raises(ValueError):
            GF256.set_kernel("simd9000")

    def test_set_kernel_none_restores_the_rule(self):
        before = GF256.selected_kernels()
        GF256.set_kernel("reference")
        try:
            assert set(GF256.selected_kernels().values()) == {"reference"}
        finally:
            GF256.set_kernel(None)
        assert GF256.selected_kernels() == before

    def test_selection_follows_native_load(self):
        """The one rule: ``native`` iff the shared object loaded, else ``table``."""
        if GF256.native_kernel() is not None:
            want, kernels = "native", ("reference", "table", "native")
        else:
            want, kernels = "table", ("reference", "table")
        assert GF256.selected_kernels() == {"small": want, "large": want}
        assert GF256.available_kernels() == kernels

    def test_selection_without_native_is_table(self, monkeypatch):
        """What a host with no C compiler runs: the numpy fallback."""
        monkeypatch.setattr(GF256, "_NATIVE", None)
        assert GF256.available_kernels() == ("reference", "table")
        assert set(GF256.selected_kernels().values()) == {"table"}
        with pytest.raises(ValueError):
            GF256.set_kernel("native")
        GF256.reset_kernel_stats()
        mat = np.array([[3, 7]], dtype=np.uint8)
        shards = np.arange(64, dtype=np.uint8).reshape(2, 32)
        got = GF256.matmul_bytes(mat, shards)
        assert GF256.KERNEL_STATS["table"] == 1
        assert (got[0] == (GF256.mul_bytes(3, shards[0]) ^ GF256.mul_bytes(7, shards[1]))).all()


class TestMatmulRows:
    """The rows entry point hands addresses to C: shapes are checked first."""

    @pytest.mark.parametrize("name", GF256.available_kernels())
    def test_rejects_rows_shorter_than_the_column_range(self, name):
        mat = np.array([[2, 3]], dtype=np.uint8)
        rows = [np.ones(64, np.uint8), np.ones(63, np.uint8)]
        outs = [np.zeros(64, np.uint8)]
        GF256.set_kernel(name)
        try:
            with pytest.raises(ValueError):
                GF256.matmul_rows(mat, rows, outs, offset=32, length=32)
            with pytest.raises(ValueError):
                GF256.matmul_rows(mat, [rows[0], rows[0]], [np.zeros(48, np.uint8)])
        finally:
            GF256.set_kernel(None)

    def test_rejects_a_matrix_of_the_wrong_shape(self):
        rows = [np.ones(8, np.uint8)] * 3
        with pytest.raises(ValueError):
            GF256.matmul_rows(np.ones((1, 2), np.uint8), rows, [np.zeros(8, np.uint8)])
        with pytest.raises(ValueError):
            GF256.matmul_rows(np.ones((2, 3), np.uint8), rows, [np.zeros(8, np.uint8)])

    def test_column_range_leaves_the_rest_untouched(self):
        mat = np.array([[1, 1]], dtype=np.uint8)
        rows = [np.full(16, 5, np.uint8), np.full(16, 3, np.uint8)]
        out = np.full(16, 0xAA, np.uint8)
        GF256.matmul_rows(mat, rows, [out], offset=4, length=8)
        assert (out[4:12] == 6).all()
        assert (out[:4] == 0xAA).all() and (out[12:] == 0xAA).all()
        GF256.matmul_rows(mat, rows, [out], offset=4, length=8, accumulate=True)
        assert (out[4:12] == 0).all()


class TestKernelStats:
    def test_matmul_calls_count_each_pass(self):
        rng = np.random.default_rng(30)
        mat = rng.integers(0, 256, (2, 3), dtype=np.uint8)
        shards = rng.integers(0, 256, (3, 2048), dtype=np.uint8)
        GF256.reset_kernel_stats()
        GF256.matmul_bytes(mat, shards)
        GF256.matmul_bytes(mat, shards)
        assert GF256.KERNEL_STATS["matmul_calls"] == 2

    def test_empty_products_do_not_count(self):
        GF256.reset_kernel_stats()
        GF256.matmul_bytes(np.zeros((0, 3), np.uint8), np.zeros((3, 8), np.uint8))
        GF256.matmul_bytes(np.zeros((2, 3), np.uint8), np.zeros((3, 0), np.uint8))
        assert GF256.KERNEL_STATS["matmul_calls"] == 0


_IMPORT_PROBE = """
import json, repro, repro.live
from repro.erasure import gf256
GF256 = gf256.GF256
print(json.dumps({
    "scratch": sorted(getattr(gf256._SCRATCH, "pool", {})),
    "matmul_calls": GF256.KERNEL_STATS["matmul_calls"],
    "selected": GF256.selected_kernels(),
    "native": GF256.native_kernel() is not None,
}))
"""


@pytest.mark.parametrize("native", ["1", "0"])
def test_import_runs_no_kernel_and_leaves_nothing_resident(native):
    """A fresh ``import repro, repro.live`` decides the kernel without racing.

    Counts only, so it holds on one CPU: no scratch buffer allocated, no
    product pass run, and the selection is exactly "did native load".
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src, REPRO_GF_NATIVE=native)
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["scratch"] == []
    assert seen["matmul_calls"] == 0
    want = "native" if seen["native"] else "table"
    assert seen["selected"] == {"small": want, "large": want}
    if native == "0":
        assert not seen["native"]

