"""The native kernel's boundary: what its C entry points refuse, what a
call allocates, and how the extension module is built and cached.

The product and the checksum are one C call each, handed the rows and the
view as buffers, so the checks that keep a bad row from becoming a stray
read or write live in C: each case here is a ``ValueError`` raised there,
with the output left as it was.  The build cases run everywhere a C
compiler is on the path; the entry-point cases skip where the module did
not load.
"""

from __future__ import annotations

import shutil
import tracemalloc

import numpy as np
import pytest

from repro.erasure import native as native_mod
from repro.erasure.gf256 import GF256
from repro.erasure.reedsolomon import RSCode

NATIVE = GF256.native_kernel()
needs_native = pytest.mark.skipif(NATIVE is None, reason="native kernel not loaded")

L = 4096
RNG = np.random.default_rng(41)


def rows(n: int, size: int = L) -> list[np.ndarray]:
    return [RNG.integers(0, 256, size, dtype=np.uint8) for _ in range(n)]


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def mat(r: int, k: int) -> np.ndarray:
    return np.full((r, k), 7, dtype=np.uint8)


# (shard rows, out rows, matrix, message): each one row or the matrix away
# from a valid 1 x 3 product over bytes [0, L).
BAD_PRODUCTS = {
    "short shard row": (rows(2) + rows(1, L - 1), [np.empty(L, np.uint8)], mat(1, 3), "shard row 2 holds"),
    "short out row": (rows(3), [np.empty(L - 16, np.uint8)], mat(1, 3), "out row 0 holds"),
    "read-only out row": (rows(3), [read_only(np.empty(L, np.uint8))], mat(1, 3), "read-only"),
    "strided shard row": (rows(2) + [rows(1, 2 * L)[0][::2]], [np.empty(L, np.uint8)], mat(1, 3),
                          "not a contiguous 1-D uint8"),
    "2-D out row": (rows(3), [np.empty((2, L), np.uint8)], mat(1, 3), "not a contiguous 1-D uint8"),
    "uint16 shard row": (rows(2) + [np.zeros(L, np.uint16)], [np.empty(L, np.uint8)], mat(1, 3),
                         "not a contiguous 1-D uint8"),
    "matrix 1 x 2": (rows(3), [np.empty(L, np.uint8)], mat(1, 2), "3 shard rows"),
    "matrix 2 x 3": (rows(3), [np.empty(L, np.uint8)], mat(2, 3), "1 out rows"),
    "strided matrix": (rows(3), [np.empty(L, np.uint8)], mat(1, 6)[:, ::2], "contiguous 1 x 3"),
}


@needs_native
@pytest.mark.parametrize("case", sorted(BAD_PRODUCTS))
def test_the_product_entry_refuses_a_row_it_cannot_walk(case):
    shards, outs, matrix, message = BAD_PRODUCTS[case]
    before = [bytes(o) for o in outs]
    for accumulate in (False, True):
        with pytest.raises(ValueError, match=message):
            NATIVE.matmul(matrix, shards, outs, 0, L, accumulate)
    assert [bytes(o) for o in outs] == before


@needs_native
def test_the_product_entry_checks_the_column_range_not_the_row():
    # offset + length is what must fit: a row of L bytes takes [16, L) but
    # not [16, L + 16).
    shards, out, ones = rows(3), np.zeros(L, np.uint8), np.ones((1, 3), np.uint8)
    NATIVE.matmul(ones, shards, [out], 16, L - 16, False)
    assert (out[16:] == shards[0][16:] ^ shards[1][16:] ^ shards[2][16:]).all()
    assert not out[:16].any()
    with pytest.raises(ValueError, match="product needs"):
        NATIVE.matmul(ones, shards, [out], 16, L, False)
    with pytest.raises(ValueError, match="non-negative"):
        NATIVE.matmul(ones, shards, [out], -1, L, False)


@needs_native
@pytest.mark.parametrize("r, k", [(1, 3), (3, 6), (1, 17), (16, 16)])
def test_a_warm_product_over_the_callers_rows_allocates_no_per_row_objects(r, k):
    """A 4 KiB product into rows the caller owns: nothing per row.

    Rows reach C as buffers, so no pointer array, no per-row address object
    and no copy of the matrix is built; what remains (an export record
    numpy frees on release) does not grow with the row count.  Up to 32
    rows in all the entry keeps its views on the stack; a larger product
    allocates one array of them per call.
    """
    coefficients = RNG.integers(0, 256, (r, k), dtype=np.uint8)
    shards = rows(k)
    outs = [np.empty(L, np.uint8) for _ in range(r)]
    GF256.matmul_rows(coefficients, shards, outs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        GF256.matmul_rows(coefficients, shards, outs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - base <= 64
    assert peak - base < 256


@needs_native
def test_a_product_past_the_on_stack_rows_is_the_reference_product():
    coefficients = RNG.integers(0, 256, (20, 20), dtype=np.uint8)
    shards = rows(20, 999)
    want = [np.zeros(999, np.uint8) for _ in range(20)]
    GF256._kernel_reference(coefficients, shards, want, 0, 999)
    got = [np.full(999, 0xAA, np.uint8) for _ in range(20)]
    NATIVE.matmul(coefficients, shards, got, 0, 999, False)
    assert all((g == w).all() for g, w in zip(got, want))


@needs_native
@pytest.mark.parametrize("op", ["fold", "reconstruct"])
def test_a_4k_fold_and_reconstruct_allocate_their_output_and_no_row_pointers(op):
    """What the degraded read and the rewrite pay per call, in bytes.

    RS(3,1), the deployment's code: one fold (the 1 x 3 ``[1 c c]`` pass
    of a rewrite) and one reconstruct (the 1 x 3 pass of a degraded read)
    keep their 4 KiB output row and, beyond it, only the Python-level
    views of their three input rows, under 1 KiB in all.
    """
    code = RSCode(3, 1)
    data = rows(3)
    (parity,) = code.encode(data)
    new = rows(1)[0]
    present = {1: data[1], 2: data[2], 3: parity}
    if op == "fold":
        want = parity ^ GF256.mul_bytes(code.parity_rows[0, 0], data[0] ^ new)
        run = lambda: code.fold_parity(parity, 0, 0, data[0], new)  # noqa: E731
    else:
        want = data[0]
        run = lambda: code.reconstruct_shard(present, 0)  # noqa: E731
    assert (run() == want).all()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == L
    assert L <= kept - base < L + 512
    assert peak - kept < 1024


# ---------------------------------------------------------------------------
# build and cache
# ---------------------------------------------------------------------------
def test_the_cache_is_keyed_by_the_interpreters_abi(monkeypatch):
    source, cc = b"int x;", "cc"
    here = native_mod._cache_path(source, cc)
    monkeypatch.setattr(native_mod, "_EXT_SUFFIX", ".cpython-399-x86_64-linux-gnu.so")
    other = native_mod._cache_path(source, cc)
    assert here != other
    assert here.endswith(".so") and other.endswith(".so")


def _load_with(monkeypatch, tmp_path, **patch):
    """``load`` with module attributes patched; its verdict is put back."""
    monkeypatch.setenv("REPRO_GF_NATIVE", "1")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(native_mod, "LOAD_FAILURE", native_mod.LOAD_FAILURE)
    for name, value in patch.items():
        monkeypatch.setattr(native_mod, name, value)
    return native_mod.load(GF256.MUL), native_mod.LOAD_FAILURE


def test_no_compiler_loads_nothing_and_says_so(monkeypatch, tmp_path):
    kernel, why = _load_with(monkeypatch, tmp_path, _compiler=lambda: None)
    assert kernel is None
    assert why.startswith("no C compiler")


def test_no_python_headers_loads_nothing_and_says_so(monkeypatch, tmp_path):
    if native_mod._compiler() is None:
        pytest.skip("no C compiler")
    empty = tmp_path / "include"
    empty.mkdir()
    kernel, why = _load_with(monkeypatch, tmp_path, _python_includes=lambda: [str(empty)])
    assert kernel is None
    assert why == f"no Python.h in {empty}"
    assert not (tmp_path / "cache").exists()


def test_a_failing_build_loads_nothing_and_names_the_error(monkeypatch, tmp_path):
    if shutil.which("sh") is None:
        pytest.skip("no sh")
    broken = tmp_path / "broken-cc"
    broken.write_text("#!/bin/sh\necho 'fatal error: Python.h: No such file' >&2\nexit 1\n")
    broken.chmod(0o755)
    kernel, why = _load_with(monkeypatch, tmp_path, _compiler=lambda: str(broken))
    assert kernel is None
    assert why == "build failed: fatal error: Python.h: No such file"
    assert [f for f in (tmp_path / "cache").iterdir() if f.suffix == ".so"] == []

