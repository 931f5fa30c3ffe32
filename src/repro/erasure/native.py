"""Runtime-built native GF(2^8) matrix kernel (optional, best effort).

Compiles :mod:`_gf_matmul.c` with the host C compiler on first use and
loads it through :mod:`ctypes`.  The shared object is cached in a
per-user temp directory keyed by the source hash, so the one-time gcc
invocation (~a second) happens once per container, not per process.

Everything here is **best effort**: no compiler, a failed compile, a
missing dlopen, or ``REPRO_GF_NATIVE=0`` all simply make :func:`load`
return ``None`` and the numpy ``table`` kernel in
:mod:`repro.erasure.gf256` carries the data plane, scalar products
included (a 1 MiB ``addmul`` at ~0.6 GB/s and an RS(6,3) encode at
~0.2 GB/s instead of multiple GB/s).  The native kernel is bit-exact
with the reference kernel and holds no global state, so concurrent calls
from parallel codec workers need no locking.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np

__all__ = ["NativeKernel", "load"]

_SOURCE = os.path.join(os.path.dirname(__file__), "_gf_matmul.c")
_CC_CANDIDATES = ("cc", "gcc", "clang")


@dataclass
class NativeKernel:
    """ctypes handle to the compiled kernel plus its nibble tables."""

    lib: ctypes.CDLL
    simd_level: int
    nib_lo: np.ndarray
    nib_hi: np.ndarray

    def __post_init__(self) -> None:
        # ``ndarray.ctypes`` costs ~1 us a read; the tables never move.
        self._tables = (self.nib_lo.ctypes.data, self.nib_hi.ctypes.data)

    def matmul_ptrs(
        self,
        mat: np.ndarray,
        shard_ptrs,
        out_ptrs,
        length: int,
    ) -> None:
        """XOR-accumulate ``mat . shards`` into the out rows.

        ``shard_ptrs`` / ``out_ptrs`` are ctypes pointer arrays built by
        :meth:`row_ptrs` for the same ``length``; rows may live at arbitrary
        addresses, so no (k, L) stacking copy is ever needed.
        """
        r, k = mat.shape
        self.lib.gf_matmul(mat.tobytes(), r, k, shard_ptrs, out_ptrs, length, *self._tables)

    @staticmethod
    def row_ptrs(rows, offset: int, length: int):
        """Pointers to byte ``offset`` of each contiguous uint8 ndarray row.

        This is where addresses leave Python, so every row must hold the
        ``offset + length`` bytes the kernel is about to touch.
        """
        end = offset + length
        arr = (ctypes.c_void_p * len(rows))()
        for i, row in enumerate(rows):
            if row.size < end:
                raise ValueError(f"row {i} holds {row.size} bytes, product needs {end}")
            arr[i] = row.ctypes.data + offset
        return arr


def _compiler() -> str | None:
    for cc in _CC_CANDIDATES:
        path = shutil.which(cc)
        if path:
            return path
    return None


def _cache_path(source: bytes, cc: str) -> str:
    tag = hashlib.sha256(source + cc.encode()).hexdigest()[:16]
    root = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-gf-native-{os.getuid()}"
    )
    return os.path.join(root, f"gf_matmul-{tag}.so")


def _build(source_path: str, out_path: str, cc: str) -> None:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    # Build to a unique temp name then rename: atomic under concurrent
    # first-use from several processes.
    fd, tmp = tempfile.mkstemp(
        suffix=".so", dir=os.path.dirname(out_path), prefix=".build-"
    )
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O3", "-shared", "-fPIC", "-o", tmp, source_path],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, out_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(mul: np.ndarray) -> NativeKernel | None:
    """Build (first use on this host) and load the kernel, or None.

    ``mul`` is the 256x256 GF product table; the kernel's low/high nibble
    tables, ``nib_lo[c][x] = c * x`` and ``nib_hi[c][x] = c * (x << 4)``,
    are cut from it.  Called once, when :mod:`repro.erasure.gf256` is
    imported.
    """
    if os.environ.get("REPRO_GF_NATIVE", "1") in ("0", "false", "off"):
        return None
    cc = _compiler()
    if cc is None:
        return None
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        so_path = _cache_path(source, cc)
        if not os.path.exists(so_path):
            _build(_SOURCE, so_path, cc)
        lib = ctypes.CDLL(so_path)
    except (OSError, subprocess.SubprocessError):
        return None
    lib.gf_matmul.argtypes = [
        ctypes.c_char_p,  # mat (r*k coefficient bytes)
        ctypes.c_size_t,  # r
        ctypes.c_size_t,  # k
        ctypes.POINTER(ctypes.c_void_p),  # shard ptrs
        ctypes.POINTER(ctypes.c_void_p),  # out ptrs
        ctypes.c_size_t,  # length
        ctypes.c_void_p,  # nib_lo
        ctypes.c_void_p,  # nib_hi
    ]
    lib.gf_matmul.restype = None
    lib.gf_simd_level.restype = ctypes.c_int

    return NativeKernel(
        lib=lib,
        simd_level=int(lib.gf_simd_level()),
        nib_lo=np.ascontiguousarray(mul[:, :16]),
        nib_hi=np.ascontiguousarray(mul[:, ::16]),
    )
