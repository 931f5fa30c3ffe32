"""Runtime-built native data-plane kernels (optional, best effort).

One shared object carries the two per-byte passes of the data plane: the
GF(2^8) matrix product every encode, decode and parity fold runs on, and
the CRC-32 fold behind the request path's ``payload_digest``, bit-identical
to ``zlib.crc32``.  The fold has two bodies, picked per call: 4 x 512-bit
VPCLMULQDQ lanes where the host has VPCLMULQDQ, AVX512F and AVX512BW
(about 0.02 ns per byte: 21 us per hot MiB, 50-70 us once it left L2),
else 4 x 128-bit PCLMULQDQ lanes (about 0.06 ns per byte: 60 us per hot
MiB, 75-95 us cold), against zlib's 0.25 (250 us per MiB).

Compiles :mod:`_gf_matmul.c` with the host C compiler on first use and
loads it through :mod:`ctypes`.  The shared object is cached in a
per-user temp directory keyed by the source hash, so the one-time gcc
invocation (~a second) happens once per container, not per process.  A
compiler that rejects the wide body's target attribute gets a second try
without it, so the GF kernel and the 128-bit body still load.

Everything here is **best effort**: no compiler, a failed compile, a
missing dlopen, or ``REPRO_GF_NATIVE=0`` all simply make :func:`load`
return ``None`` and the numpy ``table`` kernel in
:mod:`repro.erasure.gf256` carries the data plane, scalar products
included (a 1 MiB ``addmul`` at ~0.6 GB/s and an RS(6,3) encode at
~0.2 GB/s instead of multiple GB/s), and ``zlib.crc32`` computes every
checksum.  Both kernels are bit-exact with their fallbacks and hold no
global state, so concurrent calls from parallel workers need no locking
(ctypes releases the GIL for the call).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["NativeKernel", "load"]

_SOURCE = os.path.join(os.path.dirname(__file__), "_gf_matmul.c")
_CC_CANDIDATES = ("cc", "gcc", "clang")
# Leaves the VPCLMULQDQ body out of the build (second try only).
_NO_WIDE_CRC = "-DGF_NO_VPCLMUL"
_CRC_BODIES = ("zlib", "pclmulqdq 4x128", "vpclmulqdq 4x512")


@dataclass
class NativeKernel:
    """ctypes handle to the compiled kernel plus its nibble tables."""

    lib: ctypes.CDLL
    simd_level: int
    nib_lo: np.ndarray
    nib_hi: np.ndarray
    crc_level: int  # crc32_simd_level(): 0 none, 1 the 128-bit body, 2 the wide one too

    def __post_init__(self) -> None:
        # ``ndarray.ctypes`` costs ~1 us a read; the tables never move.
        self._tables = (self.nib_lo.ctypes.data, self.nib_hi.ctypes.data)

    @property
    def crc_body(self) -> str:
        """Which body folds a bulk of 256 bytes or more on this host."""
        return _CRC_BODIES[self.crc_level]

    def crc32(self, view: np.ndarray, crc: int = 0) -> int:
        """``zlib.crc32(view, crc)``, the whole 16-byte blocks folded in C.

        ``view`` is a contiguous 1-D uint8 array.  The kernel takes the
        longest 16-byte multiple of the buffer (when that is at least 64
        bytes and the host has PCLMULQDQ), on the wide body from 256 bytes
        where the host has it; zlib finishes the rest from the running CRC,
        so the value is zlib's for every length and start.
        """
        if view.dtype != np.uint8 or view.ndim != 1 or not view.flags.c_contiguous:
            raise ValueError("crc32 needs a contiguous 1-D uint8 view")
        n = view.size & ~15
        if n >= 64 and self.crc_level:
            crc = self.lib.crc32_fold(view.ctypes.data, n, crc)
            view = view[n:]
        return zlib.crc32(view, crc)

    def matmul_ptrs(
        self,
        mat: np.ndarray,
        shard_ptrs,
        out_ptrs,
        length: int,
        accumulate: bool,
    ) -> None:
        """Write ``mat . shards`` into the out rows, or XOR-accumulate it.

        With ``accumulate`` false the kernel overwrites the rows: whatever
        they held is never read, so the caller need not zero them.
        ``shard_ptrs`` / ``out_ptrs`` are ctypes pointer arrays built by
        :meth:`row_ptrs` for the same ``length``; rows may live at arbitrary
        addresses, so no (k, L) stacking copy is ever needed.
        """
        r, k = mat.shape
        self.lib.gf_matmul(
            mat.tobytes(), r, k, shard_ptrs, out_ptrs, length, *self._tables, accumulate
        )

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
    cmd = [cc, "-O3", "-shared", "-fPIC", "-o", tmp, source_path]
    try:
        try:
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        except subprocess.CalledProcessError:
            subprocess.run(cmd + [_NO_WIDE_CRC], check=True, capture_output=True, timeout=120)
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
        ctypes.c_int,  # accumulate (0: overwrite the out rows)
    ]
    lib.gf_matmul.restype = None
    lib.gf_simd_level.restype = ctypes.c_int
    lib.crc32_fold.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint32]
    lib.crc32_fold.restype = ctypes.c_uint32
    lib.crc32_simd_level.restype = ctypes.c_int

    return NativeKernel(
        lib=lib,
        simd_level=int(lib.gf_simd_level()),
        nib_lo=np.ascontiguousarray(mul[:, :16]),
        nib_hi=np.ascontiguousarray(mul[:, ::16]),
        crc_level=int(lib.crc32_simd_level()),
    )
