"""Runtime-built native data-plane kernels (optional, best effort).

One CPython extension module, ``_gf_matmul``, carries the two per-byte
passes of the data plane: the GF(2^8) matrix product every encode, decode
and parity fold runs on, and the CRC-32 fold behind the request path's
``payload_digest``, bit-identical to ``zlib.crc32``.  The fold has two
bodies, picked per call: 4 x 512-bit VPCLMULQDQ lanes where the host has
VPCLMULQDQ, AVX512F and AVX512BW (about 0.02 ns per byte: 21 us per hot
MiB, 50-70 us once it left L2), else 4 x 128-bit PCLMULQDQ lanes (about
0.06 ns per byte: 60 us per hot MiB, 75-95 us cold), against zlib's 0.25
(250 us per MiB).

A product or a checksum is one C call: the entry points take the
coefficient matrix, the shard and output rows and the CRC view as buffers,
check in C that every row is a contiguous 1-D uint8 buffer holding the
bytes the kernel is about to touch (outputs writable, the matrix r x k) -
a ValueError otherwise, never a stray read or write - and release the GIL
around the kernel alone.

Compiles :mod:`_gf_matmul.c` against the interpreter's ``Python.h`` with
the host C compiler on first use.  The module is cached in a per-user temp
directory keyed by the source, the compiler and the interpreter's
extension suffix (its ABI), so the one-time build (~a second) happens once
per container and interpreter, not per process, and one cache never hands
a module built for another Python to this one.  A compiler that rejects
the wide body's target attribute gets a second try without it, so the GF
kernel and the 128-bit body still load.

Everything here is **best effort**: no compiler, no ``Python.h``, a failed
compile or import, or ``REPRO_GF_NATIVE=0`` all simply make :func:`load`
return ``None`` (:data:`LOAD_FAILURE` says which) and the numpy ``table``
kernel in :mod:`repro.erasure.gf256` carries the data plane, scalar
products included (a 1 MiB ``addmul`` at ~0.6 GB/s and an RS(6,3) encode
at ~0.2 GB/s instead of multiple GB/s), and ``zlib.crc32`` computes every
checksum.  Both kernels are bit-exact with their fallbacks and write no
global state after loading, so calls from several threads need no locking.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import numpy as np

__all__ = ["LOAD_FAILURE", "NativeKernel", "load"]

_SOURCE = os.path.join(os.path.dirname(__file__), "_gf_matmul.c")
_CC_CANDIDATES = ("cc", "gcc", "clang")
# Leaves the VPCLMULQDQ body out of the build (second try only).
_NO_WIDE_CRC = "-DGF_NO_VPCLMUL"
_CRC_BODIES = ("zlib", "pclmulqdq 4x128", "vpclmulqdq 4x512")
# The interpreter's EXT_SUFFIX (the import system's first extension
# suffix; sysconfig would cost milliseconds of import), e.g.
# ``.cpython-311-x86_64-linux-gnu.so``.
_EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]

#: Why the last :func:`load` returned None, or None when it loaded.
LOAD_FAILURE: str | None = None


@dataclass(frozen=True)
class NativeKernel:
    """The loaded extension module and its two entry points.

    ``matmul(mat, shard_rows, out_rows, offset, length, accumulate)``
    writes ``mat . shards`` into bytes ``[offset, offset + length)`` of the
    out rows, or XOR-accumulates it there: ``mat`` is an r x k contiguous
    uint8 matrix, the rows are sequences of k and r contiguous 1-D uint8
    buffers at arbitrary addresses (no (k, L) stacking copy), each holding
    ``offset + length`` bytes.  An overwritten row is never read, so the
    caller need not zero it.

    ``crc32(view, crc=0)`` is ``zlib.crc32(view, crc)`` for a contiguous
    1-D uint8 view: the longest 16-byte multiple of it folded on the wide
    body from 256 bytes where the host has it, else on the 128-bit body
    from 64, the rest by table.
    """

    module: ModuleType
    matmul: Callable[..., None]
    crc32: Callable[..., int]
    simd_level: int  # 0 plain C, 2 the AVX2 product
    crc_level: int  # 0 no fold, 1 the 128-bit body, 2 the wide one too

    @property
    def crc_body(self) -> str:
        """Which body folds a bulk of 256 bytes or more on this host."""
        return _CRC_BODIES[self.crc_level]


def _compiler() -> str | None:
    for cc in _CC_CANDIDATES:
        path = shutil.which(cc)
        if path:
            return path
    return None


def _python_includes() -> list[str]:
    """Directories holding ``Python.h`` and ``pyconfig.h``."""
    import sysconfig

    paths = sysconfig.get_paths()
    return list(dict.fromkeys((paths["include"], paths["platinclude"])))


def _cache_path(source: bytes, cc: str) -> str:
    tag = hashlib.sha256(source + cc.encode() + _EXT_SUFFIX.encode()).hexdigest()[:16]
    root = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-gf-native-{os.getuid()}"
    )
    return os.path.join(root, f"gf_matmul-{tag}.so")


def _build(source_path: str, out_path: str, cc: str, includes: list[str]) -> None:
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    # Build to a unique temp name then rename: atomic under concurrent
    # first-use from several processes.
    fd, tmp = tempfile.mkstemp(
        suffix=".so", dir=os.path.dirname(out_path), prefix=".build-"
    )
    os.close(fd)
    cmd = [cc, "-O3", "-shared", "-fPIC", *(f"-I{d}" for d in includes), "-o", tmp, source_path]
    if sys.platform == "darwin":  # the interpreter's symbols resolve at import
        cmd += ["-undefined", "dynamic_lookup"]
    try:
        try:
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        except subprocess.CalledProcessError:
            subprocess.run(cmd + [_NO_WIDE_CRC], check=True, capture_output=True, timeout=120)
        os.replace(tmp, out_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _import(path: str) -> ModuleType:
    loader = importlib.machinery.ExtensionFileLoader("_gf_matmul", path)
    spec = importlib.util.spec_from_loader("_gf_matmul", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _failed(reason: str | None) -> None:
    global LOAD_FAILURE
    LOAD_FAILURE = reason


def load(mul: np.ndarray) -> NativeKernel | None:
    """Build (first use on this host) and import the kernel, or None.

    ``mul`` is the 256x256 GF product table the module cuts its low/high
    nibble tables from, ``nib_lo[c][x] = c * x`` and ``nib_hi[c][x] =
    c * (x << 4)``.  Called once, when :mod:`repro.erasure.gf256` is
    imported; never raises.
    """
    if os.environ.get("REPRO_GF_NATIVE", "1") in ("0", "false", "off"):
        return _failed("disabled by REPRO_GF_NATIVE")
    cc = _compiler()
    if cc is None:
        return _failed(f"no C compiler ({', '.join(_CC_CANDIDATES)})")
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        so_path = _cache_path(source, cc)
        if not os.path.exists(so_path):
            includes = _python_includes()
            if not any(os.path.exists(os.path.join(d, "Python.h")) for d in includes):
                return _failed(f"no Python.h in {', '.join(includes)}")
            _build(_SOURCE, so_path, cc, includes)
        module = _import(so_path)
        module.set_tables(np.ascontiguousarray(mul, dtype=np.uint8))
    except subprocess.CalledProcessError as exc:
        tail = (exc.stderr or b"").decode(errors="replace").strip().splitlines()[-1:]
        return _failed(f"build failed: {tail[0] if tail else exc}")
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        return _failed(f"{type(exc).__name__}: {exc}")
    _failed(None)
    return NativeKernel(
        module=module,
        matmul=module.gf_matmul,
        crc32=module.crc32,
        simd_level=module.GF_SIMD_LEVEL,
        crc_level=module.CRC_SIMD_LEVEL,
    )
