"""The finite field GF(2^8) used by Reed-Solomon coding.

Elements are bytes 0..255.  Addition is XOR; multiplication is polynomial
multiplication modulo the primitive polynomial ``x^8 + x^4 + x^3 + x^2 + 1``
(0x11D, the same polynomial Jerasure and most storage systems use).

Two tables back the arithmetic: **log/antilog tables** for scalar
operations (``a*b = exp[log a + log b]``) and a **256x256 full
multiplication table** (64 KiB) the byte-buffer kernels are cut from.

Every payload-sized pass - the stripe product ``M . D`` and the scalar
``c * buf`` / ``acc ^= c * buf``, which are its 1x1 case - has one entry
point, :meth:`GF256.matmul_rows` (:meth:`GF256.matmul_bytes` is its
stacked-array wrapper), and three kernels behind it:

- ``reference`` - the seed per-cell kernel, one fancy-index temporary per
  coefficient.  The oracle the tests compare against and the baseline the
  regression gate measures speedups from;
- ``table`` - the same per-cell walk through one reused scratch row: no
  allocation, no setup, no cache.  The portable fallback;
- ``native`` - the runtime-compiled SIMD nibble-shuffle kernel of
  :mod:`repro.erasure.native`, handed the rows themselves in one C call.

Which one runs follows from a single observable fact: ``native`` if the
extension module built and loaded, else ``table``.  :meth:`GF256.set_kernel`
overrides that for tests and benchmarks only.  All three compute exact
field arithmetic, so the choice never changes an output byte - only
throughput.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.erasure import native as _native

__all__ = ["GF256"]

_PRIMITIVE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1
_FIELD_SIZE = 256
_GENERATOR = 2  # 2 is a generator of GF(2^8)* for this polynomial


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build exp/log tables and the full 256x256 product table."""
    exp = np.zeros(2 * _FIELD_SIZE, dtype=np.uint8)  # doubled to skip mod-255
    log = np.zeros(_FIELD_SIZE, dtype=np.int32)
    x = 1
    for i in range(_FIELD_SIZE - 1):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    exp[_FIELD_SIZE - 1 : 2 * (_FIELD_SIZE - 1)] = exp[: _FIELD_SIZE - 1]

    # Full product table via broadcasting over the log representation.
    a = np.arange(_FIELD_SIZE)
    la = log[a]
    mul = exp[(la[:, None] + la[None, :]) % (_FIELD_SIZE - 1)].astype(np.uint8)
    mul[0, :] = 0
    mul[:, 0] = 0
    return exp, log, mul


# The 1x1 coefficient matrices of the scalar products, built once.
_SCALARS = np.arange(_FIELD_SIZE, dtype=np.uint8).reshape(_FIELD_SIZE, 1, 1)

# ---------------------------------------------------------------------------
# scratch buffers (grow-only, reused across kernel calls)
# ---------------------------------------------------------------------------
# One scratch pool per *thread*, so steady-state kernel calls allocate
# nothing while staying safe when two threads run kernels at once (a
# ``serve_in_thread`` server's loop next to the caller's own codec work).
_SCRATCH = threading.local()


def _scratch(name: str, size: int, dtype) -> np.ndarray:
    pool = getattr(_SCRATCH, "pool", None)
    if pool is None:
        pool = _SCRATCH.pool = {}
    buf = pool.get(name)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=dtype)
        pool[name] = buf
    return buf[:size]


class GF256:
    """GF(2^8) arithmetic.  All methods are static; tables are module-level.

    Scalar API: :meth:`add`, :meth:`mul`, :meth:`div`, :meth:`inv`,
    :meth:`pow`.  Vector API (the hot path): :meth:`mul_bytes`,
    :meth:`addmul_bytes`, :meth:`matmul_rows`, :meth:`matmul_bytes`.
    """

    EXP, LOG, MUL = _build_tables()
    ORDER = _FIELD_SIZE
    PRIMITIVE_POLY = _PRIMITIVE_POLY
    GENERATOR = _GENERATOR

    # Observability for tests and benchmarks: every matrix-kernel pass
    # increments ``matmul_calls`` (so e.g. single-shard reconstruction can
    # assert it ran exactly one pass) and the counter of the kernel it ran.
    KERNEL_STATS: dict[str, int] = {"matmul_calls": 0}

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (== subtraction): XOR."""
        return (a ^ b) & 0xFF

    sub = add  # characteristic 2: subtraction is addition

    @classmethod
    def mul(cls, a: int, b: int) -> int:
        """Field multiplication via the product table."""
        return int(cls.MUL[a & 0xFF, b & 0xFF])

    @classmethod
    def div(cls, a: int, b: int) -> int:
        """Field division ``a / b``; raises ZeroDivisionError for b == 0."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return int(cls.EXP[(cls.LOG[a] - cls.LOG[b]) % 255])

    @classmethod
    def inv(cls, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return int(cls.EXP[(255 - cls.LOG[a]) % 255])

    @classmethod
    def pow(cls, a: int, n: int) -> int:
        """``a`` raised to integer power ``n`` (n may be negative if a != 0)."""
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("0 has no inverse in GF(256)")
            return 0
        return int(cls.EXP[(cls.LOG[a] * n) % 255])

    @classmethod
    def exp(cls, n: int) -> int:
        """Generator raised to power ``n`` (antilog)."""
        return int(cls.EXP[n % 255])

    # ------------------------------------------------------------------
    # vectorized byte-buffer kernels (the encode/decode hot path)
    # ------------------------------------------------------------------
    @staticmethod
    def writable_row(arr: np.ndarray, size: int) -> np.ndarray:
        """``arr`` as the flat row a kernel may write ``size`` bytes into.

        Anything but a writable C-contiguous uint8 array of exactly that
        size is a ValueError here rather than a broadcast there.
        """
        if not (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.uint8
            and arr.size == size
            and arr.flags.c_contiguous
            and arr.flags.writeable
        ):
            raise ValueError(f"need a writable contiguous uint8 buffer of {size} bytes")
        return arr.reshape(-1)

    @classmethod
    def mul_bytes(cls, c: int, buf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``c * buf`` elementwise for a uint8 buffer, optionally into ``out``.

        The 1x1 case of :meth:`matmul_rows`: one pass of the kernel in
        charge and, with ``out=`` supplied, no allocation.
        """
        buf = np.ascontiguousarray(buf, dtype=np.uint8)
        if out is None:
            out = np.empty_like(buf)
        elif out.shape != buf.shape:
            raise ValueError("out must be a uint8 buffer of the input's shape")
        row = cls.writable_row(out, buf.size)
        if np.may_share_memory(out, buf):
            buf = buf.copy()  # the product overwrites ``out`` before reading
        cls.matmul_rows(_SCALARS[c & 0xFF], (buf.reshape(-1),), (row,))
        return out

    @classmethod
    def addmul_bytes(cls, acc: np.ndarray, c: int, buf: np.ndarray) -> None:
        """In-place ``acc ^= c * buf``: the accumulating 1x1 product.

        ``acc`` must be a writable contiguous uint8 buffer of ``buf``'s
        size (no broadcasting); the steady state allocates nothing.
        """
        buf = np.ascontiguousarray(buf, dtype=np.uint8).reshape(-1)
        row = cls.writable_row(acc, buf.size)
        c &= 0xFF
        if c:
            cls.matmul_rows(_SCALARS[c], (buf,), (row,), accumulate=True)

    # ------------------------------------------------------------------
    # matrix kernels: XOR-accumulate ``mat . shard_rows`` into the column
    # range [offset, offset + length) of ``out_rows`` (``native`` may
    # overwrite it instead)
    # ------------------------------------------------------------------
    @classmethod
    def _kernel_reference(cls, mat, shard_rows, out_rows, offset, length) -> None:
        """The seed per-cell kernel: one fancy-index temporary per coefficient.

        Kept as the baseline the regression benchmarks measure speedups
        against, and as a cross-check oracle in tests.
        """
        end = offset + length
        srcs = [row[offset:end] for row in shard_rows]
        for i, out in enumerate(out_rows):
            acc = out[offset:end]
            for j, src in enumerate(srcs):
                c = int(mat[i, j])
                if c == 0:
                    continue
                if c == 1:
                    np.bitwise_xor(acc, src, out=acc)
                else:
                    np.bitwise_xor(acc, cls.MUL[c][src], out=acc)

    @classmethod
    def _kernel_table(cls, mat, shard_rows, out_rows, offset, length) -> None:
        """Per-cell table gather through a reused scratch buffer (no allocs)."""
        end = offset + length
        srcs = [row[offset:end] for row in shard_rows]
        tmp = _scratch("mm_u8", length, np.uint8)
        for i, out in enumerate(out_rows):
            acc = out[offset:end]
            for j, src in enumerate(srcs):
                c = int(mat[i, j])
                if c == 0:
                    continue
                if c == 1:
                    np.bitwise_xor(acc, src, out=acc)
                else:
                    np.take(cls.MUL[c], src, out=tmp, mode="clip")
                    np.bitwise_xor(acc, tmp, out=acc)

    # The runtime-compiled kernel, or None when it could not be built or
    # loaded (no compiler, ``REPRO_GF_NATIVE=0``).
    _NATIVE = _native.load(MUL)

    # Kernel forced through set_kernel; None lets the rule decide.
    _FORCED: str | None = None

    @classmethod
    def native_kernel(cls):
        """The loaded native kernel handle, or None."""
        return cls._NATIVE

    @classmethod
    def available_kernels(cls) -> tuple[str, ...]:
        return ("reference", "table") + (("native",) if cls._NATIVE is not None else ())

    @classmethod
    def _kernel_name(cls) -> str:
        """The one selection point: ``native`` if it loaded, else ``table``."""
        return cls._FORCED or ("native" if cls._NATIVE is not None else "table")

    @classmethod
    def selected_kernels(cls) -> dict[str, str]:
        """The kernel in charge, reported per shard-size class.

        Both classes always name the same kernel; the two-key shape is what
        benchmark fingerprints and committed baselines record.
        """
        name = cls._kernel_name()
        return {"small": name, "large": name}

    @classmethod
    def set_kernel(cls, name: str | None) -> None:
        """Force a matrix kernel (``None`` restores the selection rule).

        The seam tests and benchmarks use to drive ``reference`` and
        ``table`` on a host where ``native`` loaded; nothing in the data
        path calls it.
        """
        if name is not None and name not in cls.available_kernels():
            raise ValueError(
                f"unknown kernel {name!r}; one of {cls.available_kernels()}"
            )
        cls._FORCED = name

    @classmethod
    def reset_kernel_stats(cls) -> None:
        for key in cls.KERNEL_STATS:
            cls.KERNEL_STATS[key] = 0

    @classmethod
    def matmul_rows(
        cls,
        mat: np.ndarray,
        shard_rows,
        out_rows,
        offset: int = 0,
        length: int | None = None,
        accumulate: bool = False,
    ) -> None:
        """The matrix product over *separate* row buffers - no stacking copy.

        ``shard_rows`` and ``out_rows`` are sequences of contiguous uint8
        arrays (or the rows of a 2-D array), read and written in place, so
        a stripe encode never compacts its k payload buffers into a (k, L)
        matrix first.  ``offset``/``length`` select a column range
        without slicing copies.  The range of ``out_rows`` is overwritten,
        or XOR-accumulated into with ``accumulate=True``: the ``native``
        kernel overwrites in its one pass, the numpy kernels (which only
        accumulate) get the range zeroed first.  One call is one kernel
        pass regardless of matrix size - the unit
        ``KERNEL_STATS["matmul_calls"]`` counts.
        """
        if length is None:
            length = (len(shard_rows[0]) if len(shard_rows) else 0) - offset
        name = cls._kernel_name()
        empty = length <= 0 or not len(shard_rows) or not len(out_rows)
        if not accumulate and (empty or name != "native"):
            for row in out_rows:
                row[offset : offset + length] = 0
        if empty:
            return
        mat = np.ascontiguousarray(mat, dtype=np.uint8)
        if mat.shape != (len(out_rows), len(shard_rows)):
            raise ValueError(
                f"matrix {mat.shape} does not map {len(shard_rows)} rows to {len(out_rows)}"
            )
        cls.KERNEL_STATS["matmul_calls"] += 1
        cls.KERNEL_STATS[name] = cls.KERNEL_STATS.get(name, 0) + 1
        if name == "native":
            # One C call, handed the rows as they are (no compaction copy of
            # separate rows or of a column range); it can overwrite its
            # output, so a fresh product costs no zeroing pass.
            cls._NATIVE.matmul(mat, shard_rows, out_rows, offset, length, accumulate)
        else:
            getattr(cls, "_kernel_" + name)(mat, shard_rows, out_rows, offset, length)

    @classmethod
    def matmul_bytes(
        cls,
        mat: np.ndarray,
        shards: np.ndarray,
        out: np.ndarray | None = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """Multiply a GF matrix (r x k, uint8) by k stacked data shards.

        ``shards`` has shape ``(k, L)``; the result has shape ``(r, L)``.
        The shape-checked array form of :meth:`matmul_rows`: with ``out=``
        the product is written (or, with ``accumulate=True``,
        XOR-accumulated) into the caller's buffer.
        """
        mat = np.asarray(mat, dtype=np.uint8)
        if mat.ndim != 2:
            raise ValueError("matrix must be 2-D")
        shards = np.ascontiguousarray(shards, dtype=np.uint8)
        if shards.ndim != 2:
            raise ValueError("shards must form a (k, L) matrix")
        r, k = mat.shape
        if shards.shape[0] != k:
            raise ValueError(f"matrix expects {k} shards, got {shards.shape[0]}")
        length = shards.shape[1]
        if out is None:
            out, accumulate = np.empty((r, length), dtype=np.uint8), False
        elif out.shape != (r, length) or out.dtype != np.uint8:
            raise ValueError(f"out must be uint8 of shape {(r, length)}")
        cls.matmul_rows(mat, shards, out, length=length, accumulate=accumulate)
        return out
