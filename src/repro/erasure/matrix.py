"""Matrix algebra over GF(2^8) and generator-matrix constructions.

Reed-Solomon coding reduces to linear algebra over the field: encoding is a
matrix-vector product with a generator matrix whose every square submatrix is
invertible (the MDS property), and decoding is inversion of the submatrix of
rows corresponding to surviving shards.

Two standard constructions are provided:

- :func:`vandermonde_rs_matrix` — a systematic generator derived from a
  Vandermonde matrix by Gaussian elimination (the classic Jerasure
  ``vandermonde`` coding matrix);
- :func:`cauchy_rs_matrix` — a systematic Cauchy construction, which is MDS
  by construction without the elimination step.
"""

from __future__ import annotations

import numpy as np

from repro.erasure.gf256 import GF256

__all__ = [
    "GFMatrix",
    "identity",
    "vandermonde_matrix",
    "vandermonde_rs_matrix",
    "cauchy_rs_matrix",
]


def identity(n: int) -> np.ndarray:
    """The n x n identity matrix over GF(2^8)."""
    return np.eye(n, dtype=np.uint8)


class GFMatrix:
    """A dense matrix over GF(2^8) with multiply / invert / solve.

    Thin wrapper over a uint8 ndarray; rows/cols are field elements.  The
    heavy per-byte work happens in :class:`~repro.erasure.gf256.GF256`'s
    vectorized kernels — this class only runs at matrix dimension (k, m <= 32
    in practice), so clarity beats micro-optimization here.
    """

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("GFMatrix requires a 2-D array")
        self.a = arr.copy()

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GFMatrix) and self.a.shape == other.a.shape and bool((self.a == other.a).all())

    def __hash__(self):  # pragma: no cover - matrices are not hashed
        return NotImplemented

    def copy(self) -> "GFMatrix":
        return GFMatrix(self.a)

    # ------------------------------------------------------------------
    def matmul(self, other: "GFMatrix") -> "GFMatrix":
        """Matrix product over the field."""
        a, b = self.a, other.a
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
        # The stripe product and the matrix product are the same operation;
        # delegate to the kernel layer.
        return GFMatrix(GF256.matmul_bytes(a, b))

    def __matmul__(self, other: "GFMatrix") -> "GFMatrix":
        return self.matmul(other)

    def mul_vec(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product over the field."""
        return self.matmul(GFMatrix(np.asarray(v, dtype=np.uint8).reshape(-1, 1))).a.ravel()

    # ------------------------------------------------------------------
    def invert(self) -> "GFMatrix":
        """Gauss-Jordan inversion over GF(2^8).

        Raises ``np.linalg.LinAlgError`` if the matrix is singular.  Used by
        the decoder on the surviving-rows submatrix, so singularity here
        means the erasure pattern exceeded the code's tolerance.
        """
        n, m = self.a.shape
        if n != m:
            raise ValueError("only square matrices can be inverted")
        aug = np.concatenate([self.a.copy(), identity(n)], axis=1)
        for col in range(n):
            # locate pivot
            pivot = -1
            for r in range(col, n):
                if aug[r, col] != 0:
                    pivot = r
                    break
            if pivot < 0:
                raise np.linalg.LinAlgError("singular matrix over GF(256)")
            if pivot != col:
                aug[[col, pivot]] = aug[[pivot, col]]
            # normalize pivot row
            inv_p = GF256.inv(int(aug[col, col]))
            if inv_p != 1:
                aug[col] = GF256.MUL[inv_p][aug[col]]
            # eliminate the column from every other row
            for r in range(n):
                if r != col and aug[r, col] != 0:
                    c = int(aug[r, col])
                    aug[r] ^= GF256.MUL[c][aug[col]]
        return GFMatrix(aug[:, n:])

    def rank(self) -> int:
        """Rank over GF(2^8) by forward elimination."""
        a = self.a.copy()
        n, m = a.shape
        rank = 0
        for col in range(m):
            pivot = -1
            for r in range(rank, n):
                if a[r, col] != 0:
                    pivot = r
                    break
            if pivot < 0:
                continue
            if pivot != rank:
                a[[rank, pivot]] = a[[pivot, rank]]
            inv_p = GF256.inv(int(a[rank, col]))
            if inv_p != 1:
                a[rank] = GF256.MUL[inv_p][a[rank]]
            for r in range(n):
                if r != rank and a[r, col] != 0:
                    c = int(a[r, col])
                    a[r] ^= GF256.MUL[c][a[rank]]
            rank += 1
            if rank == n:
                break
        return rank

    def is_mds_generator(self, k: int) -> bool:
        """Check the MDS property: every k x k submatrix is invertible.

        Exponential in the worst case; intended for tests and small (k, m).
        """
        from itertools import combinations

        n = self.a.shape[0]
        if self.a.shape[1] != k:
            raise ValueError("generator must have k columns")
        for rows in combinations(range(n), k):
            sub = GFMatrix(self.a[list(rows)])
            try:
                sub.invert()
            except np.linalg.LinAlgError:
                return False
        return True


def vandermonde_matrix(rows: int, cols: int) -> GFMatrix:
    """The (rows x cols) Vandermonde matrix V[i, j] = i**j over GF(2^8)."""
    a = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            a[i, j] = GF256.pow(i, j) if i > 0 else (1 if j == 0 else 0)
    return GFMatrix(a)


def vandermonde_rs_matrix(k: int, m: int) -> GFMatrix:
    """Systematic (k+m) x k generator from a Vandermonde matrix.

    Column-reduce the (k+m) x k Vandermonde matrix so its top k rows become
    the identity; the bottom m rows are then the parity coefficients.  The
    resulting generator retains the MDS property because column operations
    preserve the invertibility of row-submatrices.
    """
    if k < 1 or m < 0:
        raise ValueError("require k >= 1 and m >= 0")
    if k + m > GF256.ORDER:
        raise ValueError("k + m must be <= 256 for GF(2^8) Vandermonde codes")
    v = vandermonde_matrix(k + m, k).a
    # Column elimination to turn the top k x k block into the identity.
    for col in range(k):
        # Find a column with nonzero entry in row `col` at/after position col.
        if v[col, col] == 0:
            for c2 in range(col + 1, k):
                if v[col, c2] != 0:
                    v[:, [col, c2]] = v[:, [c2, col]]
                    break
            else:  # pragma: no cover - Vandermonde never degenerates here
                raise np.linalg.LinAlgError("degenerate Vandermonde construction")
        inv_p = GF256.inv(int(v[col, col]))
        if inv_p != 1:
            v[:, col] = GF256.MUL[inv_p][v[:, col]]
        for c2 in range(k):
            if c2 != col and v[col, c2] != 0:
                c = int(v[col, c2])
                v[:, c2] ^= GF256.MUL[c][v[:, col]]
    return GFMatrix(v)


def cauchy_rs_matrix(k: int, m: int) -> GFMatrix:
    """Systematic (k+m) x k generator with a Cauchy parity block.

    Parity block C[i, j] = 1 / (x_i + y_j) with distinct x_i, y_j drawn from
    disjoint subsets of the field; every square submatrix of a Cauchy matrix
    is invertible, so the systematic generator is MDS by construction.
    """
    if k < 1 or m < 0:
        raise ValueError("require k >= 1 and m >= 0")
    if k + m > GF256.ORDER:
        raise ValueError("k + m must be <= 256")
    ys = list(range(k))          # y_j = 0..k-1
    xs = list(range(k, k + m))   # x_i = k..k+m-1, disjoint from ys
    parity = np.zeros((m, k), dtype=np.uint8)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            parity[i, j] = GF256.inv(x ^ y)
    return GFMatrix(np.concatenate([identity(k), parity], axis=0))
