"""Tests for GF(2^8) matrix algebra and generator constructions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.gf256 import GF256
from repro.erasure.matrix import (
    GFMatrix,
    cauchy_rs_matrix,
    identity,
    vandermonde_matrix,
    vandermonde_rs_matrix,
)


def random_matrix(rng, n, m):
    return GFMatrix(rng.integers(0, 256, (n, m), dtype=np.uint8))


class TestGFMatrixBasics:
    def test_requires_2d(self):
        with pytest.raises(ValueError):
            GFMatrix(np.zeros(3, dtype=np.uint8))

    def test_copy_is_independent(self):
        m = GFMatrix(np.ones((2, 2), dtype=np.uint8))
        c = m.copy()
        c.a[0, 0] = 9
        assert m.a[0, 0] == 1

    def test_eq(self):
        a = GFMatrix(np.ones((2, 2), dtype=np.uint8))
        b = GFMatrix(np.ones((2, 2), dtype=np.uint8))
        assert a == b

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        m = random_matrix(rng, 4, 4)
        assert m @ GFMatrix(identity(4)) == m
        assert GFMatrix(identity(4)) @ m == m

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            GFMatrix(np.zeros((2, 3), np.uint8)) @ GFMatrix(np.zeros((2, 3), np.uint8))


class TestInversion:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**31 - 1))
    def test_inverse_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        # Build a guaranteed-invertible matrix from a random Vandermonde
        # submatrix: distinct evaluation points give full rank.
        points = rng.choice(255, size=n, replace=False) + 1
        a = np.zeros((n, n), dtype=np.uint8)
        for i, p in enumerate(points):
            for j in range(n):
                a[i, j] = GF256.pow(int(p), j)
        m = GFMatrix(a)
        inv = m.invert()
        assert m @ inv == GFMatrix(identity(n))
        assert inv @ m == GFMatrix(identity(n))

    def test_singular_raises(self):
        a = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        with pytest.raises(np.linalg.LinAlgError):
            GFMatrix(a).invert()

    def test_zero_matrix_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            GFMatrix(np.zeros((3, 3), np.uint8)).invert()

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            GFMatrix(np.zeros((2, 3), np.uint8)).invert()

    def test_rank(self):
        assert GFMatrix(identity(4)).rank() == 4
        assert GFMatrix(np.zeros((3, 3), np.uint8)).rank() == 0
        a = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.uint8)
        # Row 2 = 2 * row 1 over GF(256)? 2*2=4, 2*3=6 -> yes, rank 1.
        assert GFMatrix(a).rank() == 1


class TestVandermonde:
    def test_shape(self):
        v = vandermonde_matrix(5, 3)
        assert v.shape == (5, 3)

    def test_first_column_ones(self):
        v = vandermonde_matrix(4, 3)
        assert (v.a[:, 0] == 1).all()

    def test_row_zero_is_e1(self):
        v = vandermonde_matrix(4, 3)
        assert list(v.a[0]) == [1, 0, 0]


@pytest.mark.parametrize("construction", [vandermonde_rs_matrix, cauchy_rs_matrix])
class TestGeneratorConstructions:
    def test_systematic_top_block(self, construction):
        g = construction(4, 2)
        assert (g.a[:4] == identity(4)).all()

    def test_shape(self, construction):
        g = construction(3, 2)
        assert g.shape == (5, 3)

    @pytest.mark.parametrize("k,m", [(2, 1), (3, 1), (3, 2), (4, 2), (6, 3)])
    def test_mds_property(self, construction, k, m):
        g = construction(k, m)
        assert g.is_mds_generator(k)

    def test_zero_parities(self, construction):
        g = construction(3, 0)
        assert g.shape == (3, 3)
        assert (g.a == identity(3)).all()

    def test_invalid_params(self, construction):
        with pytest.raises(ValueError):
            construction(0, 1)
        with pytest.raises(ValueError):
            construction(200, 100)


class TestConstructionDifferences:
    def test_parity_rows_are_dense(self):
        for g in (vandermonde_rs_matrix(4, 2), cauchy_rs_matrix(4, 2)):
            parity = g.a[4:]
            assert (parity != 0).all(), "parity coefficients must be nonzero"
