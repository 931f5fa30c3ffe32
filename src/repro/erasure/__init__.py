"""Erasure-coding substrate: GF(2^8) arithmetic and Reed-Solomon codes.

This subpackage replaces the Jerasure C library used by the paper.  It
implements:

- :mod:`repro.erasure.gf256` — the finite field GF(2^8) with log/antilog
  tables and the matrix-product kernels (compiled SIMD when the host can
  build it, numpy table gathers otherwise; no Python loops over payload);
- :mod:`repro.erasure.matrix` — matrix algebra over GF(2^8), including
  Gauss-Jordan inversion and Vandermonde/Cauchy generator constructions;
- :mod:`repro.erasure.reedsolomon` — systematic Reed-Solomon ``RS(k, m)``
  encode, arbitrary-erasure decode, delta-based parity update and
  single-row shard reconstruction, one stripe per call.
"""

from repro.erasure.gf256 import GF256
from repro.erasure.matrix import GFMatrix, vandermonde_rs_matrix, cauchy_rs_matrix
from repro.erasure.reedsolomon import RSCode, StripeCodec

__all__ = [
    "GF256",
    "GFMatrix",
    "vandermonde_rs_matrix",
    "cauchy_rs_matrix",
    "RSCode",
    "StripeCodec",
]
