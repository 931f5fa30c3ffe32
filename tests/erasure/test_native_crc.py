"""Oracle for the native CRC-32 fold: it is zlib's CRC, byte for byte.

``NativeKernel.crc32`` folds whole 16-byte blocks with carry-less
multiplies and lets ``zlib.crc32`` finish the tail from the running value,
so every length, start offset and starting CRC must give exactly
``zlib.crc32``.  Skipped where the native kernel did not load (no compiler,
``REPRO_GF_NATIVE=0``); ``payload_digest`` is checked on every host in
``tests/staging/test_objects.py``.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from repro.erasure.gf256 import GF256
from repro.staging.objects import NATIVE_CRC_MIN_BYTES

NATIVE = GF256.native_kernel()
pytestmark = pytest.mark.skipif(NATIVE is None, reason="native kernel not loaded")

BUF = np.random.default_rng(0).integers(0, 256, 4 * NATIVE_CRC_MIN_BYTES + 64, dtype=np.uint8)


def test_every_length_up_to_300():
    for n in range(301):
        assert NATIVE.crc32(BUF[:n]) == zlib.crc32(BUF[:n]), n


@pytest.mark.parametrize("edge", [16, 64, NATIVE_CRC_MIN_BYTES])
def test_lengths_either_side_of_each_edge(edge):
    for n in range(edge - 17, edge + 18):
        assert NATIVE.crc32(BUF[:n]) == zlib.crc32(BUF[:n]), n


def test_misaligned_starts():
    for start in range(1, 17):
        for n in (64, 255, NATIVE_CRC_MIN_BYTES + 77):
            view = BUF[start : start + n]
            assert NATIVE.crc32(view) == zlib.crc32(view), (start, n)


def test_a_mebibyte_and_a_tail():
    big = np.random.default_rng(1).integers(0, 256, (1 << 20) + 77, dtype=np.uint8)
    assert NATIVE.crc32(big) == zlib.crc32(big)


def test_chained_from_a_nonzero_crc():
    head, tail = BUF[:1000], BUF[1000:]
    running = zlib.crc32(head)
    assert running != 0
    assert NATIVE.crc32(tail, running) == zlib.crc32(BUF)
    assert NATIVE.crc32(tail, 0xFFFFFFFF) == zlib.crc32(tail, 0xFFFFFFFF)


def test_folds_on_this_host_when_it_can():
    # The fallback inside crc32 is zlib too, so only this pins that the
    # carry-less path actually runs on a PCLMULQDQ host.
    if not os.path.exists("/proc/cpuinfo"):
        pytest.skip("no /proc/cpuinfo")
    with open("/proc/cpuinfo") as fh:
        has_clmul = "pclmulqdq" in fh.read()
    assert NATIVE.crc_simd == has_clmul


def test_refuses_a_view_it_cannot_walk_as_one_buffer():
    # A pointer plus a length would read past a strided view's bytes.
    for bad in (BUF[::2], BUF[:4096].reshape(64, 64), BUF[:4096].view(np.uint32)):
        with pytest.raises(ValueError, match="contiguous 1-D uint8"):
            NATIVE.crc32(bad)
