"""Oracle for the native CRC-32 fold: it is zlib's CRC, byte for byte.

``NativeKernel.crc32`` folds whole 16-byte blocks with carry-less
multiplies and finishes the tail by table from the running value, so every
length, start offset and starting CRC must give exactly ``zlib.crc32``.
The extension module exports each of its two bodies as its own entry
point, so one host checks both: the 4 x 128-bit PCLMULQDQ body
(``crc32_fold_128``) everywhere it has PCLMULQDQ, and the 4 x 512-bit
VPCLMULQDQ body (``crc32_fold_512``) where it also has AVX512F and
AVX512BW.  ``test_each_body_is_zlibs_crc`` drives each body alone; the
other cases go through ``NativeKernel.crc32``, the entry point the
request path calls.
Skipped where the native kernel did not load (no compiler,
``REPRO_GF_NATIVE=0``); ``payload_digest`` is checked on every host in
``tests/staging/test_objects.py``."""

from __future__ import annotations

import os
import shutil
import zlib

import numpy as np
import pytest

from repro.erasure import native as native_mod
from repro.erasure.gf256 import GF256
from repro.staging.objects import NATIVE_CRC_MIN_BYTES

NATIVE = GF256.native_kernel()
pytestmark = pytest.mark.skipif(NATIVE is None, reason="native kernel not loaded")

BUF = np.random.default_rng(0).integers(0, 256, 4 * NATIVE_CRC_MIN_BYTES + 64, dtype=np.uint8)
WIDE_FLAGS = ("vpclmulqdq", "avx512f", "avx512bw")


def cpu_flags() -> set[str] | None:
    """The host's CPU flags as whole tokens, or None without /proc/cpuinfo.

    Tokens, not substrings: ``"pclmulqdq" in text`` also matches
    ``vpclmulqdq``.
    """
    try:
        with open("/proc/cpuinfo") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    flags: set[str] = set()
    for line in lines:
        key, _, value = line.partition(":")
        if key.strip() == "flags":
            flags.update(value.split())
    return flags


FLAGS = cpu_flags()
MISSING_WIDE = [f for f in WIDE_FLAGS if FLAGS is not None and f not in FLAGS]


def body(name: str):
    """``zlib.crc32`` with one body alone taking the whole 16-byte blocks
    from its minimum length up (each is its own entry point of the
    module); skipped where the host lacks the body."""
    if name == "128":
        if NATIVE.crc_level < 1:
            pytest.skip("host lacks pclmulqdq or sse4.1")
        return NATIVE.module.crc32_fold_128
    if NATIVE.crc_level < 2:
        pytest.skip(f"wide CRC body not selected: host lacks {', '.join(MISSING_WIDE) or '?'}")
    return NATIVE.module.crc32_fold_512


def test_every_length_up_to_300():
    for n in range(301):
        assert NATIVE.crc32(BUF[:n]) == zlib.crc32(BUF[:n]), n


@pytest.mark.parametrize("edge", [16, 64, 256, 512, 768, 1024, NATIVE_CRC_MIN_BYTES])
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


def body_cases():
    """(view, starting CRC) pairs that reach every part of either body."""
    for j in range(1, 5):  # either side of each 256-byte step of the wide body
        for n in (256 * j - 17, 256 * j, 256 * j + 17):
            yield BUF[:n], 0
    # Past three 256-byte steps: 0-3 single 64-byte folds, then 0-3 16-byte
    # blocks, then a zlib tail or none.
    for blocks64 in range(4):
        for blocks16 in range(4):
            for tail in (0, 5):
                yield BUF[: 768 + 64 * blocks64 + 16 * blocks16 + tail], 0
    for start in range(1, 17):
        for n in (273, 1041, NATIVE_CRC_MIN_BYTES + 77):
            yield BUF[start : start + n], 0
    yield np.random.default_rng(1).integers(0, 256, (1 << 20) + 77, dtype=np.uint8), 0
    yield BUF[1000:], zlib.crc32(BUF[:1000])
    yield BUF[1000:], 0xFFFFFFFF


@pytest.mark.parametrize("name", ["dispatch", "128", "512"])
def test_each_body_is_zlibs_crc(name):
    # ``dispatch`` is the entry point; the other two drive one body each,
    # whichever one the entry point would pick.
    crc32 = NATIVE.crc32 if name == "dispatch" else body(name)
    for view, crc in body_cases():
        assert crc32(view, crc) == zlib.crc32(view, crc), (view.size, crc)


def test_folds_on_this_host_when_it_can():
    # The fallback inside crc32 is zlib too, so only this pins that the
    # carry-less path actually runs on a PCLMULQDQ host, and the wide body
    # exactly where the host has all three of its flags.
    if FLAGS is None:
        pytest.skip("no /proc/cpuinfo")
    narrow = "pclmulqdq" in FLAGS and "sse4_1" in FLAGS
    assert NATIVE.crc_level == (2 if not MISSING_WIDE else 1 if narrow else 0)


def test_a_compiler_without_the_wide_target_still_builds_the_rest(tmp_path, monkeypatch):
    # A compiler that rejects the wide body's target attribute: the second
    # try leaves it out, and the GF kernel and the 128-bit body still load.
    cc = native_mod._compiler()
    if cc is None or shutil.which("sh") is None:
        pytest.skip("no C compiler or no sh")
    picky = tmp_path / "picky-cc"
    picky.write_text(
        "#!/bin/sh\n"
        f'case " $* " in *" {native_mod._NO_WIDE_CRC} "*) exec "{cc}" "$@" ;; esac\n'
        "echo 'error: attribute(target(\"vpclmulqdq\")) is unknown' >&2\n"
        "exit 1\n"
    )
    picky.chmod(0o755)
    monkeypatch.setattr(native_mod, "_compiler", lambda: str(picky))
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    kernel = native_mod.load(GF256.MUL)
    assert kernel is not None
    assert kernel.simd_level == NATIVE.simd_level
    assert kernel.crc_level == min(NATIVE.crc_level, 1)
    assert not hasattr(kernel.module, "crc32_fold_512")
    assert kernel.module.crc32_fold_128(BUF, 7) == zlib.crc32(BUF, 7)
    big = np.random.default_rng(2).integers(0, 256, (1 << 20) + 77, dtype=np.uint8)
    assert kernel.crc32(big, 7) == zlib.crc32(big, 7)
    assert os.listdir(tmp_path / "cache") != []


def test_refuses_a_view_it_cannot_walk_as_one_buffer():
    # A pointer plus a length would read past a strided view's bytes.
    for bad in (BUF[::2], BUF[:4096].reshape(64, 64), BUF[:4096].view(np.uint32)):
        with pytest.raises(ValueError, match="contiguous 1-D uint8"):
            NATIVE.crc32(bad)
