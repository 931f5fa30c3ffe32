/* Native data-plane kernels: the GF(2^8) fused matrix product and the
 * request path's CRC-32, as the CPython extension module ``_gf_matmul``.
 *
 * GF(2^8) fused matrix kernel: nibble-table shuffle product.
 *
 * The low/high-nibble factorization of a field product (c*x =
 * LO[c][x & 15] ^ HI[c][x >> 4]), lowered to a 32-byte PSHUFB on AVX2 hosts
 * the way ISA-L's SIMD erasure kernels do: one in-register shuffle performs
 * 32 table lookups, so a full r x k stripe product streams the data once
 * while every table access stays in registers.  A plain-C path covers tails
 * and non-AVX2 hosts; both paths are bit-exact with the Python reference
 * kernel.  The product either overwrites its output rows (the first column
 * group's sums are stored as they are, so a fresh buffer needs no zeroing
 * pass first) or XOR-accumulates into them (parity folds).
 *
 * CRC-32 fold: zlib's reflected polynomial 0xEDB88320 folded with
 * carry-less multiplies, then Barrett-reduced to 32 bits (Gopal et al.,
 * "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel
 * 2009; the scheme of Chromium's crc32_simd).  Two bodies share one tail:
 * 4 x 128-bit PCLMULQDQ lanes (64 bytes a step), and on AVX-512 hosts
 * 4 x 512-bit VPCLMULQDQ lanes (256 bytes a step) whose four 128-bit
 * quarters are folded down and handed to the same 16-byte loop and
 * reduction.  They consume whole 16-byte blocks only; a byte-table loop
 * finishes the last 0-15 bytes (and any view too short to fold), so the
 * result is bit-identical to zlib.crc32.
 *
 * The entry points (end of file) take their arrays through the buffer
 * protocol: each checks every row it is handed, then releases the GIL
 * around the kernel alone.  Built at runtime by repro.erasure.native
 * (cc -O3 -shared against Python.h); the SIMD bodies compile via
 * per-function target attributes so no ISA flags are needed and the module
 * still loads on any x86-64, dispatching on __builtin_cpu_supports.
 * -DGF_NO_VPCLMUL leaves the wide body out, for a compiler that rejects its
 * target attribute.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) || defined(__i386__)
#define GF_X86 1
#include <immintrin.h>
#endif

/* Scalar product over bytes [l0, length) of every row: out[i] (^)=
 * sum_j mat[i*k+j] * shards[j], the rows zeroed first unless accumulating. */
static void matmul_scalar(const uint8_t *mat, size_t r, size_t k,
                          const uint8_t *const *shard_ptrs,
                          uint8_t *const *out_ptrs,
                          size_t l0, size_t length,
                          const uint8_t *nib_lo, const uint8_t *nib_hi,
                          int accumulate)
{
    for (size_t i = 0; i < r; i++) {
        uint8_t *o = out_ptrs[i];
        if (!accumulate)
            memset(o + l0, 0, length - l0);
        for (size_t j = 0; j < k; j++) {
            uint8_t c = mat[i * k + j];
            if (c == 0)
                continue;
            const uint8_t *lo = nib_lo + (size_t)c * 16;
            const uint8_t *hi = nib_hi + (size_t)c * 16;
            const uint8_t *s = shard_ptrs[j];
            for (size_t l = l0; l < length; l++) {
                uint8_t x = s[l];
                o[l] ^= lo[x & 15] ^ hi[x >> 4];
            }
        }
    }
}

#ifdef GF_X86
/* One 32-byte accumulator to its output row: stored as is (``fresh``), or
 * XORed into what the row holds. */
__attribute__((target("avx2")))
static inline void store_row(uint8_t *o, __m256i acc, int fresh)
{
    if (!fresh)
        acc = _mm256_xor_si256(_mm256_loadu_si256((const __m256i *)o), acc);
    _mm256_storeu_si256((__m256i *)o, acc);
}

__attribute__((target("avx2")))
static size_t matmul_avx2(const uint8_t *mat, size_t r, size_t k,
                          const uint8_t *const *shard_ptrs,
                          uint8_t *const *out_ptrs, size_t length,
                          const uint8_t *nib_lo, const uint8_t *nib_hi,
                          int accumulate)
{
    const __m256i mask = _mm256_set1_epi8(0x0f);
    size_t vlen = length & ~(size_t)31; /* 32-byte blocks */
    /* Rows in groups of <=4 (separate accumulator registers), columns in
     * groups of <=16 (hoisted table registers): every (row, column) pair
     * costs two shuffles and three XORs per 32 bytes.  Unless accumulating,
     * the first column group's sums are stored without reading the row, and
     * later groups XOR into them: the output is written once, never zeroed. */
    for (size_t i0 = 0; i0 < r; i0 += 4) {
        size_t gr = (r - i0) < 4 ? (r - i0) : 4;
        for (size_t j0 = 0; j0 < k; j0 += 16) {
            size_t gk = (k - j0) < 16 ? (k - j0) : 16;
            int fresh = !accumulate && j0 == 0;
            __m256i tlo[4][16], thi[4][16];
            for (size_t i = 0; i < gr; i++) {
                for (size_t j = 0; j < gk; j++) {
                    uint8_t c = mat[(i0 + i) * k + (j0 + j)];
                    tlo[i][j] = _mm256_broadcastsi128_si256(
                        _mm_loadu_si128((const __m128i *)(nib_lo + (size_t)c * 16)));
                    thi[i][j] = _mm256_broadcastsi128_si256(
                        _mm_loadu_si128((const __m128i *)(nib_hi + (size_t)c * 16)));
                }
            }
            for (size_t l = 0; l < vlen; l += 32) {
                __m256i acc0 = _mm256_setzero_si256();
                __m256i acc1 = acc0, acc2 = acc0, acc3 = acc0;
                for (size_t j = 0; j < gk; j++) {
                    __m256i x = _mm256_loadu_si256(
                        (const __m256i *)(shard_ptrs[j0 + j] + l));
                    __m256i xlo = _mm256_and_si256(x, mask);
                    __m256i xhi = _mm256_and_si256(_mm256_srli_epi64(x, 4), mask);
                    acc0 = _mm256_xor_si256(acc0, _mm256_xor_si256(
                        _mm256_shuffle_epi8(tlo[0][j], xlo),
                        _mm256_shuffle_epi8(thi[0][j], xhi)));
                    if (gr > 1)
                        acc1 = _mm256_xor_si256(acc1, _mm256_xor_si256(
                            _mm256_shuffle_epi8(tlo[1][j], xlo),
                            _mm256_shuffle_epi8(thi[1][j], xhi)));
                    if (gr > 2)
                        acc2 = _mm256_xor_si256(acc2, _mm256_xor_si256(
                            _mm256_shuffle_epi8(tlo[2][j], xlo),
                            _mm256_shuffle_epi8(thi[2][j], xhi)));
                    if (gr > 3)
                        acc3 = _mm256_xor_si256(acc3, _mm256_xor_si256(
                            _mm256_shuffle_epi8(tlo[3][j], xlo),
                            _mm256_shuffle_epi8(thi[3][j], xhi)));
                }
                store_row(out_ptrs[i0] + l, acc0, fresh);
                if (gr > 1)
                    store_row(out_ptrs[i0 + 1] + l, acc1, fresh);
                if (gr > 2)
                    store_row(out_ptrs[i0 + 2] + l, acc2, fresh);
                if (gr > 3)
                    store_row(out_ptrs[i0 + 3] + l, acc3, fresh);
            }
        }
    }
    return vlen;
}
#endif /* GF_X86 */

/* The product: writes it into the out rows (accumulate == 0) or
 * XOR-accumulates it into them (accumulate != 0).  What an overwritten row
 * held is never read: the AVX2 body stores its first column group's sums,
 * and the scalar path (the tail, or the whole row without AVX2) zeroes its
 * bytes before summing into them.  Rows are pointer arrays, so a caller's
 * separate (even non-adjacent) row buffers need no stacking into a matrix. */
static void gf_matmul(const uint8_t *mat, size_t r, size_t k,
                      const uint8_t *const *shard_ptrs,
                      uint8_t *const *out_ptrs, size_t length,
                      const uint8_t *nib_lo, const uint8_t *nib_hi,
                      int accumulate)
{
    size_t l0 = 0;
    if (r == 0 || length == 0)
        return;
#ifdef GF_X86
    if (k > 0 && __builtin_cpu_supports("avx2"))
        l0 = matmul_avx2(mat, r, k, shard_ptrs, out_ptrs, length,
                         nib_lo, nib_hi, accumulate);
#endif
    matmul_scalar(mat, r, k, shard_ptrs, out_ptrs, l0, length,
                  nib_lo, nib_hi, accumulate);
}

/* 0 = plain C only, 2 = AVX2 dispatch active on this host. */
static int gf_simd_level(void)
{
#ifdef GF_X86
    if (__builtin_cpu_supports("avx2"))
        return 2;
#endif
    return 0;
}

#ifdef GF_X86
#ifndef GF_NO_VPCLMUL
#define CRC_WIDE 1
#endif

/* Folding constants for the reflected polynomial, reflect32(x^n mod P) << 1
 * for n = 4*128+-32 and 128+-32 (the 512- and 128-bit folds) and n = 64
 * (the 64-bit fold); then P' (= floor(x^64 / P)) and P for the Barrett
 * step.  The wide body's 2048-bit fold takes n = 4*512+-32, and its
 * one-register 512-bit fold is k1k2 again. */
#define CRC_K1K2 _mm_set_epi64x(0x01c6e41596, 0x0154442bd4)
#define CRC_K3K4 _mm_set_epi64x(0x00ccaa009e, 0x01751997d0)
#define CRC_K5K0 _mm_set_epi64x(0, 0x0163cd6124)
#define CRC_POLY _mm_set_epi64x(0x01f7011641, 0x01db710641)

/* One fold step: x carried ahead by the distance k encodes (k1k2: 512
 * bits, k3k4: 128), XORed onto ``next``. */
__attribute__((target("pclmul,sse4.1")))
static inline __m128i fold_128(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11), next),
                         _mm_clmulepi64_si128(x, k, 0x00));
}

/* The tail both bodies share: fold the remaining 16-byte blocks into the
 * one 128-bit lane x1, then 128 -> 64 bits and Barrett to 32. */
__attribute__((target("pclmul,sse4.1")))
static inline uint32_t crc32_finish(__m128i x1, const uint8_t *buf, size_t len)
{
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i x2;

    while (len >= 16) {
        x1 = fold_128(x1, CRC_K3K4, _mm_loadu_si128((const __m128i *)buf));
        buf += 16;
        len -= 16;
    }

    /* 128 -> 64 bits. */
    x2 = _mm_clmulepi64_si128(x1, CRC_K3K4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, mask32);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, CRC_K5K0, 0x00), x2);

    /* Barrett reduction to 32 bits. */
    x2 = _mm_and_si128(x1, mask32);
    x2 = _mm_clmulepi64_si128(x2, CRC_POLY, 0x10);
    x2 = _mm_and_si128(x2, mask32);
    x2 = _mm_clmulepi64_si128(x2, CRC_POLY, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return (uint32_t)_mm_extract_epi32(x1, 1);
}

/* 4 x 128-bit lanes, 64 bytes a step; len >= 64. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc32_pclmul(const uint8_t *buf, size_t len, uint32_t crc)
{
    const __m128i k1k2 = CRC_K1K2, k3k4 = CRC_K3K4;
    __m128i x1, x2, x3, x4;

    x1 = _mm_xor_si128(_mm_loadu_si128((const __m128i *)(buf + 0x00)),
                       _mm_cvtsi32_si128((int)crc));
    x2 = _mm_loadu_si128((const __m128i *)(buf + 0x10));
    x3 = _mm_loadu_si128((const __m128i *)(buf + 0x20));
    x4 = _mm_loadu_si128((const __m128i *)(buf + 0x30));
    buf += 64;
    len -= 64;

    /* Four independent lanes: each folds 512 bits ahead per step. */
    while (len >= 64) {
        x1 = fold_128(x1, k1k2, _mm_loadu_si128((const __m128i *)(buf + 0x00)));
        x2 = fold_128(x2, k1k2, _mm_loadu_si128((const __m128i *)(buf + 0x10)));
        x3 = fold_128(x3, k1k2, _mm_loadu_si128((const __m128i *)(buf + 0x20)));
        x4 = fold_128(x4, k1k2, _mm_loadu_si128((const __m128i *)(buf + 0x30)));
        buf += 64;
        len -= 64;
    }

    /* Fold the four lanes into one. */
    x1 = fold_128(fold_128(fold_128(x1, k3k4, x2), k3k4, x3), k3k4, x4);
    return crc32_finish(x1, buf, len);
}

#ifdef CRC_WIDE
#define CRC_WIDE_TARGET "avx512f,avx512bw,vpclmulqdq,pclmul,sse4.1"

/* fold_128 on four 128-bit lanes at once, the two XORs one ternary op. */
__attribute__((target(CRC_WIDE_TARGET)))
static inline __m512i fold_512(__m512i x, __m512i k, __m512i next)
{
    return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                     _mm512_clmulepi64_epi128(x, k, 0x11),
                                     next, 0x96);
}

/* 4 x 512-bit lanes, 256 bytes a step; len >= 256. */
__attribute__((target(CRC_WIDE_TARGET)))
static uint32_t crc32_vpclmul(const uint8_t *buf, size_t len, uint32_t crc)
{
    const __m512i k2048 = _mm512_broadcast_i32x4(
        _mm_set_epi64x(0x01322d1430, 0x011542778a));
    const __m512i k512 = _mm512_broadcast_i32x4(CRC_K1K2);
    __m512i x1, x2, x3, x4;
    __m128i a1;

    x1 = _mm512_xor_si512(_mm512_loadu_si512((const void *)(buf + 0x00)),
                          _mm512_maskz_set1_epi32(1, (int)crc));
    x2 = _mm512_loadu_si512((const void *)(buf + 0x40));
    x3 = _mm512_loadu_si512((const void *)(buf + 0x80));
    x4 = _mm512_loadu_si512((const void *)(buf + 0xc0));
    buf += 256;
    len -= 256;

    /* Four independent registers: each folds 2048 bits ahead per step. */
    while (len >= 256) {
        x1 = fold_512(x1, k2048, _mm512_loadu_si512((const void *)(buf + 0x00)));
        x2 = fold_512(x2, k2048, _mm512_loadu_si512((const void *)(buf + 0x40)));
        x3 = fold_512(x3, k2048, _mm512_loadu_si512((const void *)(buf + 0x80)));
        x4 = fold_512(x4, k2048, _mm512_loadu_si512((const void *)(buf + 0xc0)));
        buf += 256;
        len -= 256;
    }

    /* The four registers into one, then any remaining 64-byte blocks. */
    x1 = fold_512(fold_512(fold_512(x1, k512, x2), k512, x3), k512, x4);
    while (len >= 64) {
        x1 = fold_512(x1, k512, _mm512_loadu_si512((const void *)buf));
        buf += 64;
        len -= 64;
    }

    /* Its four 128-bit lanes into one, and the shared tail. */
    a1 = fold_128(_mm512_extracti32x4_epi32(x1, 0), CRC_K3K4,
                  _mm512_extracti32x4_epi32(x1, 1));
    a1 = fold_128(a1, CRC_K3K4, _mm512_extracti32x4_epi32(x1, 2));
    a1 = fold_128(a1, CRC_K3K4, _mm512_extracti32x4_epi32(x1, 3));
    return crc32_finish(a1, buf, len);
}
#endif /* CRC_WIDE */
#endif /* GF_X86 */


/* 0 = no CRC fold on this host, 1 = the PCLMULQDQ + SSE4.1 body, 2 = the
 * VPCLMULQDQ + AVX512F + AVX512BW body as well (built in, and the host has
 * all three). */
static int crc32_simd_level(void)
{
#ifdef GF_X86
#ifdef CRC_WIDE
    if (__builtin_cpu_supports("vpclmulqdq") && __builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512bw"))
        return 2;
#endif
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
        return 1;
#endif
    return 0;
}

/* zlib's running CRC ``crc`` continued over buf[0:len] by body ``body``
 * (1: 128-bit, 2: wide): len a multiple of 16, at least 64 (256 for the
 * wide body), and the host at that crc32_simd_level(). */
static uint32_t crc32_fold(int body, const uint8_t *buf, size_t len, uint32_t crc)
{
    (void)body;
#ifdef CRC_WIDE
    if (body == 2)
        return ~crc32_vpclmul(buf, len, ~crc);
#endif
#ifdef GF_X86
    return ~crc32_pclmul(buf, len, ~crc);
#else
    (void)buf;
    (void)len;
    return crc;
#endif
}

/* Byte-at-a-time CRC-32 for the 0-15 bytes past the fold (and views too
 * short to fold, or every byte on a host without a fold body). */
static uint32_t crc_table[256];

static void crc_table_init(void)
{
    for (uint32_t n = 0; n < 256; n++) {
        uint32_t c = n;
        for (int i = 0; i < 8; i++)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        crc_table[n] = c;
    }
}

static uint32_t crc32_bytes(uint32_t crc, const uint8_t *buf, size_t len)
{
    crc = ~crc;
    while (len--)
        crc = crc_table[(crc ^ *buf++) & 0xff] ^ (crc >> 8);
    return ~crc;
}

/* ------------------------------------------------------------------------
 * The CPython entry points.
 * --------------------------------------------------------------------- */

/* The nibble tables every product reads, cut from the 256 x 256 product
 * table by set_tables(): nib_lo[c][x] = c * x, nib_hi[c][x] = c * (x << 4). */
static uint8_t nib_lo[256 * 16], nib_hi[256 * 16];
static int have_tables;
static int crc_level; /* crc32_simd_level(), taken once at import */

/* Export ``obj`` as a read-only buffer that is a C-contiguous 1-D run of
 * uint8: anything else is a ValueError naming ``what``, and nothing is held. */
static int get_bytes(PyObject *obj, Py_buffer *view, const char *what, Py_ssize_t i)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != 1
        || (view->format != NULL && strcmp(view->format, "B") != 0)
        || !PyBuffer_IsContiguous(view, 'C')) {
        PyBuffer_Release(view);
        if (i < 0)
            PyErr_Format(PyExc_ValueError, "%s needs a contiguous 1-D uint8 view", what);
        else
            PyErr_Format(PyExc_ValueError,
                         "%s row %zd is not a contiguous 1-D uint8 buffer", what, i);
        return -1;
    }
    return 0;
}

/* set_tables(mul): take the nibble tables from the 256 x 256 product table. */
static PyObject *py_set_tables(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer b;
    (void)self;
    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "set_tables(mul) takes one argument");
        return NULL;
    }
    if (PyObject_GetBuffer(args[0], &b, PyBUF_C_CONTIGUOUS) < 0)
        return NULL;
    if (b.len != 256 * 256) {
        PyBuffer_Release(&b);
        PyErr_SetString(PyExc_ValueError, "mul must be the 256 x 256 product table");
        return NULL;
    }
    for (int c = 0; c < 256; c++) {
        const uint8_t *row = (const uint8_t *)b.buf + c * 256;
        memcpy(nib_lo + c * 16, row, 16);
        for (int x = 0; x < 16; x++)
            nib_hi[c * 16 + x] = row[x << 4];
    }
    PyBuffer_Release(&b);
    have_tables = 1;
    Py_RETURN_NONE;
}

/* Rows a product holds on the stack; a larger one allocates. */
#define STACK_ROWS 32

/* gf_matmul(mat, shard_rows, out_rows, offset, length, accumulate)
 *
 * Writes (or XOR-accumulates) mat . shards into bytes [offset, offset +
 * length) of each out row.  ``mat`` is an r x k C-contiguous uint8 matrix,
 * ``shard_rows`` k and ``out_rows`` r contiguous 1-D uint8 buffers, each
 * holding at least offset + length bytes, the out rows writable. */
static PyObject *py_gf_matmul(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer mb, stack_views[STACK_ROWS], *views = stack_views;
    const uint8_t *stack_ptrs[STACK_ROWS], **ptrs = stack_ptrs;
    PyObject *shards = NULL, *outs = NULL, *ret = NULL;
    Py_ssize_t k, r, n, held = 0, offset, length, end;
    int accumulate;
    (void)self;

    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "gf_matmul(mat, shard_rows, out_rows, offset, length, accumulate)");
        return NULL;
    }
    if (!have_tables) {
        PyErr_SetString(PyExc_RuntimeError, "set_tables() was never called");
        return NULL;
    }
    offset = PyLong_AsSsize_t(args[3]);
    if (offset == -1 && PyErr_Occurred())
        return NULL;
    length = PyLong_AsSsize_t(args[4]);
    if (length == -1 && PyErr_Occurred())
        return NULL;
    accumulate = PyObject_IsTrue(args[5]);
    if (accumulate < 0)
        return NULL;
    if (offset < 0 || length < 0 || offset > PY_SSIZE_T_MAX - length) {
        PyErr_SetString(PyExc_ValueError, "offset and length must be non-negative");
        return NULL;
    }
    end = offset + length;
    shards = PySequence_Fast(args[1], "shard rows must be a sequence");
    if (shards == NULL)
        return NULL;
    outs = PySequence_Fast(args[2], "out rows must be a sequence");
    if (outs == NULL)
        goto done;
    k = PySequence_Fast_GET_SIZE(shards);
    r = PySequence_Fast_GET_SIZE(outs);

    if (PyObject_GetBuffer(args[0], &mb, PyBUF_RECORDS_RO) < 0)
        goto done;
    if (mb.ndim != 2 || mb.itemsize != 1
        || (mb.format != NULL && strcmp(mb.format, "B") != 0)
        || !PyBuffer_IsContiguous(&mb, 'C') || mb.shape[0] != r || mb.shape[1] != k) {
        PyErr_Format(PyExc_ValueError,
                     "matrix is not a contiguous %zd x %zd uint8 matrix "
                     "(%zd out rows, %zd shard rows)", r, k, r, k);
        PyBuffer_Release(&mb);
        goto done;
    }

    n = k + r;
    if (n > STACK_ROWS) {
        views = PyMem_New(Py_buffer, n);
        ptrs = PyMem_New(const uint8_t *, n);
        if (views == NULL || ptrs == NULL) {
            PyErr_NoMemory();
            goto release;
        }
    }
    for (; held < n; held++) {
        int out = held >= k;
        Py_ssize_t i = out ? held - k : held;
        PyObject *row = out ? PySequence_Fast_GET_ITEM(outs, i)
                            : PySequence_Fast_GET_ITEM(shards, i);
        Py_buffer *v = &views[held];
        if (get_bytes(row, v, out ? "out" : "shard", i) < 0)
            goto release;
        if (v->len < end) {
            PyErr_Format(PyExc_ValueError, "%s row %zd holds %zd bytes, product needs %zd",
                         out ? "out" : "shard", i, v->len, end);
            PyBuffer_Release(v);
            goto release;
        }
        if (out && v->readonly) {
            PyErr_Format(PyExc_ValueError, "out row %zd is read-only", i);
            PyBuffer_Release(v);
            goto release;
        }
        ptrs[held] = (const uint8_t *)v->buf + offset;
    }

    Py_BEGIN_ALLOW_THREADS
    gf_matmul(mb.buf, (size_t)r, (size_t)k, ptrs, (uint8_t *const *)(ptrs + k),
              (size_t)length, nib_lo, nib_hi, accumulate);
    Py_END_ALLOW_THREADS
    Py_INCREF(Py_None);
    ret = Py_None;

release:
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    if (views != stack_views)
        PyMem_Free(views);
    if (ptrs != stack_ptrs)
        PyMem_Free(ptrs);
    PyBuffer_Release(&mb);
done:
    Py_XDECREF(shards);
    Py_XDECREF(outs);
    return ret;
}

/* zlib.crc32(view, crc) with the whole 16-byte blocks on ``body`` (0: the
 * wide body from 256 bytes where the host has it, else the 128-bit one from
 * 64), the last 0-15 bytes by table. */
static PyObject *crc_entry(PyObject *const *args, Py_ssize_t nargs, int body)
{
    Py_buffer v;
    unsigned long crc = 0;
    size_t n, len;
    const uint8_t *buf;

    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "crc32(view, crc=0)");
        return NULL;
    }
    if (body > crc_level) {
        PyErr_Format(PyExc_RuntimeError, "this host lacks CRC body %d", body);
        return NULL;
    }
    if (nargs == 2) {
        crc = PyLong_AsUnsignedLongMask(args[1]);
        if (crc == (unsigned long)-1 && PyErr_Occurred())
            return NULL;
    }
    if (get_bytes(args[0], &v, "crc32", -1) < 0)
        return NULL;
    buf = v.buf;
    len = (size_t)v.len;
    n = len & ~(size_t)15;
    if (body == 0)
        body = crc_level == 2 && n >= 256 ? 2 : crc_level && n >= 64 ? 1 : 0;
    if (body && n >= (body == 2 ? 256u : 64u)) {
        Py_BEGIN_ALLOW_THREADS
        crc = crc32_fold(body, buf, n, (uint32_t)crc);
        Py_END_ALLOW_THREADS
        buf += n;
        len -= n;
    }
    crc = crc32_bytes((uint32_t)crc, buf, len);
    PyBuffer_Release(&v);
    return PyLong_FromUnsignedLong(crc);
}

static PyObject *py_crc32(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    return crc_entry(args, nargs, 0);
}

/* Each body as its own entry, so one host can hold both to zlib. */
static PyObject *py_crc32_fold_128(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    return crc_entry(args, nargs, 1);
}

#ifdef CRC_WIDE
static PyObject *py_crc32_fold_512(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)self;
    return crc_entry(args, nargs, 2);
}
#endif

static PyMethodDef methods[] = {
    {"set_tables", (PyCFunction)(void (*)(void))py_set_tables, METH_FASTCALL,
     "set_tables(mul): cut the nibble tables from the 256 x 256 product table."},
    {"gf_matmul", (PyCFunction)(void (*)(void))py_gf_matmul, METH_FASTCALL,
     "gf_matmul(mat, shard_rows, out_rows, offset, length, accumulate)"},
    {"crc32", (PyCFunction)(void (*)(void))py_crc32, METH_FASTCALL,
     "crc32(view, crc=0): zlib.crc32 of a contiguous 1-D uint8 view."},
    {"crc32_fold_128", (PyCFunction)(void (*)(void))py_crc32_fold_128, METH_FASTCALL,
     "crc32 with the bulk on the 4 x 128-bit body."},
#ifdef CRC_WIDE
    {"crc32_fold_512", (PyCFunction)(void (*)(void))py_crc32_fold_512, METH_FASTCALL,
     "crc32 with the bulk on the 4 x 512-bit body."},
#endif
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_gf_matmul",
    .m_doc = "GF(2^8) product and CRC-32 kernels.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__gf_matmul(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    crc_table_init();
    crc_level = crc32_simd_level();
    if (PyModule_AddIntConstant(m, "GF_SIMD_LEVEL", gf_simd_level()) < 0
        || PyModule_AddIntConstant(m, "CRC_SIMD_LEVEL", crc_level) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
