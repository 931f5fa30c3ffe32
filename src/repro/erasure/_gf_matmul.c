/* Native data-plane kernels: the GF(2^8) fused matrix product and the
 * request path's CRC-32.
 *
 * GF(2^8) fused matrix kernel: nibble-table shuffle product.
 *
 * The same low/high-nibble factorization the numpy "nibble" kernel uses
 * (product c*x = LO[c][x & 15] ^ HI[c][x >> 4]), lowered to a 32-byte
 * PSHUFB on AVX2 hosts the way ISA-L's SIMD erasure kernels do: one
 * in-register shuffle performs 32 table lookups, so a full r x k stripe
 * product streams the data once while every table access stays in
 * registers.  A plain-C path covers tails and non-AVX2 hosts; both paths
 * are bit-exact with the Python reference kernel.  The product either
 * overwrites its output rows (the first column group's sums are stored as
 * they are, so a fresh buffer needs no zeroing pass first) or
 * XOR-accumulates into them (parity folds).
 *
 * CRC-32 fold: zlib's reflected polynomial 0xEDB88320 folded with
 * carry-less multiplies, then Barrett-reduced to 32 bits (Gopal et al.,
 * "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ", Intel
 * 2009; the scheme of Chromium's crc32_simd).  Two bodies share one tail:
 * 4 x 128-bit PCLMULQDQ lanes (64 bytes a step), and on AVX-512 hosts
 * 4 x 512-bit VPCLMULQDQ lanes (256 bytes a step) whose four 128-bit
 * quarters are folded down and handed to the same 16-byte loop and
 * reduction.  They consume whole 16-byte blocks only; the caller finishes
 * the tail with zlib.crc32, so the result is bit-identical to zlib.
 *
 * Built at runtime by repro.erasure.native (gcc -O3 -shared); the SIMD
 * bodies compile via per-function target attributes so no ISA flags are
 * needed and the binary still loads on any x86-64, dispatching on
 * __builtin_cpu_supports at call time.  -DGF_NO_VPCLMUL leaves the wide
 * body out, for a compiler that rejects its target attribute.
 */
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

/* Entry point: writes the product into the out rows (accumulate == 0) or
 * XOR-accumulates it into them (accumulate != 0).  What an overwritten row
 * held is never read: the AVX2 body stores its first column group's sums,
 * and the scalar path (the tail, or the whole row without AVX2) zeroes its
 * bytes before summing into them.
 * Shards and output rows are passed as pointer arrays so callers can hand
 * over arbitrary (even non-adjacent) row buffers without stacking a matrix. */
void gf_matmul(const uint8_t *mat, size_t r, size_t k,
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
int gf_simd_level(void)
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
int crc32_simd_level(void)
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

/* The bodies as entry points: continue zlib's running CRC ``crc`` over
 * buf[0:len] and return it.  len must be a multiple of 16, at least 64 for
 * the 128-bit body and 256 for the wide one, and the host must report the
 * body's crc32_simd_level(); the caller checks both once and finishes any
 * tail with zlib.  Each is exported so one host can check both. */
uint32_t crc32_fold_128(const uint8_t *buf, size_t len, uint32_t crc)
{
#ifdef GF_X86
    return ~crc32_pclmul(buf, len, ~crc);
#else
    (void)buf;
    (void)len;
    return crc;
#endif
}

#ifdef CRC_WIDE
uint32_t crc32_fold_512(const uint8_t *buf, size_t len, uint32_t crc)
{
    return ~crc32_vpclmul(buf, len, ~crc);
}
#endif

/* The one the request path calls: the wide body where the host has it and
 * the bulk fills one 256-byte step, else the 128-bit body. */
uint32_t crc32_fold(const uint8_t *buf, size_t len, uint32_t crc)
{
#ifdef CRC_WIDE
    if (len >= 256 && crc32_simd_level() == 2)
        return crc32_fold_512(buf, len, crc);
#endif
    return crc32_fold_128(buf, len, crc);
}
