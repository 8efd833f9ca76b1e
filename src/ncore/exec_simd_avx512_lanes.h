/**
 * @file
 * AVX-512 lane traits for the NPU kernels (exec_npu_kernels.h): 16
 * int32 lanes per step, with native k-mask predication.
 *
 * Internal to the two AVX-512 kernel TUs. exec_simd_avx512.cc
 * instantiates the kernels over Avx512Lanes (`-mavx512f -mavx512bw
 * -mavx512vl -mavx512dq`); exec_simd_avx512vnni.cc adds `-mavx512vnni`
 * and overrides the integer MAC steps. Keeping the VNNI overrides in its
 * own TU means the plain avx512 tier never contains a VNNI
 * instruction. Like the kernel header, everything here sits in an
 * anonymous namespace, so each including TU gets private copies.
 */

#ifndef NCORE_NCORE_EXEC_SIMD_AVX512_LANES_H
#define NCORE_NCORE_EXEC_SIMD_AVX512_LANES_H

#include <immintrin.h>

#include <cstdint>

#include "ncore/exec_npu_kernels.h"

namespace ncore {

namespace {

/** Lane traits for exec_npu_kernels.h (its file comment lists them). */
struct Avx512Lanes
{
    static constexpr int kLanes = 16;
    /// Four groups' 16 accumulator vectors, half the zmm registers.
    static constexpr int kConvGroups = 4;
    using Vec = __m512i;
    using FVec = __m512;
    using Mask = __mmask16;

    static Vec load(const int32_t *p) { return _mm512_loadu_si512(p); }
    static void store(int32_t *p, Vec v) { _mm512_storeu_si512(p, v); }
    static Vec splat(int32_t x) { return _mm512_set1_epi32(x); }

    static Vec
    loadU8(const uint8_t *p)
    {
        return _mm512_cvtepu8_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }

    template <bool ZOFF>
    static Vec
    widen(const uint8_t *p, int i, Vec z)
    {
        Vec v = loadU8(p + i);
        if constexpr (ZOFF)
            v = _mm512_sub_epi32(v, z);
        return v;
    }

    template <Pred P>
    static Mask
    pass(const uint8_t *pred)
    {
        __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i *>(pred));
        if constexpr (P == Pred::NotP0)
            return _mm_cmpeq_epi8_mask(v, _mm_setzero_si128());
        else
            return _mm_cmpneq_epi8_mask(v, _mm_setzero_si128());
    }

    static Vec
    select(Mask m, Vec old, Vec neu)
    {
        return _mm512_mask_mov_epi32(old, m, neu);
    }

    /** Overflow iff sign(a) == sign(b) && sign(a+b) != sign(a). */
    static Vec
    satAdd32(Vec a, Vec b)
    {
        Vec sum = _mm512_add_epi32(a, b);
        Vec ovf = _mm512_andnot_si512(_mm512_xor_si512(a, b),
                                      _mm512_xor_si512(sum, a));
        Vec sat = _mm512_xor_si512(_mm512_srai_epi32(a, 31),
                                   _mm512_set1_epi32(0x7fffffff));
        return _mm512_mask_mov_epi32(sum, _mm512_movepi32_mask(ovf), sat);
    }

    /** satAdd32(acc, a * b); the products fit int32 exactly. */
    static Vec
    macAcc(Vec acc, Vec a, Vec b)
    {
        return satAdd32(acc, _mm512_mullo_epi32(a, b));
    }

    /** acc + a.lo16 * b.lo16 + a.hi16 * b.hi16, without saturation. */
    static Vec
    madd2(Vec acc, Vec a, Vec b)
    {
        return _mm512_add_epi32(acc, _mm512_madd_epi16(a, b));
    }

    /** Low words of `lo` paired with the low words of `hi`. */
    static Vec
    pair16(Vec lo, Vec hi)
    {
        return _mm512_mask_blend_epi16(0xaaaaaaaa, lo,
                                       _mm512_slli_epi32(hi, 16));
    }

    static constexpr int kHalves = 32;

    static void
    widen16(int16_t *dst, const uint8_t *src, int32_t z)
    {
        const __m512i w = _mm512_cvtepu8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src)));
        _mm512_storeu_si512(dst, _mm512_sub_epi16(
                                     w, _mm512_set1_epi16(int16_t(z))));
    }

    static Vec min(Vec a, Vec b) { return _mm512_min_epi32(a, b); }
    static Vec max(Vec a, Vec b) { return _mm512_max_epi32(a, b); }

    static FVec
    bf16(const uint8_t *lo, const uint8_t *hi, int i)
    {
        return _mm512_castsi512_ps(
            _mm512_or_si512(_mm512_slli_epi32(loadU8(hi + i), 24),
                            _mm512_slli_epi32(loadU8(lo + i), 16)));
    }

    static FVec asF(Vec v) { return _mm512_castsi512_ps(v); }
    static Vec asI(FVec f) { return _mm512_castps_si512(f); }
    static FVec fadd(FVec a, FVec b) { return _mm512_add_ps(a, b); }
    static FVec fmul(FVec a, FVec b) { return _mm512_mul_ps(a, b); }

    static FVec
    canonNaN(FVec r)
    {
        return _mm512_mask_mov_ps(
            r, _mm512_cmp_ps_mask(r, r, _CMP_UNORD_Q),
            _mm512_castsi512_ps(_mm512_set1_epi32(0x7fc00000)));
    }
};

} // namespace

} // namespace ncore

#endif // NCORE_NCORE_EXEC_SIMD_AVX512_LANES_H
