/**
 * @file
 * The avx512 instantiation of the gaussian lane kernel
 * (gaussian_lanes.h): 8 xoshiro256** streams in the uint64 lanes of a
 * zmm register (`vprolq` rotates them), their gaussians in a ymm of
 * floats. The avx512vnni tier runs these lanes too: the fill has no
 * integer MAC for VNNI to speed up.
 *
 * Built with `-mavx512{f,bw,vl,dq} -ffp-contract=off` via per-source
 * CMake flags; only fillGaussians() calls in, after bestSimdTier()
 * proved the host supports those AVX-512 subsets.
 */

#include <immintrin.h>

#include <cstdint>

#include "common/gaussian_lanes.h"

namespace ncore {

namespace {

struct Avx512Lanes
{
    static constexpr int kLanes = kGaussianLanesAvx512;
    using U = __m512i;
    using F = __m256;

    static U load(const uint64_t *p) { return _mm512_loadu_si512(p); }
    static void store(uint64_t *p, U v) { _mm512_storeu_si512(p, v); }

    static U add(U a, U b) { return _mm512_add_epi64(a, b); }
    static U bitXor(U a, U b) { return _mm512_xor_si512(a, b); }

    template <int k>
    static U
    shl(U a)
    {
        return _mm512_slli_epi64(a, k);
    }

    template <int k>
    static U
    rotl(U a)
    {
        return _mm512_rol_epi64(a, k);
    }

    /** u >> 40 fits the low dword of each lane: narrow with vpmovqd. */
    static F
    unit(U u)
    {
        return _mm256_mul_ps(
            _mm256_cvtepi32_ps(
                _mm512_cvtepi64_epi32(_mm512_srli_epi64(u, 40))),
            _mm256_set1_ps(0x1.0p-24f));
    }

    static F splat(float f) { return _mm256_set1_ps(f); }
    static F fadd(F a, F b) { return _mm256_add_ps(a, b); }
    static F fsub(F a, F b) { return _mm256_sub_ps(a, b); }
    static F fmul(F a, F b) { return _mm256_mul_ps(a, b); }

    static void store(float *p, F f) { _mm256_storeu_ps(p, f); }

    static void
    store(uint16_t *p, F f)
    {
        const __m256i u = _mm256_castps_si256(f);
        const __m256i hi = _mm256_srli_epi32(u, 16);
        const __m256i rounding = _mm256_add_epi32(
            _mm256_set1_epi32(0x7fff),
            _mm256_and_si256(hi, _mm256_set1_epi32(1)));
        const __m256i rounded =
            _mm256_srli_epi32(_mm256_add_epi32(u, rounding), 16);
        // NaN: |u| above the infinity pattern. Quiet it and truncate.
        const __mmask8 nan = _mm256_cmpgt_epi32_mask(
            _mm256_and_si256(u, _mm256_set1_epi32(0x7fffffff)),
            _mm256_set1_epi32(0x7f800000));
        const __m256i bits = _mm256_mask_or_epi32(
            rounded, nan, hi, _mm256_set1_epi32(0x40));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(p),
                         _mm256_cvtepi32_epi16(bits));
    }
};

} // namespace

void
gaussianLanesAvx512(LaneStates &st, float *out, int64_t m, float sigma)
{
    gaussianLanes<Avx512Lanes>(st, out, m, sigma);
}

void
gaussianLanesAvx512(LaneStates &st, uint16_t *out, int64_t m,
                    float sigma)
{
    gaussianLanes<Avx512Lanes>(st, out, m, sigma);
}

} // namespace ncore
