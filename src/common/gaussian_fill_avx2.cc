/**
 * @file
 * The avx2 instantiation of the gaussian lane kernel
 * (gaussian_lanes.h): 4 xoshiro256** streams in the uint64 lanes of a
 * ymm register, their gaussians in an xmm of floats.
 *
 * Built with `-mavx2 -ffp-contract=off` via per-source CMake flags;
 * only fillGaussians() calls in, after bestSimdTier() proved the host
 * supports AVX2.
 */

#include <immintrin.h>

#include <cstdint>

#include "common/gaussian_lanes.h"

namespace ncore {

namespace {

struct Avx2Lanes
{
    static constexpr int kLanes = kGaussianLanesAvx2;
    using U = __m256i;
    using F = __m128;

    static U
    load(const uint64_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }

    static void
    store(uint64_t *p, U v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    static U add(U a, U b) { return _mm256_add_epi64(a, b); }
    static U bitXor(U a, U b) { return _mm256_xor_si256(a, b); }

    template <int k>
    static U
    shl(U a)
    {
        return _mm256_slli_epi64(a, k);
    }

    template <int k>
    static U
    rotl(U a)
    {
        return _mm256_or_si256(_mm256_slli_epi64(a, k),
                               _mm256_srli_epi64(a, 64 - k));
    }

    /** u >> 40 fits the low dword of each lane: gather the four. */
    static F
    unit(U u)
    {
        const __m256i low = _mm256_permutevar8x32_epi32(
            _mm256_srli_epi64(u, 40),
            _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
        return _mm_mul_ps(_mm_cvtepi32_ps(_mm256_castsi256_si128(low)),
                          _mm_set1_ps(0x1.0p-24f));
    }

    static F splat(float f) { return _mm_set1_ps(f); }
    static F fadd(F a, F b) { return _mm_add_ps(a, b); }
    static F fsub(F a, F b) { return _mm_sub_ps(a, b); }
    static F fmul(F a, F b) { return _mm_mul_ps(a, b); }

    static void store(float *p, F f) { _mm_storeu_ps(p, f); }

    static void
    store(uint16_t *p, F f)
    {
        const __m128i u = _mm_castps_si128(f);
        const __m128i hi = _mm_srli_epi32(u, 16);
        const __m128i rounding = _mm_add_epi32(
            _mm_set1_epi32(0x7fff), _mm_and_si128(hi, _mm_set1_epi32(1)));
        const __m128i rounded =
            _mm_srli_epi32(_mm_add_epi32(u, rounding), 16);
        // NaN: |u| above the infinity pattern. Quiet it and truncate.
        const __m128i nan =
            _mm_cmpgt_epi32(_mm_and_si128(u, _mm_set1_epi32(0x7fffffff)),
                            _mm_set1_epi32(0x7f800000));
        const __m128i quiet = _mm_or_si128(hi, _mm_set1_epi32(0x40));
        const __m128i bits = _mm_blendv_epi8(rounded, quiet, nan);
        _mm_storel_epi64(reinterpret_cast<__m128i *>(p),
                         _mm_packus_epi32(bits, bits));
    }
};

} // namespace

void
gaussianLanesAvx2(LaneStates &st, float *out, int64_t m, float sigma)
{
    gaussianLanes<Avx2Lanes>(st, out, m, sigma);
}

void
gaussianLanesAvx2(LaneStates &st, uint16_t *out, int64_t m, float sigma)
{
    gaussianLanes<Avx2Lanes>(st, out, m, sigma);
}

} // namespace ncore
