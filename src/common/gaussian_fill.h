/**
 * @file
 * The gaussian weight fill in SIMD lanes: `out[i] = nextGaussian() *
 * sigma` for i in [0, n), as float or as bf16 bits, with the same bytes
 * and the same end state of the Rng as that sequential loop.
 *
 * One Irwin-Hall gaussian is 12 dependent xoshiro256** steps and 12
 * dependent float adds, so the scalar loop is latency-bound. The lane
 * fill runs independent copies of the stream, one per vector lane: 8
 * at the avx512 tiers, 4 at avx2. With L lanes and m = n / L, lane l
 * covers out[l·m, (l+1)·m) and starts from the caller's Rng jumped
 * ahead (Rng::discard) by the draws of the l·m elements before it.
 * Each lane sums its 12 uniforms in the scalar order, applies
 * `(acc - 6) · sigma` and rounds to bf16 as BFloat16::fromFloat does,
 * all as IEEE single operations without contraction, so every element
 * equals the scalar one. Lane L-1 ends where element L·m starts; the
 * scalar loop fills the last n - L·m elements from there and leaves
 * the caller's Rng after all n draws. The scalar tier is that loop
 * alone.
 *
 * The lane kernel (gaussian_lanes.h) is written once over a
 * lane-traits type and built per tier in gaussian_fill_avx2.cc and
 * gaussian_fill_avx512.cc, each with its own ISA flags and
 * -ffp-contract=off. Only fillGaussians() calls their entry points.
 */

#ifndef NCORE_COMMON_GAUSSIAN_FILL_H
#define NCORE_COMMON_GAUSSIAN_FILL_H

#include <cstdint>

#include "common/rng.h"
#include "common/simd_tier.h"

namespace ncore {

/**
 * Store `rng.nextGaussian() * sigma` into out[0, n) with the lanes of
 * `tier` (a concrete tier, not Auto); `rng` ends advanced by n
 * gaussians. The uint16_t form stores bf16 bits.
 */
void fillGaussians(SimdTier tier, Rng &rng, float *out, int64_t n,
                   float sigma);
void fillGaussians(SimdTier tier, Rng &rng, uint16_t *out, int64_t n,
                   float sigma);

/** Up to 8 xoshiro256** states: s[w][l] is state word w of lane l. */
struct LaneStates
{
    static constexpr int kMaxLanes = 8;
    uint64_t s[4][kMaxLanes];
};

// Per-tier lane kernels, defined in the per-file-flag TUs. Each runs
// its lanes for m elements from `st`, lane l storing out[l·m, (l+1)·m),
// and leaves each lane's end state in `st`.
#if NCORE_SIMD_AVX2
constexpr int kGaussianLanesAvx2 = 4;
void gaussianLanesAvx2(LaneStates &st, float *out, int64_t m,
                       float sigma);
void gaussianLanesAvx2(LaneStates &st, uint16_t *out, int64_t m,
                       float sigma);
#endif
#if NCORE_SIMD_AVX512
constexpr int kGaussianLanesAvx512 = 8;
void gaussianLanesAvx512(LaneStates &st, float *out, int64_t m,
                         float sigma);
void gaussianLanesAvx512(LaneStates &st, uint16_t *out, int64_t m,
                         float sigma);
#endif

} // namespace ncore

#endif // NCORE_COMMON_GAUSSIAN_FILL_H
