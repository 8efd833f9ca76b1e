/**
 * @file
 * The lane kernel of the gaussian fill (common/gaussian_fill.h),
 * written once for every vector tier.
 *
 * The kernel is a template over a lane-traits type `V` that each
 * per-tier TU defines for its ISA (gaussian_fill_avx2.cc: 4 lanes,
 * gaussian_fill_avx512.cc: 8 lanes). `V` supplies, as static members
 * (U = kLanes uint64 lanes, F = kLanes float lanes):
 *
 *     kLanes
 *     load(p), store(p, u)      U from/to kLanes uint64
 *     add, bitXor               per-lane, add modulo 2^64
 *     shl<k>, rotl<k>           per-lane shift and rotate left
 *     unit(u)                   float(u >> 40) * 2^-24 per lane
 *     splat(f), fadd, fsub, fmul
 *     store(p, f)               kLanes floats to p
 *     store(p, f) with uint16_t *p
 *                               kLanes bf16 bits, rounded as
 *                               BFloat16::fromFloat (RNE, NaN quieted)
 *
 * Bit-identity with Rng::nextGaussian:
 *
 *  - One step is Rng::next64 on every lane; `x * 5` and `x * 9` are
 *    `x + (x << 2)` and `x + (x << 3)`, equal modulo 2^64.
 *  - `next64() >> 40` has 24 bits, so its float conversion and the
 *    2^-24 scale are exact, as in nextFloat().
 *  - The 12 uniforms are added in draw order from 0.0f, then 6 is
 *    subtracted and sigma multiplied, each as one IEEE single
 *    operation. The TUs compile with -ffp-contract=off so no pair can
 *    fuse; the portable scalar loop is built in ISO C++ mode, where
 *    GCC's default is already -ffp-contract=off.
 *
 * Linkage: as in ncore/exec_npu_kernels.h, everything here sits in an
 * anonymous namespace and calls no inline function of another header,
 * so no ISA-flagged copy can be picked over a portable one at link
 * time.
 */

#ifndef NCORE_COMMON_GAUSSIAN_LANES_H
#define NCORE_COMMON_GAUSSIAN_LANES_H

#include <cstdint>

#include "common/gaussian_fill.h"

namespace ncore {

namespace {

template <typename V, typename Out>
void
gaussianLanes(LaneStates &st, Out *out, int64_t m, float sigma)
{
    using U = typename V::U;
    using F = typename V::F;
    constexpr int kLanes = V::kLanes;
    static_assert(kLanes <= LaneStates::kMaxLanes);

    U s0 = V::load(st.s[0]), s1 = V::load(st.s[1]);
    U s2 = V::load(st.s[2]), s3 = V::load(st.s[3]);
    const F six = V::splat(6.0f), scale = V::splat(sigma);
    Out lane[kLanes];
    for (int64_t i = 0; i < m; ++i) {
        F acc = V::splat(0.0f);
        for (int k = 0; k < Rng::kGaussianDraws; ++k) {
            // Rng::next64 on every lane.
            const U x5 = V::add(s1, V::template shl<2>(s1));
            const U r = V::template rotl<7>(x5);
            const U result = V::add(r, V::template shl<3>(r));
            const U t = V::template shl<17>(s1);
            s2 = V::bitXor(s2, s0);
            s3 = V::bitXor(s3, s1);
            s1 = V::bitXor(s1, s2);
            s0 = V::bitXor(s0, s3);
            s2 = V::bitXor(s2, t);
            s3 = V::template rotl<45>(s3);
            acc = V::fadd(acc, V::unit(result));
        }
        V::store(lane, V::fmul(V::fsub(acc, six), scale));
        for (int l = 0; l < kLanes; ++l)
            out[l * m + i] = lane[l];
    }
    V::store(st.s[0], s0);
    V::store(st.s[1], s1);
    V::store(st.s[2], s2);
    V::store(st.s[3], s3);
}

} // namespace

} // namespace ncore

#endif // NCORE_COMMON_GAUSSIAN_LANES_H
