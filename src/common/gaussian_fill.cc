/**
 * @file
 * The gaussian fill's tier dispatch, lane jump-starts and scalar tail
 * (common/gaussian_fill.h). This TU is compiled with the default
 * (portable) flags.
 */

#include "common/gaussian_fill.h"

#include "common/bf16.h"

namespace ncore {

namespace {

inline float
toOut(float g, float *)
{
    return g;
}

inline uint16_t
toOut(float g, uint16_t *)
{
    return BFloat16::fromFloat(g).bits;
}

template <typename Out>
using LaneKernel = void (*)(LaneStates &, Out *, int64_t, float);

template <typename Out>
void
fillWith(LaneKernel<Out> kernel, int lanes, Rng &rng, Out *out,
         int64_t n, float sigma)
{
    const int64_t m = kernel ? n / lanes : 0;
    if (m > 0) {
        LaneStates st;
        Rng r = rng;
        for (int l = 0; l < lanes; ++l) {
            if (l)
                r.discard(uint64_t(m) * Rng::kGaussianDraws);
            const std::array<uint64_t, 4> words = r.state();
            for (int w = 0; w < 4; ++w)
                st.s[w][l] = words[std::size_t(w)];
        }
        kernel(st, out, m, sigma);
        // The last lane ended where element lanes·m starts.
        rng = Rng::fromState({st.s[0][lanes - 1], st.s[1][lanes - 1],
                              st.s[2][lanes - 1], st.s[3][lanes - 1]});
    }
    for (int64_t i = lanes * m; i < n; ++i)
        out[i] = toOut(rng.nextGaussian() * sigma, out);
}

template <typename Out>
void
dispatch(SimdTier tier, Rng &rng, Out *out, int64_t n, float sigma)
{
#if NCORE_SIMD_AVX512
    if (tier >= SimdTier::Avx512)
        return fillWith<Out>(gaussianLanesAvx512, kGaussianLanesAvx512,
                             rng, out, n, sigma);
#endif
#if NCORE_SIMD_AVX2
    if (tier >= SimdTier::Avx2)
        return fillWith<Out>(gaussianLanesAvx2, kGaussianLanesAvx2, rng,
                             out, n, sigma);
#endif
    (void)tier;
    fillWith<Out>(nullptr, 1, rng, out, n, sigma);
}

} // namespace

void
fillGaussians(SimdTier tier, Rng &rng, float *out, int64_t n, float sigma)
{
    dispatch(tier, rng, out, n, sigma);
}

void
fillGaussians(SimdTier tier, Rng &rng, uint16_t *out, int64_t n,
              float sigma)
{
    dispatch(tier, rng, out, n, sigma);
}

} // namespace ncore
