/**
 * @file
 * The host SIMD-tier probe (common/simd_tier.h). This TU is compiled
 * with the default (portable) flags.
 */

#include "common/simd_tier.h"

#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace ncore {

const char *
simdTierName(SimdTier t)
{
    switch (t) {
      case SimdTier::Auto: return "auto";
      case SimdTier::Scalar: return "scalar";
      case SimdTier::Avx2: return "avx2";
      case SimdTier::Avx512: return "avx512";
      case SimdTier::Avx512Vnni: return "avx512vnni";
    }
    return "?";
}

SimdTier
bestSimdTier()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#if NCORE_SIMD_AVX512
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq")) {
#if NCORE_SIMD_AVX512VNNI
        if (__builtin_cpu_supports("avx512vnni"))
            return SimdTier::Avx512Vnni;
#endif
        return SimdTier::Avx512;
    }
#endif
#if NCORE_SIMD_AVX2
    if (__builtin_cpu_supports("avx2"))
        return SimdTier::Avx2;
#endif
#endif
    return SimdTier::Scalar;
}

SimdTier
parseSimdTier(const char *s)
{
    if (std::strcmp(s, "scalar") == 0)
        return SimdTier::Scalar;
    if (std::strcmp(s, "avx2") == 0)
        return SimdTier::Avx2;
    if (std::strcmp(s, "avx512") == 0)
        return SimdTier::Avx512;
    if (std::strcmp(s, "avx512vnni") == 0)
        return SimdTier::Avx512Vnni;
    fatal("NCORE_SIMD=%s is not scalar|avx2|avx512|avx512vnni", s);
}

SimdTier
resolveSimdTier(SimdTier requested)
{
    SimdTier best = bestSimdTier();
    SimdTier req = requested;
    if (req == SimdTier::Auto) {
        const char *env = std::getenv("NCORE_SIMD");
        req = (env && env[0]) ? parseSimdTier(env) : best;
    }
    return req < best ? req : best;
}

} // namespace ncore
