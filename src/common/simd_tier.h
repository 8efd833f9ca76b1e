/**
 * @file
 * Host SIMD tiers and the one probe that picks them. Two users share
 * it: the specialized execution engine's kernels (ncore/simd.h, one
 * tier per Machine) and the gaussian weight fill
 * (common/gaussian_fill.h, one tier per fill).
 *
 * bestSimdTier() only returns a tier whose kernels are compiled in.
 * Both users build their vector TUs under the same compiler-flag
 * checks (common/CMakeLists.txt), so a tier is compiled in for both or
 * for neither. The fill has no VNNI form: at avx512vnni it runs its
 * avx512 lanes.
 */

#ifndef NCORE_COMMON_SIMD_TIER_H
#define NCORE_COMMON_SIMD_TIER_H

#include <cstdint>

namespace ncore {

/**
 * SIMD tier of the vector kernels. Ordering is meaningful: a higher
 * enum value needs a superset of the ISA extensions below it; Auto
 * resolves via the NCORE_SIMD env var, then cpuid.
 */
enum class SimdTier : uint8_t
{
    Auto = 0,   ///< Resolve via NCORE_SIMD env var, then cpuid.
    Scalar,     ///< Portable scalar kernels only.
    Avx2,       ///< 256-bit kernels (requires AVX2).
    Avx512,     ///< 512-bit kernels (requires AVX-512 F/BW/VL/DQ).
    Avx512Vnni, ///< Avx512 with a `vpdpwssds` integer MAC (+VNNI).
};

/** Lower-case tier name ("scalar", ..., "avx512vnni"); Auto -> "auto". */
const char *simdTierName(SimdTier t);

/** Best tier the running CPU supports among the compiled-in kernels. */
SimdTier bestSimdTier();

/** Parse a NCORE_SIMD value; fatal on anything unrecognized. */
SimdTier parseSimdTier(const char *s);

/**
 * Resolve a tier request to a concrete tier: Auto consults NCORE_SIMD
 * (`scalar`, `avx2`, `avx512` or `avx512vnni` — the one place it is
 * read) then bestSimdTier(); explicit requests are clamped to
 * bestSimdTier() so they never select an unsupported ISA.
 */
SimdTier resolveSimdTier(SimdTier requested);

} // namespace ncore

#endif // NCORE_COMMON_SIMD_TIER_H
