/**
 * @file
 * The OUT/NDU kernel selectors. This TU is compiled with the default
 * (portable) flags; the vector kernels live in exec_simd_avx2.cc /
 * exec_simd_avx512.cc / exec_simd_avx512vnni.cc behind per-file flags.
 * The tier probe is common/simd_tier.cc.
 */

#include "ncore/simd.h"

namespace ncore {

OutKernel
simdSelectOut(SimdTier tier, const OutSlot &out)
{
#if NCORE_SIMD_AVX512
    if (tier >= SimdTier::Avx512)
        if (OutKernel k = selectOutKernelAvx512(out))
            return k;
#endif
#if NCORE_SIMD_AVX2
    if (tier >= SimdTier::Avx2)
        return selectOutKernelAvx2(out);
#endif
    (void)tier;
    (void)out;
    return nullptr;
}

NduKernel
simdSelectNdu(SimdTier tier, const NduSlot &slot)
{
#if NCORE_SIMD_AVX2
    if (tier >= SimdTier::Avx2)
        return selectNduKernelAvx2(slot);
#endif
    (void)tier;
    (void)slot;
    return nullptr;
}

} // namespace ncore
