/**
 * @file
 * AVX-512 VNNI instantiation of the NPU lane kernels and fused conv
 * Rep kernels: Avx512Lanes with the integer MAC step done by one
 * `vpdpwssds` and the conv kernels' two-tap step by one `vpdpwssd`.
 *
 * Compiled with the avx512 TU's flags plus `-mavx512vnni`; only
 * reachable through selectNpuKernelAvx512Vnni and
 * selectConvRepKernelAvx512Vnni, after bestSimdTier() proved the host
 * supports AVX512_VNNI. It shares the avx512 TU's conv panel fill and
 * guard scan, which have no MAC step, and its OUT requantize kernel, and like that tier uses the AVX2 NDU kernels and
 * bf16 store.
 */

#include "ncore/exec_simd_avx512_lanes.h"
#include "ncore/simd.h"

namespace ncore {

namespace {

struct Avx512VnniLanes : Avx512Lanes
{
    /**
     * sat32(acc + a * b) as `vpdpwssds`, which adds the two signed
     * 16x16 products of each dword's word pair to acc and saturates
     * once. A widened u8 lane, minus its zero offset or not, fits in
     * i16, so its low word is the value. Clearing b's high
     * word zeroes the second product, leaving exactly a * b.
     */
    static Vec
    macAcc(Vec acc, Vec a, Vec b)
    {
        return _mm512_dpwssds_epi32(
            acc, a, _mm512_and_si512(b, _mm512_set1_epi32(0xffff)));
    }

    /** The fused conv step: both word products in one `vpdpwssd`. */
    static Vec
    madd2(Vec acc, Vec a, Vec b)
    {
        return _mm512_dpwssd_epi32(acc, a, b);
    }
};

} // namespace

NpuKernel
selectNpuKernelAvx512Vnni(const NpuSlot &npu)
{
    return selectNpuKernelFor<Avx512VnniLanes>(npu);
}

ConvRepKernel
selectConvRepKernelAvx512Vnni(NduOp data_op, Pred p)
{
    return selectConvRepKernelFor<Avx512VnniLanes>(data_op, p);
}

} // namespace ncore
