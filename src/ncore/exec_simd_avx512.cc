/**
 * @file
 * AVX-512 instantiation of the NPU lane kernels and fused conv Rep
 * kernels (exec_npu_kernels.h) over Avx512Lanes
 * (exec_simd_avx512_lanes.h).
 *
 * Compiled with `-mavx512f -mavx512bw -mavx512vl -mavx512dq
 * -ffp-contract=off` via per-source CMake flags; only reachable through
 * selectNpuKernelAvx512 and selectConvRepKernelAvx512, and only after
 * bestSimdTier() proved the host supports those AVX-512 subsets. The tier has no OUT or NDU kernels of
 * its own: buildExecPlan uses the AVX2 ones at this tier.
 */

#include "ncore/exec_simd_avx512_lanes.h"
#include "ncore/simd.h"

namespace ncore {

NpuKernel
selectNpuKernelAvx512(const NpuSlot &npu)
{
    return selectNpuKernelFor<Avx512Lanes>(npu);
}

ConvRepKernel
selectConvRepKernelAvx512(NduOp data_op, Pred p)
{
    return selectConvRepKernelFor<Avx512Lanes>(data_op, p);
}

} // namespace ncore
