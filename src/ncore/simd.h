/**
 * @file
 * Runtime SIMD-tier dispatch for the specialized execution engine.
 *
 * There are four tiers, each needing the ISA of the one below it:
 *
 *  - scalar: portable, in exec_specialized.cc;
 *  - avx2: exec_simd_avx2.cc, built with `-mavx2`;
 *  - avx512: exec_simd_avx512.cc, built with `-mavx512{f,bw,vl,dq}`;
 *  - avx512vnni: exec_simd_avx512vnni.cc, the avx512 flags plus
 *    `-mavx512vnni`. It differs from avx512 only in the integer MAC
 *    step, one `vpdpwssds` instead of mullo plus a saturating add.
 *
 * Only those TUs get the ISA flags, so the rest of the binary stays
 * portable. The NPU lane kernels and the fused conv Rep kernels have
 * one source, exec_npu_kernels.h, written over a lane-traits type and
 * instantiated once per tier (the two AVX-512 TUs share
 * exec_simd_avx512_lanes.h), as do the fused conv Rep's operand-panel
 * fill and saturation guard scan (ConvRepFill; avx512vnni takes the
 * avx512 one). Like the scalar kernels, the tiers cover only the forms
 * NKL emits (exec_specialized.h); the generic interpreter defines and
 * runs every form, those included. Every tier covers the same NPU forms
 * and conv-Rep shape, so buildExecPlan() takes the kernels of the
 * resolved tier directly. The OUT and NDU kernels chain down instead:
 *
 *  - the avx512 TU has the OUT requantize (Requant8 without a LUT),
 *    used at avx512 and avx512vnni;
 *  - the AVX2 TU has the same requantize, the bf16 store without an
 *    activation, and the MergeMask, LoadMask, RepWindow and GroupBcast
 *    NDU ops, used at any tier from avx2 up where no AVX-512 form
 *    exists;
 *  - the rest (CopyAcc32, SplatImm, WindowGather) keeps the scalar
 *    specialized kernel.
 *
 * Tier selection happens once per Machine, through the probe in
 * common/simd_tier.h: Options::simd == Auto honors the NCORE_SIMD env
 * var (`scalar`, `avx2`, `avx512` or `avx512vnni`) and otherwise
 * probes cpuid; explicit requests are clamped to what the host
 * actually supports so a binary built with AVX-512 objects still runs
 * everywhere. The probe has a second user, the gaussian weight fill
 * (common/gaussian_fill.h), which resolves its tier the same way on
 * every fill, so one NCORE_SIMD value forces both down.
 *
 * Bit-identity contract: every vector kernel must match the generic
 * interpreter bit for bit (same RAM bytes, accumulators, predicates,
 * perf counters), exactly like the scalar specialized kernels.
 * tests/fastpath_diff_test.cc diffs the generic interpreter against
 * the specialized engine at every tier the host supports.
 */

#ifndef NCORE_NCORE_SIMD_H
#define NCORE_NCORE_SIMD_H

#include <cstdint>

#include "common/simd_tier.h"
#include "ncore/exec_specialized.h"

namespace ncore {

// SimdTier and its probe (simdTierName, bestSimdTier, parseSimdTier,
// resolveSimdTier) live in common/simd_tier.h.

/**
 * Vector OUT/NDU kernel for `tier`: the AVX-512 OUT kernel at avx512
 * and above where one exists, else the AVX2 kernel at avx2 and above,
 * else null. Null means the op has no vector form (the
 * caller keeps the scalar specialized kernel). The slot must already
 * have a scalar specialized kernel: these selectors assume the scalar
 * selector's validity rules already passed.
 */
OutKernel simdSelectOut(SimdTier tier, const OutSlot &out);
NduKernel simdSelectNdu(SimdTier tier, const NduSlot &slot);

// Per-tier selector entry points, defined in the per-file-flag
// translation units (exec_simd_avx2.cc, exec_simd_avx512.cc,
// exec_simd_avx512vnni.cc). Only buildExecPlan and simdSelectOut/Ndu
// should call these.
#if NCORE_SIMD_AVX2
NpuKernel selectNpuKernelAvx2(const NpuSlot &npu);
ConvRepKernel selectConvRepKernelAvx2(NduOp data_op, Pred p);
const ConvRepFill *selectConvRepFillAvx2();
OutKernel selectOutKernelAvx2(const OutSlot &out);
NduKernel selectNduKernelAvx2(const NduSlot &slot);
#endif
#if NCORE_SIMD_AVX512
NpuKernel selectNpuKernelAvx512(const NpuSlot &npu);
ConvRepKernel selectConvRepKernelAvx512(NduOp data_op, Pred p);
const ConvRepFill *selectConvRepFillAvx512();
OutKernel selectOutKernelAvx512(const OutSlot &out);
#endif
#if NCORE_SIMD_AVX512VNNI
NpuKernel selectNpuKernelAvx512Vnni(const NpuSlot &npu);
ConvRepKernel selectConvRepKernelAvx512Vnni(NduOp data_op, Pred p);
#endif

} // namespace ncore

#endif // NCORE_NCORE_SIMD_H
