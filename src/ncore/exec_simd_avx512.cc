/**
 * @file
 * AVX-512 instantiation of the NPU lane kernels, fused conv Rep kernels,
 * panel fill and guard scan (exec_npu_kernels.h) over Avx512Lanes
 * (exec_simd_avx512_lanes.h), plus the AVX-512 OUT requantize kernel,
 * which also serves the avx512vnni tier.
 *
 * Compiled with `-mavx512f -mavx512bw -mavx512vl -mavx512dq
 * -ffp-contract=off` via per-source CMake flags; only reachable through
 * the select*Avx512 entry points, and only after bestSimdTier() proved
 * the host supports those AVX-512 subsets. Its one OUT kernel is
 * Requant8 without a LUT; it has no NDU kernels nor a StoreBf16 of its
 * own: buildExecPlan uses the AVX2 ones there.
 *
 * Bit-identity notes for the requantize (Requant::apply, common/quant.h):
 *
 *  - The product of two int32 values fits int64 exactly, so
 *    `vpmuldq` on the even and odd dwords gives Requant::apply's prod.
 *  - `(prod + nudge) / 2^31`, truncating, equals
 *    `(prod + 2^30) >> 31` with an arithmetic shift for either sign of
 *    prod: for prod >= 0 the nudge is 2^30 and the sum is not
 *    negative; for prod < 0 the sum prod + 1 - 2^30 is negative, and
 *    truncating it is flooring prod + 1 - 2^30 + (2^31 - 1).
 *  - That quotient fits int32 except when acc and the multiplier are
 *    both INT32_MIN, Requant::apply's overflow case.
 */

#include "ncore/exec_simd_avx512_lanes.h"
#include "ncore/simd.h"

namespace ncore {

namespace {

/**
 * Requant::apply on 16 accumulator lanes at a time, its constants set
 * up once per row. The kernel keeps it in a local: a store through the
 * output row pointers could alias the entry, so reading the entry in
 * the loop would reload it after every store.
 */
struct Requant16x
{
    explicit Requant16x(const Requant &q)
        : pre(q.shift < 0), round(q.shift > 0),
          mulMin(q.multiplier == INT32_MIN),
          mul(_mm512_set1_epi64(q.multiplier)),
          lshift(_mm_cvtsi32_si128(pre ? -q.shift : 0)),
          rshift(_mm_cvtsi32_si128(round ? q.shift : 0)),
          mask(_mm512_set1_epi32(round ? int32_t((1u << q.shift) - 1) : 0)),
          half(_mm512_set1_epi32(round ? int32_t((1u << (q.shift - 1)) - 1)
                                       : 0)),
          satLo(_mm512_set1_epi32(q.offset < 0 ? INT32_MIN - q.offset
                                               : INT32_MIN)),
          satHi(_mm512_set1_epi32(q.offset > 0 ? INT32_MAX - q.offset
                                               : INT32_MAX)),
          offset(_mm512_set1_epi32(q.offset))
    {
    }

    __m512i
    apply(__m512i x) const
    {
        // vpmuldq reads the low dword of each qword: the even lanes in
        // place, the odd lanes shifted down.
        __m512i xe = x;
        __m512i xo = _mm512_srli_epi64(x, 32);
        if (pre) {
            // Saturating pre-left-shift on sign-extended 64-bit lanes.
            const __m512i mx = _mm512_set1_epi64(INT32_MAX);
            const __m512i mn = _mm512_set1_epi64(INT32_MIN);
            xe = _mm512_sll_epi64(
                _mm512_srai_epi64(_mm512_slli_epi64(x, 32), 32), lshift);
            xo = _mm512_sll_epi64(_mm512_srai_epi64(x, 32), lshift);
            xe = _mm512_min_epi64(_mm512_max_epi64(xe, mn), mx);
            xo = _mm512_min_epi64(_mm512_max_epi64(xo, mn), mx);
        }
        const __m512i nudge = _mm512_set1_epi64(int64_t(1) << 30);
        const __m512i he = _mm512_srai_epi64(
            _mm512_add_epi64(_mm512_mul_epi32(xe, mul), nudge), 31);
        const __m512i ho = _mm512_srai_epi64(
            _mm512_add_epi64(_mm512_mul_epi32(xo, mul), nudge), 31);
        __m512i high = _mm512_mask_blend_epi32(0xaaaa, he,
                                               _mm512_slli_epi64(ho, 32));
        if (mulMin) {
            // The overflow case: x == multiplier == INT32_MIN.
            const __m512i x32 = _mm512_mask_blend_epi32(
                0xaaaa, xe, _mm512_slli_epi64(xo, 32));
            high = _mm512_mask_mov_epi32(
                high,
                _mm512_cmpeq_epi32_mask(x32, _mm512_set1_epi32(INT32_MIN)),
                _mm512_set1_epi32(INT32_MAX));
        }
        if (round) {
            // Rounding arithmetic right shift.
            const __m512i rem = _mm512_and_si512(high, mask);
            const __m512i thr =
                _mm512_add_epi32(half, _mm512_srli_epi32(high, 31));
            const __m512i sh = _mm512_sra_epi32(high, rshift);
            high = _mm512_mask_add_epi32(sh,
                                         _mm512_cmpgt_epi32_mask(rem, thr),
                                         sh, _mm512_set1_epi32(1));
        }
        // satAdd32(high, offset): clamp so the add cannot leave int32.
        return _mm512_add_epi32(
            _mm512_min_epi32(_mm512_max_epi32(high, satLo), satHi), offset);
    }

    bool pre, round, mulMin;
    __m512i mul;
    __m128i lshift, rshift;
    __m512i mask, half, satLo, satHi, offset;
};

/** Requant8 without a LUT: the requantize, then the clamp. */
void
outRequant8x512(const ExecCtx &c)
{
    const RequantEntry &e = *c.rq;
    const Requant16x rq(e.rq);
    const __m512i mn = _mm512_set1_epi32(e.actMin);
    const __m512i mx = _mm512_set1_epi32(e.actMax);
    const int rb = c.rb;
    int32_t *acc = c.acc;
    uint8_t *lo = c.outLo;
    for (int i = 0; i < rb; i += 16) {
        __m512i v = rq.apply(Avx512Lanes::load(acc + i));
        // std::clamp(v, actMin, actMax), then the low byte.
        v = _mm512_min_epi32(_mm512_max_epi32(v, mn), mx);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(lo + i),
                         _mm512_cvtepi32_epi8(v));
    }
}

} // namespace

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

const ConvRepFill *
selectConvRepFillAvx512()
{
    return convRepFillFor<Avx512Lanes>();
}

OutKernel
selectOutKernelAvx512(const OutSlot &out)
{
    // Only slots with a scalar kernel get here (simd.h), so Requant8
    // has no LUT. StoreBf16 keeps the AVX2 kernel.
    return out.op == OutOp::Requant8 ? &outRequant8x512 : nullptr;
}

} // namespace ncore
