/**
 * @file
 * Specialized executor kernels and the decode-time plan builder. See
 * exec_specialized.h for the design and the equivalence guarantee; the
 * authoritative semantics live in machine.cc's generic interpreter and
 * every kernel here must match it bit for bit.
 */

#include "exec_specialized.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bf16.h"
#include "common/saturate.h"
#include "ncore/exec_npu_kernels.h"
#include "ncore/simd.h"

namespace ncore {

namespace {

// --------------------------------------------------------------------
// NPU kernels: the portable instantiation of exec_npu_kernels.h.
// --------------------------------------------------------------------

/**
 * Lane traits with no vector step: every NPU lane runs the scalar
 * tail. The fused conv kernels have no tail, so for them the traits
 * also state the one-lane forms of their primitives.
 */
struct ScalarLanes
{
    static constexpr int kLanes = 1;
    static constexpr int kConvGroups = 1;
    using Vec = int32_t;
    using Mask = bool;

    static Vec load(const int32_t *p) { return *p; }
    static void store(int32_t *p, Vec v) { *p = v; }
    static Vec splat(int32_t x) { return x; }

    template <bool ZOFF>
    static Vec
    widen(const uint8_t *p, int i, Vec z)
    {
        return widenS<ZOFF>(p, i, z);
    }

    template <Pred P>
    static Mask
    pass(const uint8_t *pred)
    {
        return passS<P>(pred, 0);
    }

    static Vec select(Mask m, Vec old, Vec neu) { return m ? neu : old; }
    static Vec min(Vec a, Vec b) { return b < a ? b : a; }
    static Vec max(Vec a, Vec b) { return a < b ? b : a; }

    static Vec
    madd2(Vec acc, Vec a, Vec b)
    {
        return acc + int16_t(a) * int16_t(b) +
               int16_t(uint32_t(a) >> 16) * int16_t(uint32_t(b) >> 16);
    }

    static Vec
    pair16(Vec lo, Vec hi)
    {
        return int32_t((uint32_t(lo) & 0xffff) | (uint32_t(hi) << 16));
    }

    /// A block the compiler vectorizes at the baseline ISA.
    static constexpr int kHalves = 16;

    static void
    widen16(int16_t *__restrict dst, const uint8_t *__restrict src,
            int32_t z)
    {
        for (int i = 0; i < kHalves; ++i)
            dst[i] = int16_t(src[i] - z);
    }
};

/**
 * The NPU kernel of the resolved tier. Every tier covers the same forms
 * (exec_npu_kernels.h), so there is no chain-down here.
 */
NpuKernel
selectNpuKernel(SimdTier tier, const NpuSlot &npu)
{
    switch (tier) {
#if NCORE_SIMD_AVX512VNNI
      case SimdTier::Avx512Vnni: return selectNpuKernelAvx512Vnni(npu);
#endif
#if NCORE_SIMD_AVX512
      case SimdTier::Avx512: return selectNpuKernelAvx512(npu);
#endif
#if NCORE_SIMD_AVX2
      case SimdTier::Avx2: return selectNpuKernelAvx2(npu);
#endif
      default: return selectNpuKernelFor<ScalarLanes>(npu);
    }
}

/** The fused conv kernel of the resolved tier, picked like the NPU one. */
ConvRepKernel
selectConvRepKernel(SimdTier tier, NduOp data_op, Pred p)
{
    switch (tier) {
#if NCORE_SIMD_AVX512VNNI
      case SimdTier::Avx512Vnni:
        return selectConvRepKernelAvx512Vnni(data_op, p);
#endif
#if NCORE_SIMD_AVX512
      case SimdTier::Avx512: return selectConvRepKernelAvx512(data_op, p);
#endif
#if NCORE_SIMD_AVX2
      case SimdTier::Avx2: return selectConvRepKernelAvx2(data_op, p);
#endif
      default: return selectConvRepKernelFor<ScalarLanes>(data_op, p);
    }
}

/**
 * The conv panel fill and guard scan of the resolved tier; VNNI adds
 * nothing to them.
 */
const ConvRepFill *
selectConvRepFill(SimdTier tier)
{
    switch (tier) {
#if NCORE_SIMD_AVX512
      case SimdTier::Avx512Vnni:
      case SimdTier::Avx512: return selectConvRepFillAvx512();
#endif
#if NCORE_SIMD_AVX2
      case SimdTier::Avx2: return selectConvRepFillAvx2();
#endif
      default: return convRepFillFor<ScalarLanes>();
    }
}

// --------------------------------------------------------------------
// Accumulator loads: one kernel for every tier.
// --------------------------------------------------------------------

void
accZeroKern(const ExecCtx &c)
{
    std::memset(c.acc, 0, size_t(c.rb) * sizeof(int32_t));
}

/** AccLoadBias in mode M from the int32 words of row aLo. */
template <BiasMode M>
void
accLoadBiasKern(const ExecCtx &c)
{
    const int quarter = c.rb / 4;
    if constexpr (M == BiasMode::Rep64) {
        int32_t vals[64];
        std::memcpy(vals, c.aLo, sizeof(vals));
        for (int g = 0; g < c.rb / 64; ++g)
            std::memcpy(c.acc + g * 64, vals, sizeof(vals));
    } else if constexpr (biasModeAccumulates(M)) {
        int32_t *dst =
            c.acc + (int(M) - int(BiasMode::AddQuarter0)) * quarter;
        for (int i = 0; i < quarter; ++i) {
            int32_t v;
            std::memcpy(&v, c.aLo + 4 * i, 4);
            dst[i] = satAdd32(dst[i], v);
        }
    } else {
        std::memcpy(c.acc + (int(M) - int(BiasMode::Quarter0)) * quarter,
                    c.aLo, size_t(quarter) * 4);
    }
}

/**
 * The AccZero or AccLoadBias kernel, or null for any other op and for a
 * bias mode the generic interpreter rejects.
 */
NpuKernel
selectAccKernel(const NpuSlot &npu)
{
    if (npu.op == NpuOp::AccZero)
        return &accZeroKern;
    if (npu.op != NpuOp::AccLoadBias)
        return nullptr;
    switch (BiasMode(uint8_t(npu.b))) {
      case BiasMode::Rep64: return &accLoadBiasKern<BiasMode::Rep64>;
      case BiasMode::Quarter0: return &accLoadBiasKern<BiasMode::Quarter0>;
      case BiasMode::Quarter1: return &accLoadBiasKern<BiasMode::Quarter1>;
      case BiasMode::Quarter2: return &accLoadBiasKern<BiasMode::Quarter2>;
      case BiasMode::Quarter3: return &accLoadBiasKern<BiasMode::Quarter3>;
      case BiasMode::AddQuarter0:
        return &accLoadBiasKern<BiasMode::AddQuarter0>;
      case BiasMode::AddQuarter1:
        return &accLoadBiasKern<BiasMode::AddQuarter1>;
      case BiasMode::AddQuarter2:
        return &accLoadBiasKern<BiasMode::AddQuarter2>;
      case BiasMode::AddQuarter3:
        return &accLoadBiasKern<BiasMode::AddQuarter3>;
    }
    return nullptr;
}

// --------------------------------------------------------------------
// OUT kernels
// --------------------------------------------------------------------

/**
 * Requant8 with an activation that needs no LUT: the requantize, then
 * the activation's clamp to [actMin, actMax].
 */
void
outRequant8Kern(const ExecCtx &c)
{
    const RequantEntry &e = *c.rq;
    for (int i = 0; i < c.rb; ++i) {
        int32_t v = std::clamp(e.rq.apply(c.acc[i]), e.actMin, e.actMax);
        c.outLo[i] = uint8_t(v & 0xff);
    }
}

/** StoreBf16 without an activation. */
void
outStoreBf16Kern(const ExecCtx &c)
{
    for (int i = 0; i < c.rb; ++i) {
        uint16_t bits =
            BFloat16::fromFloat(std::bit_cast<float>(c.acc[i])).bits;
        c.outLo[i] = uint8_t(bits & 0xff);
        c.outHi[i] = uint8_t(bits >> 8);
    }
}

/** CopyAcc32: the accumulator quarter's int32 words, little-endian. */
void
outCopyAcc32Kern(const ExecCtx &c)
{
    std::memcpy(c.outLo, c.acc + c.outParam * (c.rb / 4), size_t(c.rb));
}

/**
 * The scalar OUT kernel for the forms NKL emits (exec_specialized.h),
 * or null: LUT activations, activated StoreBf16, Requant16 and ActOnly8
 * run generic.
 */
OutKernel
selectOutKernel(const OutSlot &out)
{
    switch (out.op) {
      case OutOp::Requant8:
        return out.act == ActFn::Sigmoid || out.act == ActFn::Tanh
                   ? nullptr
                   : &outRequant8Kern;
      case OutOp::StoreBf16:
        return out.act == ActFn::None ? &outStoreBf16Kern : nullptr;
      case OutOp::CopyAcc32: return &outCopyAcc32Kern;
      default: return nullptr;
    }
}

// --------------------------------------------------------------------
// NDU kernels
// --------------------------------------------------------------------

template <NduOp OP>
void
nduKern(const NduCtx &c)
{
    const int rb = c.rb;
    uint8_t *d = c.out;
    if constexpr (OP == NduOp::SplatImm) {
        std::memset(d, c.imm, size_t(rb));
    } else if constexpr (OP == NduOp::WindowGather) {
        const int groups = rb / 64;
        int base = normOffset(c.offset, rb);
        for (int g = 0; g < groups; ++g) {
            int tail = rb - base;
            if (tail >= 64) {
                std::memcpy(d + g * 64, c.a + base, 64);
            } else {
                std::memcpy(d + g * 64, c.a + base, size_t(tail));
                std::memcpy(d + g * 64 + tail, c.a, size_t(64 - tail));
            }
            base += c.stride;
            if (base >= rb)
                base -= rb;
        }
    } else if constexpr (OP == NduOp::RepWindow) {
        const int groups = rb / 64;
        uint8_t pattern[64];
        int idx = normOffset(c.offset, rb);
        for (int j = 0; j < 64; ++j) {
            pattern[j] = c.a[idx];
            idx += c.stride;
            if (idx >= rb)
                idx -= rb;
        }
        for (int g = 0; g < groups; ++g)
            std::memcpy(d + g * 64, pattern, 64);
    } else if constexpr (OP == NduOp::GroupBcast) {
        const int groups = rb / 64;
        int idx = normOffset(c.offset, rb);
        for (int g = 0; g < groups; ++g) {
            std::memset(d + g * 64, c.a[idx], 64);
            idx += c.stride;
            if (idx >= rb)
                idx -= rb;
        }
    } else if constexpr (OP == NduOp::MergeMask) {
        const uint8_t *a = c.a, *b = c.b, *p = c.pred;
        const bool inv = c.predInv;
        for (int i = 0; i < rb; ++i)
            d[i] = ((p[i] != 0) != inv) ? a[i] : b[i];
    } else if constexpr (OP == NduOp::LoadMask) {
        const uint8_t *a = c.a;
        for (int i = 0; i < rb; ++i)
            d[i] = a[i] != 0;
    }
}

/**
 * The scalar NDU kernel for the ops NKL emits (exec_specialized.h), or
 * null: Bypass, Rotate and Compress2 run generic.
 */
NduKernel
selectNduKernel(const NduSlot &slot)
{
    switch (slot.op) {
      case NduOp::SplatImm: return &nduKern<NduOp::SplatImm>;
      case NduOp::WindowGather: return &nduKern<NduOp::WindowGather>;
      case NduOp::RepWindow: return &nduKern<NduOp::RepWindow>;
      case NduOp::GroupBcast: return &nduKern<NduOp::GroupBcast>;
      case NduOp::MergeMask: return &nduKern<NduOp::MergeMask>;
      case NduOp::LoadMask: return &nduKern<NduOp::LoadMask>;
      default: return nullptr;
    }
}

// --------------------------------------------------------------------
// Plan building
// --------------------------------------------------------------------

/** Decode-time twin of Machine::resolveSrc; null instead of panicking. */
const uint8_t *
resolvePtr(const PlanBindings &b, RowSrc s)
{
    switch (s) {
      case RowSrc::DataRead: return b.dataLo;
      case RowSrc::WeightRead: return b.weightLo;
      case RowSrc::Imm: return b.immRow;
      case RowSrc::N0: return b.n[0];
      case RowSrc::N1: return b.n[1];
      case RowSrc::N2: return b.n[2];
      case RowSrc::N3: return b.n[3];
      case RowSrc::OutLo: return b.outLo;
      case RowSrc::OutHi: return b.outHi;
      case RowSrc::DataReadHi: return b.dataHi;
      case RowSrc::WeightReadHi: return b.weightHi;
      case RowSrc::None: return nullptr;
    }
    return nullptr;
}

/** Decode-time twin of Machine::resolveSrcHi. */
const uint8_t *
resolveHiPtr(const PlanBindings &b, RowSrc s)
{
    switch (s) {
      case RowSrc::DataRead: return b.dataHi;
      case RowSrc::WeightRead: return b.weightHi;
      case RowSrc::N0: return b.n[1];
      case RowSrc::N2: return b.n[3];
      case RowSrc::OutLo: return b.outHi;
      default: return nullptr;
    }
}

bool
nduUsesHi(const NduSlot &n)
{
    return n.op != NduOp::None &&
           (n.srcA == RowSrc::DataReadHi ||
            n.srcA == RowSrc::WeightReadHi ||
            n.srcB == RowSrc::DataReadHi ||
            n.srcB == RowSrc::WeightReadHi);
}

/**
 * Bind one NDU slot; the kernel stays null (the slot runs generic) for
 * an op without one or an operand that fails to resolve.
 */
void
bindNdu(const NduSlot &slot, const PlanBindings &b, uint32_t ctrl_imm,
        NduCtx &c, NduKernel &kern, SimdTier simd)
{
    kern = selectNduKernel(slot);
    if (!kern)
        return;
    c.rb = b.rb;
    c.imm = uint8_t(ctrl_imm & 0xff);
    c.stride = nduStrideBytes(NduStride(slot.param & 7));
    bool needs_a = slot.op != NduOp::SplatImm;
    bool needs_b = slot.op == NduOp::MergeMask;
    c.a = resolvePtr(b, slot.srcA);
    c.b = resolvePtr(b, slot.srcB);
    if ((needs_a && !c.a) || (needs_b && !c.b)) {
        kern = nullptr;
        return;
    }
    if (slot.op == NduOp::LoadMask) {
        c.finalDst = b.pred[slot.dst & 1];
        c.out = c.finalDst; // Predicate rows never alias row sources.
    } else {
        c.finalDst = b.n[slot.dst & 3];
        bool aliased = (needs_a && c.a == c.finalDst) ||
                       (needs_b && c.b == c.finalDst);
        c.out = aliased ? b.scratch : c.finalDst;
    }
    if (slot.op == NduOp::MergeMask) {
        c.pred = b.pred[slot.param & 1];
        c.predInv = (slot.param & 2) != 0;
    }
    if (simd != SimdTier::Scalar)
        if (NduKernel v = simdSelectNdu(simd, slot))
            kern = v;
}

/** True if RowSrc `s` names N register `idx` (0..3). */
bool
srcIsN(RowSrc s, int idx)
{
    return idx >= 0 && s == RowSrc(int(RowSrc::N0) + idx);
}

/**
 * The conv-Rep shape NKL's repMac emits (nkl/kernels.cc): a Rep of at
 * least two taps that reads a data and a weight row without
 * post-increment, gathers the data row with a GroupBcast or
 * WindowGather and replicates the weight row with a RepWindow (both
 * with addrInc), and u8-MACs the two NDU results into the
 * accumulators, under any predicate, with no OUT op or write-back.
 */
bool
isConvRep(const Instruction &in, const ExecPlan &p)
{
    if (in.ctrl.op != CtrlOp::Rep || in.ctrl.imm < 2)
        return false;
    if (!in.dataRead.enable || in.dataRead.postInc ||
        !in.weightRead.enable || in.weightRead.postInc ||
        in.write.enable || in.out.op != OutOp::None)
        return false;
    const NduSlot &d = in.ndu0, &w = in.ndu1;
    if ((d.op != NduOp::GroupBcast && d.op != NduOp::WindowGather) ||
        d.srcA != RowSrc::DataRead || !d.addrInc)
        return false;
    if (w.op != NduOp::RepWindow || w.srcA != RowSrc::WeightRead ||
        !w.addrInc || (w.dst & 3) == (d.dst & 3))
        return false;
    return in.npu.op == NpuOp::Mac && in.npu.type == LaneType::U8 &&
           srcIsN(in.npu.a, d.dst & 3) && srcIsN(in.npu.b, w.dst & 3) &&
           p.npuKernel && p.nduKernel[0] && p.nduKernel[1];
}

} // namespace

ExecPlan
interpreterPlan(const Instruction &in)
{
    ExecPlan p;
    p.usesImm =
        in.ndu0.srcA == RowSrc::Imm || in.ndu0.srcB == RowSrc::Imm ||
        in.ndu1.srcA == RowSrc::Imm || in.ndu1.srcB == RowSrc::Imm ||
        in.npu.a == RowSrc::Imm || in.npu.b == RowSrc::Imm;
    p.wideLatch = (in.npu.op != NpuOp::None &&
                   (in.npu.type == LaneType::I16 ||
                    in.npu.type == LaneType::BF16)) ||
                  nduUsesHi(in.ndu0) || nduUsesHi(in.ndu1);
    return p;
}

ExecPlan
buildExecPlan(const Instruction &in, const PlanBindings &b, SimdTier simd)
{
    ExecPlan p = interpreterPlan(in);

    bindNdu(in.ndu0, b, in.ctrl.imm, p.ndu[0], p.nduKernel[0], simd);
    bindNdu(in.ndu1, b, in.ctrl.imm, p.ndu[1], p.nduKernel[1], simd);

    // NPU and OUT share one operand context.
    ExecCtx &c = p.ctx;
    c.rb = b.rb;
    c.acc = b.acc;
    c.pred0 = b.pred[0];
    c.pred1 = b.pred[1];
    c.outLo = b.outLo;
    c.outHi = b.outHi;
    c.rq = &b.rqTable[in.out.rqIndex];
    c.outParam = in.out.param & 3;

    if (NpuKernel k = selectAccKernel(in.npu)) {
        // AccLoadBias reads its words from row A; AccZero reads nothing.
        c.aLo = resolvePtr(b, in.npu.a);
        if (in.npu.op == NpuOp::AccZero || c.aLo)
            p.npuKernel = k;
    } else if (in.npu.op != NpuOp::None) {
        NpuKernel k = selectNpuKernel(simd, in.npu);
        if (k) {
            bool wide = in.npu.type == LaneType::BF16;
            c.aLo = resolvePtr(b, in.npu.a);
            c.aHi = wide ? resolveHiPtr(b, in.npu.a) : nullptr;
            bool ok = c.aLo && (!wide || c.aHi);
            if (in.npu.op == NpuOp::Mac) {
                c.bLo = resolvePtr(b, in.npu.b);
                c.bHi = wide ? resolveHiPtr(b, in.npu.b) : nullptr;
                ok = ok && c.bLo && (!wide || c.bHi);
            }
            if (ok)
                p.npuKernel = k;
        }
    }

    p.outKernel = selectOutKernel(in.out);
    if (p.outKernel && simd != SimdTier::Scalar)
        if (OutKernel v = simdSelectOut(simd, in.out))
            p.outKernel = v;
    if (isConvRep(in, p)) {
        p.convRep = selectConvRepKernel(simd, in.ndu0.op, in.npu.pred);
        p.convFill = selectConvRepFill(simd);
    }
    return p;
}

} // namespace ncore
