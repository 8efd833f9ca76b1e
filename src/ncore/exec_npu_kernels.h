/**
 * @file
 * The specialized engine's NPU lane kernels and fused conv Rep kernels
 * (exec_specialized.h), written once for every SIMD tier.
 *
 * Coverage: there are kernels only for the NPU forms NKL emits, u8 Mac,
 * Add and Max and bf16 Mac, each under every predicate and zero-offset
 * setting (AccZero and AccLoadBias have one tier-independent kernel in
 * exec_specialized.cc). Every other form has none, so buildExecPlan
 * leaves its slot null and machine.cc's generic interpreter, which
 * defines and runs every form, executes it.
 *
 * Each kernel is a template over a lane-traits type `V` that a kernel
 * translation unit defines for its ISA:
 *
 *  - exec_specialized.cc: ScalarLanes, `kLanes == 1`. An NPU kernel's
 *    vector loop is compiled out, so the scalar tail runs every lane;
 *    the conv kernels run on its one-lane primitives. This is the
 *    portable tier.
 *  - exec_simd_avx2.cc (`-mavx2`): 8 int32 lanes per step.
 *  - exec_simd_avx512.cc (`-mavx512*`): 16 int32 lanes per step, with
 *    k-mask predication (traits in exec_simd_avx512_lanes.h).
 *  - exec_simd_avx512vnni.cc (`-mavx512* -mavx512vnni`): the avx512
 *    traits with the integer MAC step as one `vpdpwssds`.
 *
 * A vector traits type supplies, as static members (Vec = int32 lanes,
 * FVec = float lanes, Mask = the predicate form):
 *
 *     kLanes, load, store, splat
 *     widen<ZOFF>(p, i, z)           u8 lanes p[i..] to int32, minus
 *                                    the zero offset z when ZOFF
 *     pass<P>(pred + i)              lanes the predicate admits
 *     select(m, old, neu)            m ? neu : old per lane
 *     macAcc(acc, a, b)              satAdd32(acc, a * b)
 *     satAdd32, min, max
 *     bf16(lo, hi, i), asF, asI      bf16 planar load, bit casts
 *     fadd, fmul, canonNaN
 *
 * The fused conv kernels, their operand-panel fill and their
 * saturation guard (ConvRepFill) use load, store, splat, widen, pass,
 * select, min and max, which ScalarLanes also states, plus:
 *
 *     kConvGroups                    64-lane groups per register tile
 *     madd2(acc, a, b)               acc + a.lo16 * b.lo16
 *                                        + a.hi16 * b.hi16, no
 *                                    saturation (vpmaddwd, vpdpwssd)
 *     pair16(lo, hi)                 low words of lo and hi as i16 pairs
 *     kHalves, widen16(dst, src, z)  dst[0..kHalves) = src[i] - z as
 *                                    i16 (z a u8 zero offset)
 *
 * Linkage: everything below sits in an anonymous namespace, and the
 * traits types live in each TU's own anonymous namespace, so every
 * including TU gets private copies. An AVX-compiled definition can
 * therefore never be picked over the portable one at link time. For
 * the same reason the scalar primitives are stated here instead of
 * calling the common/ header inlines, and nothing here calls a std::
 * function template.
 *
 * Bit-identity notes (the contract: match machine.cc's generic
 * interpreter exactly, DESIGN.md §5f):
 *
 *  - A widened u8 lane, minus its zero offset or not, fits in i16, so
 *    products fit int32 exactly, a 32-bit mullo equals the scalar
 *    multiply, and the VNNI macAcc may use a 16x16 word product.
 *  - bf16 MAC is `fc + fa*fb` as two IEEE operations (mul, then add),
 *    never an FMA: a product in the binary32 subnormal range is
 *    rounded before the add in the generic interpreter. The SIMD TUs
 *    compile with -ffp-contract=off so their scalar tails cannot be
 *    fused either; the portable TU is built in ISO C++ mode, where
 *    GCC's default is already -ffp-contract=off.
 *  - NPU bf16 results are NaN-canonicalized to 0x7fc00000
 *    (common/bf16.h canonicalizeNaN).
 */

#ifndef NCORE_NCORE_EXEC_NPU_KERNELS_H
#define NCORE_NCORE_EXEC_NPU_KERNELS_H

#include <cstdint>

#include "ncore/exec_specialized.h"

namespace ncore {

namespace {

// --------------------------------------------------------------------
// Scalar primitives (must match common/saturate.h and common/bf16.h
// bit for bit). normOffset also serves the NDU kernels of the scalar
// and AVX2 TUs.
// --------------------------------------------------------------------

/** Normalize a byte offset into [0, rb), matching `((x % rb) + rb) % rb`. */
inline int
normOffset(int off, int rb)
{
    int m = off % rb;
    return m < 0 ? m + rb : m;
}

inline int32_t
satAdd32s(int32_t a, int32_t b)
{
    int64_t s = int64_t(a) + int64_t(b);
    if (s > INT32_MAX)
        return INT32_MAX;
    if (s < INT32_MIN)
        return INT32_MIN;
    return int32_t(s);
}

inline float
canonNaN(float f)
{
    if (f != f) {
        const uint32_t q = 0x7fc00000u;
        float r;
        __builtin_memcpy(&r, &q, 4);
        return r;
    }
    return f;
}

/**
 * Planar bf16 lane i as float (exact: bf16 is float's top half). The
 * 16-bit assembly step lets the portable tier's autovectorized loops
 * work on 16-bit lanes before widening.
 */
inline float
bf16Lane(const uint8_t *lo, const uint8_t *hi, int i)
{
    uint16_t bits = uint16_t(lo[i]) | uint16_t(hi[i] << 8);
    uint32_t u = uint32_t(bits) << 16;
    float f;
    __builtin_memcpy(&f, &u, 4);
    return f;
}

/** u8 lane p[i] as int32, minus the zero offset z when ZOFF. */
template <bool ZOFF>
inline int32_t
widenS(const uint8_t *p, int i, int32_t z)
{
    if constexpr (ZOFF)
        return int32_t(p[i]) - z;
    else
        return int32_t(p[i]);
}

/** The predicate row P reads (P0 for None; it is never read then). */
template <Pred P>
inline const uint8_t *
predRow(const ExecCtx &c)
{
    return P == Pred::P1 ? c.pred1 : c.pred0;
}

template <Pred P>
inline bool
passS(const uint8_t *pred, int i)
{
    if constexpr (P == Pred::None)
        return true;
    else if constexpr (P == Pred::NotP0)
        return pred[i] == 0;
    else
        return pred[i] != 0;
}

/** Keep `old` in the lanes predicate P rejects. */
template <class V, Pred P, class Vec>
inline Vec
admit(const uint8_t *pred, int i, Vec old, Vec neu)
{
    if constexpr (P == Pred::None)
        return neu;
    else
        return V::select(V::template pass<P>(pred + i), old, neu);
}

// --------------------------------------------------------------------
// Lane kernels: whole vector steps while they fit, then the scalar tail.
// --------------------------------------------------------------------

/** Mac of u8 (T == U8) or planar bf16 (T == BF16) lanes. */
template <class V, LaneType T, Pred P, bool ZOFF>
void
macLanes(const ExecCtx &c)
{
    const uint8_t *aLo = c.aLo, *aHi = c.aHi;
    const uint8_t *bLo = c.bLo, *bHi = c.bHi;
    const uint8_t *pred = predRow<P>(c);
    const int32_t zA = c.zA, zB = c.zB;
    const int rb = c.rb;
    int32_t *acc = c.acc;
    int i = 0;
    if constexpr (V::kLanes > 1) {
        const auto zAv = V::splat(zA), zBv = V::splat(zB);
        for (; i + V::kLanes <= rb; i += V::kLanes) {
            const auto old = V::load(acc + i);
            typename V::Vec res;
            if constexpr (T == LaneType::BF16) {
                // Two roundings on purpose (file comment).
                auto fa = V::bf16(aLo, aHi, i);
                auto fb = V::bf16(bLo, bHi, i);
                res = V::asI(V::canonNaN(
                    V::fadd(V::asF(old), V::fmul(fa, fb))));
            } else {
                res = V::macAcc(old, V::template widen<ZOFF>(aLo, i, zAv),
                                V::template widen<ZOFF>(bLo, i, zBv));
            }
            V::store(acc + i, admit<V, P>(pred, i, old, res));
        }
    }
    for (; i < rb; ++i) {
        if (!passS<P>(pred, i))
            continue;
        if constexpr (T == LaneType::BF16) {
            float fa = bf16Lane(aLo, aHi, i);
            float fb = bf16Lane(bLo, bHi, i);
            float fc;
            __builtin_memcpy(&fc, &acc[i], 4);
            float r = canonNaN(fc + fa * fb);
            __builtin_memcpy(&acc[i], &r, 4);
        } else {
            acc[i] = satAdd32s(acc[i], widenS<ZOFF>(aLo, i, zA) *
                                           widenS<ZOFF>(bLo, i, zB));
        }
    }
}

/** u8 Add (saturating) or Max of the A operand into the accumulators. */
template <class V, NpuOp OP, Pred P, bool ZOFF>
void
eltLanes(const ExecCtx &c)
{
    const uint8_t *aLo = c.aLo;
    const uint8_t *pred = predRow<P>(c);
    const int32_t zA = c.zA;
    const int rb = c.rb;
    int32_t *acc = c.acc;
    int i = 0;
    if constexpr (V::kLanes > 1) {
        const auto zAv = V::splat(zA);
        for (; i + V::kLanes <= rb; i += V::kLanes) {
            const auto old = V::load(acc + i);
            const auto wa = V::template widen<ZOFF>(aLo, i, zAv);
            typename V::Vec res;
            if constexpr (OP == NpuOp::Add)
                res = V::satAdd32(old, wa);
            else
                res = V::max(old, wa);
            V::store(acc + i, admit<V, P>(pred, i, old, res));
        }
    }
    for (; i < rb; ++i) {
        if (!passS<P>(pred, i))
            continue;
        int32_t wa = widenS<ZOFF>(aLo, i, zA);
        if constexpr (OP == NpuOp::Add)
            acc[i] = satAdd32s(acc[i], wa);
        else
            acc[i] = acc[i] < wa ? wa : acc[i];
    }
}

template <class V, NpuOp OP, LaneType T, Pred P, bool ZOFF>
void
npuKernel(const ExecCtx &c)
{
    if constexpr (OP == NpuOp::Mac)
        macLanes<V, T, P, ZOFF>(c);
    else
        eltLanes<V, OP, P, ZOFF>(c);
}

// --------------------------------------------------------------------
// Selector: form -> predicate -> zero offset.
// --------------------------------------------------------------------

template <class V, NpuOp OP, LaneType T, Pred P>
NpuKernel
pickZ(bool zoff)
{
    if constexpr (T == LaneType::BF16)
        return &npuKernel<V, OP, T, P, false>; // No zero offset on bf16.
    else
        return zoff ? &npuKernel<V, OP, T, P, true>
                    : &npuKernel<V, OP, T, P, false>;
}

template <class V, NpuOp OP, LaneType T>
NpuKernel
pickP(Pred p, bool zoff)
{
    switch (p) {
      case Pred::None: return pickZ<V, OP, T, Pred::None>(zoff);
      case Pred::P0: return pickZ<V, OP, T, Pred::P0>(zoff);
      case Pred::P1: return pickZ<V, OP, T, Pred::P1>(zoff);
      case Pred::NotP0: return pickZ<V, OP, T, Pred::NotP0>(zoff);
    }
    return nullptr;
}

/**
 * The tier-V kernel for `npu`: u8 Mac, Add and Max and bf16 Mac have
 * one (file comment); every other slot gets null and runs generic.
 */
template <class V>
NpuKernel
selectNpuKernelFor(const NpuSlot &npu)
{
    const bool zoff = npu.zeroOff;
    const Pred p = npu.pred;
    if (npu.type == LaneType::BF16)
        return npu.op == NpuOp::Mac
                   ? pickP<V, NpuOp::Mac, LaneType::BF16>(p, zoff)
                   : nullptr;
    if (npu.type != LaneType::U8)
        return nullptr;
    switch (npu.op) {
      case NpuOp::Mac: return pickP<V, NpuOp::Mac, LaneType::U8>(p, zoff);
      case NpuOp::Add: return pickP<V, NpuOp::Add, LaneType::U8>(p, zoff);
      case NpuOp::Max: return pickP<V, NpuOp::Max, LaneType::U8>(p, zoff);
      default: return nullptr;
    }
}

// --------------------------------------------------------------------
// Fused conv Rep kernels (ExecPlan::convRep). The saturation guard in
// Machine::execConvRepFast proves no partial sum of the Rep can leave
// int32, so pairing two taps per madd2 and adding without saturation
// gives exactly the per-rep path's sums.
// --------------------------------------------------------------------

/**
 * The guard's max|acc[i]| over i < n, n a multiple of 64 like every
 * row (ExecPlan::accMaxAbs). It takes the lane-wise min and max and
 * negates the min in int64, so INT32_MIN gives 2^31; a lane |x| would
 * wrap there (vpabsd returns INT32_MIN).
 */
template <class V>
int64_t
accMaxAbs(const int32_t *acc, int n)
{
    constexpr int kL = V::kLanes;
    // Two independent min/max chains.
    auto lo0 = V::splat(0), lo1 = lo0, hi0 = lo0, hi1 = lo0;
    for (int i = 0; i < n; i += 2 * kL) {
        const auto a = V::load(acc + i), b = V::load(acc + i + kL);
        lo0 = V::min(lo0, a);
        hi0 = V::max(hi0, a);
        lo1 = V::min(lo1, b);
        hi1 = V::max(hi1, b);
    }
    int32_t l[2 * kL] = {}, h[2 * kL] = {};
    V::store(l, lo0);
    V::store(l + kL, lo1);
    V::store(h, hi0);
    V::store(h + kL, hi1);
    int32_t mn = 0, mx = 0;
    for (int k = 0; k < 2 * kL; ++k) {
        mn = l[k] < mn ? l[k] : mn;
        mx = h[k] > mx ? h[k] : mx;
    }
    return -int64_t(mn) > int64_t(mx) ? -int64_t(mn) : int64_t(mx);
}

/**
 * GroupBcast chunk over the G groups from g0: lane j of group g gains
 * data[g][tap] * wt[tap][j] summed over the chunk's taps. The G*64
 * accumulator lanes stay in registers across every tap pair; lanes the
 * predicate rejects get their old value back at the store.
 */
template <class V, Pred P, int G>
void
convBcastTile(const ExecCtx &c, const ConvPanels &pn, int g0)
{
    constexpr int kL = V::kLanes;
    constexpr int kVecs = 64 / kL;
    constexpr int kStride = ConvPanels::kGroupStride;
    const int pairs = (pn.taps + 1) / 2;
    const int32_t *wt = pn.wt;
    const int16_t *data = pn.data + g0 * kStride;
    int32_t *acc = c.acc + g0 * 64;
    // The unroll pragmas keep `sum` in registers (kConvGroups sizes it
    // to half the register file).
    typename V::Vec sum[G][kVecs];
#pragma GCC unroll 16
    for (int g = 0; g < G; ++g)
#pragma GCC unroll 16
        for (int t = 0; t < kVecs; ++t)
            sum[g][t] = V::load(acc + g * 64 + t * kL);
    for (int p = 0; p < pairs; ++p) {
        const int32_t *w = wt + p * 64;
#pragma GCC unroll 16
        for (int g = 0; g < G; ++g) {
            int32_t pair;
            __builtin_memcpy(&pair, data + g * kStride + 2 * p, 4);
            const auto d = V::splat(pair);
#pragma GCC unroll 16
            for (int t = 0; t < kVecs; ++t)
                sum[g][t] = V::madd2(sum[g][t], d, V::load(w + t * kL));
        }
    }
    const uint8_t *pred = predRow<P>(c);
#pragma GCC unroll 16
    for (int g = 0; g < G; ++g)
#pragma GCC unroll 16
        for (int t = 0; t < kVecs; ++t) {
            const int i = g * 64 + t * kL;
            V::store(acc + i, admit<V, P>(pred, g0 * 64 + i,
                                          V::load(acc + i), sum[g][t]));
        }
}

template <class V, Pred P>
void
convRepBcast(const ExecCtx &c, const ConvPanels &pn)
{
    constexpr int kG = V::kConvGroups;
    const int groups = c.rb / 64;
    int g0 = 0;
    for (; g0 + kG <= groups; g0 += kG)
        convBcastTile<V, P, kG>(c, pn, g0);
    for (; g0 < groups; ++g0)
        convBcastTile<V, P, 1>(c, pn, g0);
}

/**
 * The 64 data bytes tap k gathers for a group at offset g_off from the
 * tap's window start: a pointer into the row, or `buf` holding the
 * window when it wraps past the row end.
 */
inline const uint8_t *
convWindow(const ConvPanels &pn, int k, int g_off, int rb, uint8_t *buf)
{
    int b = pn.offs[k] + g_off;
    if (b >= rb)
        b -= rb;
    const uint8_t *row = pn.rows[k];
    if (b + 64 <= rb)
        return row + b;
    const int tail = rb - b;
    __builtin_memcpy(buf, row + b, size_t(tail));
    __builtin_memcpy(buf + tail, row, size_t(64 - tail));
    return buf;
}

/**
 * WindowGather chunk: lane j of group g gains
 * (window[tap][g][j] - zA) * wt[tap][j] summed over the chunk's taps,
 * one group's accumulators in registers at a time. An odd chunk pairs
 * its last tap with itself against the zero weight high halves.
 */
template <class V, Pred P>
void
convRepGather(const ExecCtx &c, const ConvPanels &pn)
{
    constexpr int kL = V::kLanes;
    constexpr int kVecs = 64 / kL;
    const int rb = c.rb;
    const int pairs = (pn.taps + 1) / 2;
    const auto z = V::splat(c.zA);
    const uint8_t *pred = predRow<P>(c);
    uint8_t wrapped[2][64] = {};
    int g_off = 0; // g * groupStride, mod rb.
    for (int g = 0; g < rb / 64; ++g) {
        int32_t *acc = c.acc + g * 64;
        typename V::Vec sum[kVecs];
#pragma GCC unroll 16
        for (int t = 0; t < kVecs; ++t)
            sum[t] = V::load(acc + t * kL);
        for (int p = 0; p < pairs; ++p) {
            const int k1 = 2 * p + 1 < pn.taps ? 2 * p + 1 : 2 * p;
            const uint8_t *x = convWindow(pn, 2 * p, g_off, rb, wrapped[0]);
            const uint8_t *y = convWindow(pn, k1, g_off, rb, wrapped[1]);
            const int32_t *w = pn.wt + p * 64;
#pragma GCC unroll 16
            for (int t = 0; t < kVecs; ++t) {
                const auto a = V::pair16(
                    V::template widen<true>(x, t * kL, z),
                    V::template widen<true>(y, t * kL, z));
                sum[t] = V::madd2(sum[t], a, V::load(w + t * kL));
            }
        }
#pragma GCC unroll 16
        for (int t = 0; t < kVecs; ++t) {
            const int i = t * kL;
            V::store(acc + i, admit<V, P>(pred, g * 64 + i,
                                          V::load(acc + i), sum[t]));
        }
        g_off = normOffset(g_off + pn.groupStride, rb);
    }
}

// --------------------------------------------------------------------
// The fused conv Rep's operand-panel fill (ConvRepFill), which
// Machine::execConvRepFast drives a segment of taps at a time.
// --------------------------------------------------------------------

/** dst[0..n) = src[0..n) - z as i16, V::kHalves values per step. */
template <class V>
inline void
widenRun(int16_t *dst, const uint8_t *src, int n, int32_t z)
{
    int i = 0;
    for (; i + V::kHalves <= n; i += V::kHalves)
        V::widen16(dst + i, src + i, z);
    for (; i < n; ++i)
        dst[i] = int16_t(src[i] - z);
}

/**
 * One tap's 64 RepWindow values `src[j] - z` into the i16 pairs
 * dst[0..64): the low half for an even tap, which also clears the high
 * half, the high half for an odd one. An odd chunk's last pair thus
 * has zero high halves, so its data high halves add nothing.
 */
template <class V>
inline void
putWeightTap(int32_t *dst, const uint8_t *src, int32_t z, bool odd)
{
    constexpr int kL = V::kLanes;
    const auto zv = V::splat(z);
    for (int i = 0; i < 64; i += kL) {
        const auto w = V::template widen<true>(src, i, zv);
        V::store(dst + i, odd ? V::pair16(V::load(dst + i), w)
                              : V::pair16(w, V::splat(0)));
    }
}

/** Taps 2p (`x`) and 2p+1 (`y`) into their i16 pairs in one pass. */
template <class V>
inline void
putWeightPair(int32_t *dst, const uint8_t *x, const uint8_t *y, int32_t z)
{
    constexpr int kL = V::kLanes;
    const auto zv = V::splat(z);
#pragma GCC unroll 16
    for (int i = 0; i < 64; i += kL)
        V::store(dst + i,
                 V::pair16(V::template widen<true>(x, i, zv),
                           V::template widen<true>(y, i, zv)));
}

/** ConvRepFill::weightTaps: an odd first tap, whole pairs, an even tail. */
template <class V>
void
convWeightTaps(int32_t *wt, int k, int n, const uint8_t *src, int step,
               int32_t z)
{
    int i = 0;
    if (k & 1) {
        putWeightTap<V>(wt + (k / 2) * 64, src, z, true);
        i = 1;
    }
    for (; i + 2 <= n; i += 2)
        putWeightPair<V>(wt + ((k + i) / 2) * 64, src + i * step,
                         src + (i + 1) * step, z);
    if (i < n)
        putWeightTap<V>(wt + ((k + i) / 2) * 64, src + i * step, z, false);
}

/** ConvRepFill::dataRun: one widened run per group. */
template <class V>
void
convDataRun(int16_t *data, int k, int n, const uint8_t *row, int off,
            int gs, int rb, int32_t z)
{
    for (int g = 0; g < rb / 64; ++g) {
        int16_t *d = data + g * ConvPanels::kGroupStride + k;
        for (int left = n, at = off; left > 0; at = 0) {
            const int m = left < rb - at ? left : rb - at;
            widenRun<V>(d, row + at, m, z);
            d += m;
            left -= m;
        }
        if ((off += gs) >= rb)
            off -= rb;
    }
}

/** The tier-V panel fill and guard scan (ExecPlan::convFill). */
template <class V>
const ConvRepFill *
convRepFillFor()
{
    static constexpr ConvRepFill kFill = {&convWeightTaps<V>,
                                          &convDataRun<V>, &accMaxAbs<V>};
    return &kFill;
}

/** The tier-V fused conv kernel for an NDU0 op and predicate. */
template <class V>
ConvRepKernel
selectConvRepKernelFor(NduOp data_op, Pred p)
{
    const bool gather = data_op == NduOp::WindowGather;
    switch (p) {
      case Pred::None:
        return gather ? &convRepGather<V, Pred::None>
                      : &convRepBcast<V, Pred::None>;
      case Pred::P0:
        return gather ? &convRepGather<V, Pred::P0>
                      : &convRepBcast<V, Pred::P0>;
      case Pred::P1:
        return gather ? &convRepGather<V, Pred::P1>
                      : &convRepBcast<V, Pred::P1>;
      case Pred::NotP0:
        return gather ? &convRepGather<V, Pred::NotP0>
                      : &convRepBcast<V, Pred::NotP0>;
    }
    return nullptr;
}

} // namespace

} // namespace ncore

#endif // NCORE_NCORE_EXEC_NPU_KERNELS_H
