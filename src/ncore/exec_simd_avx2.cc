/**
 * @file
 * AVX2 lane kernels for the specialized execution engine: the AVX2
 * instantiation of the NPU and fused conv Rep kernels, the conv Rep's
 * panel fill and guard scan (exec_npu_kernels.h, 8 int32 lanes per
 * step) plus vector OUT and NDU kernels. Like every tier it covers only
 * the forms NKL emits (exec_specialized.h): the OUT kernels are Requant8
 * without a LUT and StoreBf16 without an activation, the NDU kernels
 * RepWindow, GroupBcast, MergeMask and LoadMask. The NDU kernels and
 * the bf16 store also serve the avx512 and avx512vnni tiers, whose
 * requantize is the AVX-512 one (exec_simd_avx512.cc).
 *
 * This TU is compiled with `-mavx2 -ffp-contract=off` via per-source
 * CMake flags; nothing outside it may call into it except through the
 * selector entry points, and those are only reached when bestSimdTier()
 * proved the host supports AVX2. To keep AVX2 code from leaking into
 * portable COMDAT sections, every helper here lives in an anonymous
 * namespace.
 *
 * Bit-identity note for the OUT requantize (the NPU notes are in
 * exec_npu_kernels.h; the contract is DESIGN.md §5f):
 *
 *  - Requant::apply divides by 2^31 with C++ truncation toward zero;
 *    the vector form uses a 64-bit logical shift + sign fill (floor)
 *    plus a +1 correction on negative non-exact quotients.
 */

#include <immintrin.h>

#include <cstdint>

#include "ncore/exec_npu_kernels.h"
#include "ncore/simd.h"

namespace ncore {

namespace {

inline __m256i
load8u(const uint8_t *p)
{
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
}

/** Store byte 0 of each of the 8 dword lanes to p[0..7]. */
inline void
storeByte0x8(uint8_t *p, __m256i v)
{
    const __m256i pick = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    __m256i t = _mm256_shuffle_epi8(v, pick);
    __m256i r = _mm256_permutevar8x32_epi32(
        t, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
    _mm_storel_epi64(reinterpret_cast<__m128i *>(p),
                     _mm256_castsi256_si128(r));
}

/** Store byte 1 (bits 15:8) of each of the 8 dword lanes to p[0..7]. */
inline void
storeByte1x8(uint8_t *p, __m256i v)
{
    const __m256i pick = _mm256_setr_epi8(
        1, 5, 9, 13, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        1, 5, 9, 13, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    __m256i t = _mm256_shuffle_epi8(v, pick);
    __m256i r = _mm256_permutevar8x32_epi32(
        t, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
    _mm_storel_epi64(reinterpret_cast<__m128i *>(p),
                     _mm256_castsi256_si128(r));
}

/** Lane traits for exec_npu_kernels.h (its file comment lists them). */
struct Avx2Lanes
{
    static constexpr int kLanes = 8;
    /// One group's 8 accumulator vectors: half the 16 ymm registers.
    static constexpr int kConvGroups = 1;
    using Vec = __m256i;
    using FVec = __m256;
    using Mask = __m256i; ///< All-ones dwords in admitted lanes.

    static Vec
    load(const int32_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }

    static void
    store(int32_t *p, Vec v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    static Vec splat(int32_t x) { return _mm256_set1_epi32(x); }

    template <bool ZOFF>
    static Vec
    widen(const uint8_t *p, int i, Vec z)
    {
        Vec v = load8u(p + i);
        if constexpr (ZOFF)
            v = _mm256_sub_epi32(v, z);
        return v;
    }

    template <Pred P>
    static Mask
    pass(const uint8_t *pred)
    {
        Vec z = _mm256_cmpeq_epi32(load8u(pred), _mm256_setzero_si256());
        if constexpr (P == Pred::NotP0)
            return z;
        else
            return _mm256_xor_si256(z, _mm256_set1_epi32(-1));
    }

    static Vec
    select(Mask m, Vec old, Vec neu)
    {
        return _mm256_blendv_epi8(old, neu, m);
    }

    /** Overflow iff sign(a) == sign(b) && sign(a+b) != sign(a). */
    static Vec
    satAdd32(Vec a, Vec b)
    {
        Vec sum = _mm256_add_epi32(a, b);
        Vec ovf = _mm256_andnot_si256(_mm256_xor_si256(a, b),
                                      _mm256_xor_si256(sum, a));
        Vec sat = _mm256_xor_si256(_mm256_srai_epi32(a, 31),
                                   _mm256_set1_epi32(0x7fffffff));
        return _mm256_blendv_epi8(sum, sat, _mm256_srai_epi32(ovf, 31));
    }

    /** satAdd32(acc, a * b); the products fit int32 exactly. */
    static Vec
    macAcc(Vec acc, Vec a, Vec b)
    {
        return satAdd32(acc, _mm256_mullo_epi32(a, b));
    }

    /** acc + a.lo16 * b.lo16 + a.hi16 * b.hi16, without saturation. */
    static Vec
    madd2(Vec acc, Vec a, Vec b)
    {
        return _mm256_add_epi32(acc, _mm256_madd_epi16(a, b));
    }

    /** Low words of `lo` paired with the low words of `hi`. */
    static Vec
    pair16(Vec lo, Vec hi)
    {
        return _mm256_blend_epi16(lo, _mm256_slli_epi32(hi, 16), 0xaa);
    }

    static constexpr int kHalves = 16;

    static void
    widen16(int16_t *dst, const uint8_t *src, int32_t z)
    {
        const __m256i w = _mm256_cvtepu8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(src)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst),
                            _mm256_sub_epi16(w, _mm256_set1_epi16(
                                                    int16_t(z))));
    }

    static Vec min(Vec a, Vec b) { return _mm256_min_epi32(a, b); }
    static Vec max(Vec a, Vec b) { return _mm256_max_epi32(a, b); }

    static FVec
    bf16(const uint8_t *lo, const uint8_t *hi, int i)
    {
        return _mm256_castsi256_ps(
            _mm256_or_si256(_mm256_slli_epi32(load8u(hi + i), 24),
                            _mm256_slli_epi32(load8u(lo + i), 16)));
    }

    static FVec asF(Vec v) { return _mm256_castsi256_ps(v); }
    static Vec asI(FVec f) { return _mm256_castps_si256(f); }
    static FVec fadd(FVec a, FVec b) { return _mm256_add_ps(a, b); }
    static FVec fmul(FVec a, FVec b) { return _mm256_mul_ps(a, b); }

    static FVec
    canonNaN(FVec r)
    {
        return _mm256_blendv_ps(
            r, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fc00000)),
            _mm256_cmp_ps(r, r, _CMP_UNORD_Q));
    }
};

// --------------------------------------------------------------------
// OUT kernels
// --------------------------------------------------------------------

/**
 * Requant::apply on one 4 x int64 half (int32 values sign-extended
 * to 64-bit lanes): optional saturating pre-left-shift, overflow
 * flagging, exact 32x32 multiply, nudge, truncating /2^31.
 * Returns 64-bit lanes whose low dwords hold `high`.
 */
inline __m256i
requantHalf64(__m256i x64, __m256i mul64, int lshift, bool pre_shift)
{
    const __m256i zero = _mm256_setzero_si256();
    if (pre_shift) {
        const __m256i maxv = _mm256_set1_epi64x(INT32_MAX);
        const __m256i minv = _mm256_set1_epi64x(INT32_MIN);
        x64 = _mm256_sll_epi64(x64, _mm_cvtsi32_si128(lshift));
        x64 = _mm256_blendv_epi8(x64, maxv,
                                 _mm256_cmpgt_epi64(x64, maxv));
        x64 = _mm256_blendv_epi8(x64, minv,
                                 _mm256_cmpgt_epi64(minv, x64));
    }
    __m256i ovf = _mm256_and_si256(
        _mm256_cmpeq_epi64(x64, mul64),
        _mm256_cmpeq_epi64(x64, _mm256_set1_epi64x(INT32_MIN)));
    __m256i prod = _mm256_mul_epi32(x64, mul64);
    __m256i nudge = _mm256_blendv_epi8(
        _mm256_set1_epi64x(1 << 30), _mm256_set1_epi64x(1 - (1 << 30)),
        _mm256_cmpgt_epi64(zero, prod));
    __m256i t = _mm256_add_epi64(prod, nudge);
    // Truncate-toward-zero division by 2^31: floor (logical shift +
    // sign fill), then +1 where negative with a nonzero remainder.
    __m256i tneg = _mm256_cmpgt_epi64(zero, t);
    __m256i q = _mm256_or_si256(
        _mm256_srli_epi64(t, 31),
        _mm256_and_si256(tneg,
                         _mm256_set1_epi64x(
                             int64_t(0xFFFFFFFE00000000ull))));
    __m256i frac = _mm256_and_si256(t, _mm256_set1_epi64x(0x7fffffff));
    __m256i fracnz = _mm256_xor_si256(_mm256_cmpeq_epi64(frac, zero),
                                      _mm256_set1_epi64x(-1));
    q = _mm256_add_epi64(
        q, _mm256_and_si256(_mm256_and_si256(tneg, fracnz),
                            _mm256_set1_epi64x(1)));
    return _mm256_blendv_epi8(q, _mm256_set1_epi64x(INT32_MAX), ovf);
}

/** Low dwords of two 4 x int64 vectors packed into one 8 x int32. */
inline __m256i
pack64Lo(__m256i lo, __m256i hi)
{
    const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    __m256i a = _mm256_permutevar8x32_epi32(lo, idx);
    __m256i b = _mm256_permutevar8x32_epi32(hi, idx);
    return _mm256_permute2x128_si256(a, b, 0x20);
}

/** Requant::apply on 8 accumulator lanes (entry fields read per call). */
inline __m256i
requant8x(const Requant &q, __m256i x)
{
    const __m256i mul64 = _mm256_set1_epi64x(q.multiplier);
    const bool pre = q.shift < 0;
    const int lshift = pre ? -q.shift : 0;
    __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(x));
    __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(x, 1));
    lo = requantHalf64(lo, mul64, lshift, pre);
    hi = requantHalf64(hi, mul64, lshift, pre);
    __m256i high = pack64Lo(lo, hi);
    if (q.shift > 0) {
        const int32_t mask = int32_t((1u << q.shift) - 1);
        __m256i rem = _mm256_and_si256(high, _mm256_set1_epi32(mask));
        __m256i thr = _mm256_add_epi32(_mm256_set1_epi32(mask >> 1),
                                       _mm256_srli_epi32(high, 31));
        __m256i round = _mm256_cmpgt_epi32(rem, thr);
        high = _mm256_sub_epi32(
            _mm256_sra_epi32(high, _mm_cvtsi32_si128(q.shift)), round);
    }
    return Avx2Lanes::satAdd32(high, _mm256_set1_epi32(q.offset));
}

/** Requant8 without a LUT: the requantize, then the clamp. */
void
outRequant8V(const ExecCtx &c)
{
    const RequantEntry &e = *c.rq;
    const __m256i mn = _mm256_set1_epi32(e.actMin);
    const __m256i mx = _mm256_set1_epi32(e.actMax);
    const int rb = c.rb;
    for (int i = 0; i < rb; i += 8) {
        __m256i v = requant8x(e.rq, Avx2Lanes::load(c.acc + i));
        storeByte0x8(c.outLo + i,
                     _mm256_min_epi32(_mm256_max_epi32(v, mn), mx));
    }
}

/** StoreBf16 without an activation. */
void
outStoreBf16V(const ExecCtx &c)
{
    const int rb = c.rb;
    for (int i = 0; i < rb; i += 8) {
        // BFloat16::fromFloat: quiet NaNs, round-to-nearest-even.
        __m256i u = Avx2Lanes::load(c.acc + i);
        __m256i isnan = _mm256_cmpgt_epi32(
            _mm256_and_si256(u, _mm256_set1_epi32(0x7fffffff)),
            _mm256_set1_epi32(0x7f800000));
        __m256i nanbits = _mm256_or_si256(_mm256_srli_epi32(u, 16),
                                          _mm256_set1_epi32(0x40));
        __m256i lsb = _mm256_and_si256(_mm256_srli_epi32(u, 16),
                                       _mm256_set1_epi32(1));
        __m256i rnd = _mm256_srli_epi32(
            _mm256_add_epi32(
                u, _mm256_add_epi32(_mm256_set1_epi32(0x7fff), lsb)),
            16);
        __m256i bits = _mm256_blendv_epi8(rnd, nanbits, isnan);
        storeByte0x8(c.outLo + i, bits);
        storeByte1x8(c.outHi + i, bits);
    }
}

// --------------------------------------------------------------------
// NDU kernels (SplatImm and WindowGather already run as wide
// memcpy/memset in the scalar specialized engine; the per-byte loops
// and the per-group pattern/broadcast stores gain vector forms here).
// --------------------------------------------------------------------

/** Store one 64-byte group: lo to d[0..32), hi to d[32..64). */
inline void
store64(uint8_t *d, __m256i lo, __m256i hi)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(d), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(d + 32), hi);
}

// RepWindow and GroupBcast copy c.a and c.stride into locals: a vector
// store may alias the context, so reading them through c would reload
// them after every store.

/** d[g*64 + j] = a[(offset + j*stride) mod rb] for every group g. */
void
nduRepWindowV(const NduCtx &c)
{
    const uint8_t *a = c.a;
    const int rb = c.rb, stride = c.stride;
    int idx = normOffset(c.offset, rb);
    __m256i lo, hi;
    if (stride == 1 && idx + 64 <= rb) {
        lo = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + idx));
        hi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + idx + 32));
    } else {
        alignas(32) uint8_t pattern[64];
        for (int j = 0; j < 64; ++j) {
            pattern[j] = a[idx];
            idx += stride;
            if (idx >= rb)
                idx -= rb;
        }
        lo = _mm256_load_si256(reinterpret_cast<const __m256i *>(pattern));
        hi = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(pattern + 32));
    }
    uint8_t *d = c.out;
    for (int g = 0; g < rb / 64; ++g)
        store64(d + g * 64, lo, hi);
}

/** Group g is 64 copies of a[(offset + g*stride) mod rb]. */
void
nduGroupBcastV(const NduCtx &c)
{
    const uint8_t *a = c.a;
    uint8_t *d = c.out;
    const int rb = c.rb, stride = c.stride;
    const int groups = rb / 64;
    int idx = normOffset(c.offset, rb);
    for (int g = 0; g < groups; ++g) {
        const __m256i v = _mm256_set1_epi8(char(a[idx]));
        store64(d + g * 64, v, v);
        idx += stride;
        if (idx >= rb)
            idx -= rb;
    }
}

void
nduMergeMaskV(const NduCtx &c)
{
    const __m256i zero = _mm256_setzero_si256();
    const int rb = c.rb;
    for (int i = 0; i < rb; i += 32) {
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c.a + i));
        __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c.b + i));
        __m256i pz = _mm256_cmpeq_epi8(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(c.pred + i)),
            zero);
        // d = ((p != 0) != inv) ? a : b.
        __m256i r = c.predInv ? _mm256_blendv_epi8(b, a, pz)
                              : _mm256_blendv_epi8(a, b, pz);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(c.out + i), r);
    }
}

void
nduLoadMaskV(const NduCtx &c)
{
    const __m256i one = _mm256_set1_epi8(1);
    const int rb = c.rb;
    for (int i = 0; i < rb; i += 32) {
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(c.a + i));
        // min_epu8(a, 1) == (a != 0 ? 1 : 0).
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(c.out + i),
                            _mm256_min_epu8(a, one));
    }
}

} // namespace

// --------------------------------------------------------------------
// Selector entry points (the only names visible outside this TU).
// --------------------------------------------------------------------

NpuKernel
selectNpuKernelAvx2(const NpuSlot &npu)
{
    return selectNpuKernelFor<Avx2Lanes>(npu);
}

ConvRepKernel
selectConvRepKernelAvx2(NduOp data_op, Pred p)
{
    return selectConvRepKernelFor<Avx2Lanes>(data_op, p);
}

const ConvRepFill *
selectConvRepFillAvx2()
{
    return convRepFillFor<Avx2Lanes>();
}

OutKernel
selectOutKernelAvx2(const OutSlot &out)
{
    // Only slots with a scalar kernel get here (simd.h): Requant8
    // without a LUT, StoreBf16 without an activation.
    switch (out.op) {
      case OutOp::Requant8: return &outRequant8V;
      case OutOp::StoreBf16: return &outStoreBf16V;
      default: return nullptr; // CopyAcc32 is already a memcpy.
    }
}

NduKernel
selectNduKernelAvx2(const NduSlot &slot)
{
    switch (slot.op) {
      case NduOp::MergeMask: return &nduMergeMaskV;
      case NduOp::LoadMask: return &nduLoadMaskV;
      case NduOp::RepWindow: return &nduRepWindowV;
      case NduOp::GroupBcast: return &nduGroupBcastV;
      default:
        // SplatImm/WindowGather already execute as memcpy/memset in
        // the scalar kernels.
        return nullptr;
    }
}

} // namespace ncore
