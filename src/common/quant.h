/**
 * @file
 * Affine quantization parameters and the OUT-unit requantization scheme.
 *
 * The paper (IV-D5) describes requantization of the 32-bit accumulator as
 * "multiplying the accumulator with a range value, shifting the result
 * left or right based on a scale value, and adding an offset value". That
 * is the standard fixed-point multiplier + shift + zero-point scheme also
 * used by TFLite's quantized kernels; we implement exactly that so the
 * Ncore simulator and the x86 reference produce bit-identical results.
 */

#ifndef NCORE_COMMON_QUANT_H
#define NCORE_COMMON_QUANT_H

#include <cstdint>

#include "common/activation.h"
#include "common/dtype.h"
#include "common/saturate.h"

namespace ncore {

/** Affine quantization: real = scale * (q - zeroPoint). */
struct QuantParams
{
    float scale = 1.0f;
    int32_t zeroPoint = 0;

    bool operator==(const QuantParams &) const = default;

    /** Quantize a real value into the given integer type with rounding. */
    int32_t
    quantize(float real, DType t) const
    {
        float q = real / scale + static_cast<float>(zeroPoint);
        int32_t r = static_cast<int32_t>(
            q >= 0 ? q + 0.5f : q - 0.5f);
        switch (t) {
          case DType::Int8: return satNarrow8(r);
          case DType::UInt8: return satNarrowU8(r);
          case DType::Int16: return satNarrow16(r);
          default: return r;
        }
    }

    /** Dequantize an integer code back to a real value. */
    float
    dequantize(int32_t q) const
    {
        return scale * static_cast<float>(q - zeroPoint);
    }
};

/**
 * OUT-unit requantization constants: the "range value" (a positive int32
 * fixed-point multiplier with 31 fractional bits), the "scale value"
 * (a right-shift amount) and the "offset value" (the output zero point).
 */
struct Requant
{
    int32_t multiplier = 1 << 30; // Q0.31 fixed-point, positive.
    int8_t shift = 0;             // > 0: right shift; < 0: left shift.
    int32_t offset = 0;           // Output zero point.

    bool operator==(const Requant &) const = default;

    /**
     * Apply to an accumulator value: rounding doubling high-mul followed
     * by a rounding right shift (or saturating left shift — the paper
     * says the OUT unit shifts "left or right based on a scale value"),
     * then offset. Matches gemmlowp/TFLite semantics bit-for-bit.
     */
    int32_t
    apply(int32_t acc) const
    {
        // Left shifts happen before the multiply (TFLite ordering),
        // avoiding double rounding.
        int32_t x = acc;
        if (shift < 0)
            x = satNarrow32(static_cast<int64_t>(acc) << -shift);
        // Saturating rounding doubling high multiply.
        bool overflow = x == multiplier &&
                        x == std::numeric_limits<int32_t>::min();
        int64_t prod = static_cast<int64_t>(x) * multiplier;
        int32_t nudge = prod >= 0 ? (1 << 30) : (1 - (1 << 30));
        int32_t high = static_cast<int32_t>((prod + nudge) / (1ll << 31));
        if (overflow)
            high = std::numeric_limits<int32_t>::max();
        if (shift > 0) {
            // Rounding arithmetic right shift.
            int32_t mask = int32_t((1u << shift) - 1); // No overflow at 31.
            int32_t rem = high & mask;
            int32_t threshold = (mask >> 1) + (high < 0 ? 1 : 0);
            high = (high >> shift) + (rem > threshold ? 1 : 0);
        }
        return satAdd32(high, offset);
    }
};

/**
 * Compute requantization constants for realMultiplier =
 * inScale * weightScale / outScale, the per-layer rescale factor.
 * realMultiplier must be in (0, 1) for this scheme (guaranteed by
 * sensible scale choices; we normalize otherwise).
 */
Requant computeRequant(float real_multiplier, int32_t out_zero_point);

/**
 * Requantization parameter table entry as programmed into the OUT unit:
 * the fixed-point rescale, the output datatype, and the post-requant
 * clamp range which encodes fused ReLU/ReLU6 in the quantized domain.
 */
struct RequantEntry
{
    Requant rq;
    DType outType = DType::UInt8;
    int32_t actMin = 0;    ///< Post-requant clamp (activation fusion).
    int32_t actMax = 255;
    uint8_t lutId = 0;     ///< Activation LUT slot for sigmoid/tanh ops.

    bool operator==(const RequantEntry &) const = default;
};

/**
 * Build the complete OUT-unit entry for a layer: real multiplier
 * in_scale * w_scale / out_scale, offset = output zero point, clamp
 * range from the fused activation. Shared by the NKL code generator and
 * the x86 reference kernels so both produce bit-identical results.
 */
RequantEntry makeRequantEntry(float real_multiplier,
                              const QuantParams &out_qp, DType out_type,
                              ActFn act);

/**
 * Plan for an exact-integer elementwise add of two quantized tensors:
 * acc = (a - za) * ka + (b - zb) * kb, then one requant. ka/kb are 7-bit
 * positive weights proportional to each input's scale; the entry's
 * multiplier folds the common scale back out. Shared by the NKL kernel
 * generator and the x86 reference so both are bit-identical.
 */
struct AddQuantPlan
{
    int32_t ka = 1;
    int32_t kb = 1;
    RequantEntry entry;
};

AddQuantPlan makeAddPlan(const QuantParams &a_qp, const QuantParams &b_qp,
                         const QuantParams &out_qp, DType out_type,
                         ActFn act);

/** Pick symmetric int8 weight quantization for data in [-absMax, absMax]. */
QuantParams chooseSymmetricInt8(float abs_max);

/** Pick asymmetric uint8 activation quantization for [minVal, maxVal]. */
QuantParams chooseAsymmetricUint8(float min_val, float max_val);

} // namespace ncore

#endif // NCORE_COMMON_QUANT_H
