/**
 * @file
 * bfloat16: the 16-bit truncated IEEE-754 float used by Ncore as its
 * higher-precision fallback datatype (paper section II-A6). Conversions
 * follow the round-to-nearest-even truncation used by common hardware.
 */

#ifndef NCORE_COMMON_BF16_H
#define NCORE_COMMON_BF16_H

#include <bit>
#include <cstdint>

namespace ncore {

/** A bfloat16 value: the top 16 bits of an IEEE-754 binary32. */
struct BFloat16
{
    uint16_t bits = 0;

    BFloat16() = default;

    /** Build from raw bits. */
    static constexpr BFloat16
    fromBits(uint16_t b)
    {
        BFloat16 v;
        v.bits = b;
        return v;
    }

    /** Convert from float with round-to-nearest-even. */
    static BFloat16
    fromFloat(float f)
    {
        uint32_t u = std::bit_cast<uint32_t>(f);
        // NaN must stay NaN: force the quiet bit and truncate.
        if ((u & 0x7f800000u) == 0x7f800000u && (u & 0x007fffffu) != 0)
            return fromBits(static_cast<uint16_t>((u >> 16) | 0x0040u));
        uint32_t rounding = 0x7fffu + ((u >> 16) & 1u);
        return fromBits(static_cast<uint16_t>((u + rounding) >> 16));
    }

    /** Widen to float (exact). */
    float
    toFloat() const
    {
        return std::bit_cast<float>(static_cast<uint32_t>(bits) << 16);
    }

    bool operator==(const BFloat16 &o) const = default;
};

/**
 * Canonicalize a float arithmetic result the way the NPU's bf16 FPU
 * does: any NaN becomes the standard quiet NaN. IEEE-754 leaves the
 * payload of a propagated NaN unspecified, and compilers may commute
 * fadd operands, so without this the exact accumulator *bits* would
 * depend on how each simulator loop happened to be compiled.
 */
inline float
canonicalizeNaN(float f)
{
    return f != f ? std::bit_cast<float>(0x7fc00000u) : f;
}

} // namespace ncore

#endif // NCORE_COMMON_BF16_H
