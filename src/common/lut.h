/**
 * @file
 * 256-entry activation lookup tables for the OUT unit's sigmoid/tanh
 * path. The table is indexed by the 8-bit input code (uint8 directly;
 * int8 XOR 0x80) and returns the 8-bit output code. The x86 reference
 * kernels run quantized sigmoid/tanh through it; the OUT unit's LUT
 * slots (Machine::writeLut) take the same table.
 */

#ifndef NCORE_COMMON_LUT_H
#define NCORE_COMMON_LUT_H

#include <array>
#include <cstdint>

#include "common/activation.h"
#include "common/quant.h"

namespace ncore {

/**
 * Build the activation LUT mapping quantized input codes to quantized
 * output codes through the real-valued function.
 */
inline std::array<uint8_t, 256>
buildActLut(ActFn fn, const QuantParams &in_qp, const QuantParams &out_qp,
            DType dtype)
{
    std::array<uint8_t, 256> lut{};
    for (int idx = 0; idx < 256; ++idx) {
        int32_t code;
        if (dtype == DType::UInt8)
            code = idx;
        else
            code = int32_t(int8_t(uint8_t(idx) ^ 0x80));
        float real = in_qp.dequantize(code);
        float mapped = applyActF(fn, real);
        int32_t out_code = out_qp.quantize(mapped, dtype);
        lut[size_t(idx)] = uint8_t(out_code & 0xff);
    }
    return lut;
}

} // namespace ncore

#endif // NCORE_COMMON_LUT_H
