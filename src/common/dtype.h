/**
 * @file
 * Datatype enumeration shared by the whole stack. Ncore natively supports
 * INT8, UINT8, INT16 and BF16 (paper Table I); INT32 is the accumulator
 * type and FP32 exists only on the x86 side (reference execution).
 */

#ifndef NCORE_COMMON_DTYPE_H
#define NCORE_COMMON_DTYPE_H

#include <cstddef>
#include <cstdint>

#include "common/logging.h"

namespace ncore {

/** Element datatypes used across GIR tensors and Ncore RAM contents. */
enum class DType : uint8_t {
    Int8,
    UInt8,
    Int16,
    BFloat16,
    Int32,
    Float32,
};

/** Size in bytes of one element of the given type. */
constexpr size_t
dtypeSize(DType t)
{
    switch (t) {
      case DType::Int8:
      case DType::UInt8:
        return 1;
      case DType::Int16:
      case DType::BFloat16:
        return 2;
      case DType::Int32:
      case DType::Float32:
        return 4;
    }
    return 0;
}

/** Human-readable name. */
constexpr const char *
dtypeName(DType t)
{
    switch (t) {
      case DType::Int8: return "int8";
      case DType::UInt8: return "uint8";
      case DType::Int16: return "int16";
      case DType::BFloat16: return "bf16";
      case DType::Int32: return "int32";
      case DType::Float32: return "fp32";
    }
    return "?";
}

/**
 * NPU operation latency in clocks per the paper (IV-D4): 8-bit ops one
 * clock, bfloat16 three clocks, int16 four clocks.
 */
constexpr int
npuClocksForDtype(DType t)
{
    switch (t) {
      case DType::Int8:
      case DType::UInt8:
        return 1;
      case DType::BFloat16:
        return 3;
      case DType::Int16:
        return 4;
      default:
        return 1;
    }
}

} // namespace ncore

#endif // NCORE_COMMON_DTYPE_H
