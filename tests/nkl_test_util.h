/**
 * @file
 * Shared helpers for NKL kernel tests: a mini-harness that places
 * layouts in Ncore RAM by hand (the GCL does this in production),
 * runs arbitrarily long programs (the Machine streams them through the
 * double-buffered IRAM), and round-trips tensors through the internal
 * layouts.
 */

#ifndef NCORE_TESTS_NKL_TEST_UTIL_H
#define NCORE_TESTS_NKL_TEST_UTIL_H

#include <vector>

#include "common/machine.h"
#include "ncore/machine.h"
#include "nkl/kernels.h"
#include "nkl/layout.h"
#include "nkl/program.h"

namespace ncore {
namespace testutil {

/** Run a program of any length, plus a halt, streamed through IRAM. */
inline RunResult
runStreamed(Machine &m, std::vector<Instruction> prog)
{
    ProgramBuilder pb;
    pb.instructions() = std::move(prog);
    pb.halt();
    return m.runStreamed(pb.encode(), nullptr, 1ull << 34);
}

/** Write the shared prefix-mask table into data RAM at masks.baseRow. */
inline void
writeMaskTable(Machine &m, const MaskTable &masks)
{
    for (int g = 0; g <= 64; ++g) {
        auto row = prefixMaskRow(g);
        m.hostWriteRow(false, masks.rowFor(g), row.data());
    }
}

/** Host-load an interleaved tensor into data RAM at lay.baseRow. */
inline void
loadInterleaved(Machine &m, const Tensor &t, const TensorLayout &lay)
{
    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    packActivation(t, 0, lay, img.data());
    for (int r = 0; r < lay.rows(); ++r)
        m.hostWriteRow(false, lay.baseRow + r, img.data() +
                                                   size_t(r) * 4096);
}

/** Read an interleaved tensor back out of data RAM. */
inline void
readInterleaved(Machine &m, Tensor &t, const TensorLayout &lay)
{
    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    for (int r = 0; r < lay.rows(); ++r)
        m.hostReadRow(false, lay.baseRow + r,
                      img.data() + size_t(r) * 4096);
    unpackActivation(img.data(), lay, t, 0);
}

/** Host-load a flat (bf16) tensor. */
inline void
loadFlat(Machine &m, const Tensor &t, const TensorLayout &lay)
{
    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    packFlat(t, 0, lay, img.data());
    for (int r = 0; r < lay.rows(); ++r)
        m.hostWriteRow(false, lay.baseRow + r,
                       img.data() + size_t(r) * 4096);
}

inline void
readFlat(Machine &m, Tensor &t, const TensorLayout &lay)
{
    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    for (int r = 0; r < lay.rows(); ++r)
        m.hostReadRow(false, lay.baseRow + r,
                      img.data() + size_t(r) * 4096);
    unpackFlat(img.data(), lay, t, 0);
}

/** Host-load a weight image into weight RAM at base_row. */
inline void
loadWeights(Machine &m, const std::vector<uint8_t> &img, int base_row)
{
    for (size_t r = 0; r * 4096 < img.size(); ++r)
        m.hostWriteRow(true, base_row + int(r),
                       img.data() + r * 4096);
}

} // namespace testutil
} // namespace ncore

#endif // NCORE_TESTS_NKL_TEST_UTIL_H
