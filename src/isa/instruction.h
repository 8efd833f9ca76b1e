/**
 * @file
 * The Ncore instruction set.
 *
 * The paper (IV-D1) describes 128-bit VLIW-like instructions where every
 * instruction executes in a single clock and a convolution inner loop fits
 * in one instruction (Fig. 6). The ISA is not published; this definition
 * contains exactly the primitives the paper names — hardware loop
 * counters, auto-incrementing address registers, the NDU operation set
 * (bypass, rotation, compression, byte broadcasting, masked merge), the
 * NPU operation set (MAC/add/sub/min/max/logical with unsigned-offset
 * handling, saturating 32-bit accumulators, predication, neighbor-slice
 * forwarding) and the OUT unit (requantize + activations) — packed into
 * 128 bits (see encoding.h for the exact bit layout).
 *
 * Architectural row semantics: a "row" is rowBytes() (4096) bytes.
 * 8-bit dtypes have one lane per byte. 16-bit dtypes (int16, bf16) are
 * stored planar: a register/row *pair* holds low bytes in the first row
 * and high bytes in the second (paper IV-C2), giving 4096 16-bit lanes
 * per pair.
 */

#ifndef NCORE_ISA_INSTRUCTION_H
#define NCORE_ISA_INSTRUCTION_H

#include <cstdint>
#include <string>

#include "common/activation.h"

namespace ncore {

/** Row-register sources feeding the NDU (the paper's nine sources, plus
 *  the hi planes of 16-bit planar row pairs). */
enum class RowSrc : uint8_t {
    None = 0,
    DataRead,   ///< Row latched from the data RAM this cycle.
    WeightRead, ///< Row latched from the weight RAM this cycle.
    Imm,        ///< Immediate byte splatted by the sequencer.
    N0, N1, N2, N3, ///< NDU output registers.
    OutLo,      ///< OUT unit low-byte result register.
    OutHi,      ///< OUT unit high-byte result register.
    DataReadHi,   ///< Hi plane of a 16-bit data RAM pair latch.
    WeightReadHi, ///< Hi plane of a 16-bit weight RAM pair latch.
};

/** NDU (neural data unit) operations, paper IV-D3. */
enum class NduOp : uint8_t {
    None = 0,
    Bypass,       ///< dst = srcA.
    Rotate,       ///< Full-row rotate by `param` bytes (signed; <= 64).
    WindowGather, ///< dst[g*64+j] = srcA[(off + g*gstride + j) % 4096].
    RepWindow,    ///< dst[g*64+j] = srcA[(off + j*estride) % 4096].
    GroupBcast,   ///< dst[g*64+j] = srcA[(off + g*gstride) % 4096].
    Compress2,    ///< Per-group: dst[g*64+j] = srcA[g*64 + (2j+ph)%64].
    MergeMask,    ///< dst = maskByte ? srcA : srcB, per byte (mask = P reg).
    SplatImm,     ///< dst = imm byte everywhere.
    LoadMask,     ///< Predicate register <- srcA bytes (nonzero = 1).
};

/**
 * Stride selector for WindowGather / GroupBcast. Encoded as an enum so
 * the field fits 3 bits; these are the strides the byte crossbar of a
 * slice can produce in one clock.
 */
enum class NduStride : uint8_t {
    S0 = 0, ///< 0 bytes (pure broadcast).
    S1,     ///< 1 byte.
    S2,     ///< 2 bytes (stride-2 in planar element space).
    S64,    ///< 64 bytes (one x step of an interleaved row).
    S128,   ///< 128 bytes (stride-2 x step of an interleaved row).
    S256,   ///< 256 bytes (one slice).
};

/** Decode an NduStride to its byte count. */
constexpr int
nduStrideBytes(NduStride s)
{
    switch (s) {
      case NduStride::S0: return 0;
      case NduStride::S1: return 1;
      case NduStride::S2: return 2;
      case NduStride::S64: return 64;
      case NduStride::S128: return 128;
      case NduStride::S256: return 256;
    }
    return 0;
}

/** NPU (neural processing unit) operations, paper IV-D4. */
enum class NpuOp : uint8_t {
    None = 0,
    Mac,        ///< acc += a * b (saturating).
    MacFwd,     ///< acc += fwd(a) * b: operand A from the neighbor slice.
    Add,        ///< acc += a.
    Sub,        ///< acc -= a.
    Min,        ///< acc = min(acc, a).
    Max,        ///< acc = max(acc, a).
    And,        ///< acc &= a.
    Or,         ///< acc |= a.
    Xor,        ///< acc ^= a.
    AccZero,    ///< acc = 0.
    AccLoadBias,///< acc <- int32 words of srcA (BiasMode in b).
    CmpGtP0,    ///< P0 = (a > b) per lane.
    CmpGtP1,    ///< P1 = (a > b) per lane.
};

/** Lane datatype for NPU/OUT operations. */
enum class LaneType : uint8_t {
    I8 = 0,
    U8,      ///< With zero-offset subtraction when enabled (u8 -> s9).
    I16,     ///< Planar pairs; NPU cost 4 clocks.
    BF16,    ///< Planar pairs; float accumulate; NPU cost 3 clocks.
};

/** Predicate selector for conditional accumulation. */
enum class Pred : uint8_t { None = 0, P0, P1, NotP0 };

/** OUT unit operations, paper IV-D5. */
enum class OutOp : uint8_t {
    None = 0,
    Requant8,   ///< acc -> requant -> act -> int8/uint8 row in OutLo.
    Requant16,  ///< acc -> requant -> act -> int16 planar OutLo/OutHi.
    StoreBf16,  ///< float acc -> act -> bf16 planar OutLo/OutHi.
    CopyAcc32,  ///< Raw acc quarter `param` as int32 -> OutLo (debug/partials).
    ActOnly8,   ///< Saturate acc to 8-bit with activation, no rescale.
};

/** Control/sequencer operations (one per instruction). */
enum class CtrlOp : uint8_t {
    None = 0,
    Rep,         ///< Execute this instruction `imm` times total.
    LoopBegin,   ///< Open hardware loop `reg` with count `imm` at next pc.
    LoopEnd,     ///< Close hardware loop `reg` (branch back while count).
    SetAddrRow,  ///< addr[reg].row = imm.
    SetAddrByte, ///< addr[reg].byte = imm.
    SetAddrInc,  ///< addr[reg].{rowInc,byteInc} = (imm>>10, imm&1023) s10.
    SetAddrWrap, ///< addr[reg] circular mode: every `imm` byte-increments
                 ///< the byte offset snaps back and row += rowInc
                 ///< (the paper's "circular buffer addressing modes").
    SetZeroOff,  ///< {dataZero,weightZero} = (imm>>8 & 255, imm & 255).
    DmaKick,     ///< Queue DMA descriptor `imm` on its FIFO queue.
    DmaFence,    ///< Stall until DMA queue `reg` has at most `imm`
                 ///< transfers outstanding (0: the queue drained).
    Event,       ///< Append `imm` to the debug event log (IV-F).
    Halt,        ///< Stop execution; raises the done interrupt.
};

/** Bias load addressing mode for NpuOp::AccLoadBias (in npu.b). */
enum class BiasMode : uint8_t {
    Rep64 = 0, ///< acc[g*64+j] = w32[j]  (64 per-channel biases).
    Quarter0,  ///< acc[0..1023] = w32[0..1023].
    Quarter1,
    Quarter2,
    Quarter3,
    /// acc[q*1024 + i] += w32[i], saturating, for quarter q = mode -
    /// AddQuarter0: folds one accumulator quarter, copied out by
    /// CopyAcc32, into another (the K-split FC's reduction).
    AddQuarter0,
    AddQuarter1,
    AddQuarter2,
    AddQuarter3,
};

/** True for the modes that add into the accumulators instead of
 *  loading them (not idempotent under Rep). */
constexpr bool
biasModeAccumulates(BiasMode m)
{
    return m >= BiasMode::AddQuarter0 && m <= BiasMode::AddQuarter3;
}

/** One address register reference with optional post-increment. */
struct AddrRef
{
    bool enable = false;
    uint8_t reg = 0;     ///< Address register index, 0..7.
    bool postInc = false;

    bool operator==(const AddrRef &) const = default;
};

/** One NDU issue slot. */
struct NduSlot
{
    NduOp op = NduOp::None;
    RowSrc srcA = RowSrc::None;
    RowSrc srcB = RowSrc::None;
    uint8_t dst = 0;        ///< N register index 0..3 (or P reg for LoadMask).
    uint8_t addrReg = 0;    ///< Address register providing the byte offset.
    bool addrInc = false;   ///< Post-increment the address register's byte.
    uint8_t param = 0;      ///< Stride enum / rotate amount / imm / phase.

    bool operator==(const NduSlot &) const = default;
};

/** The NPU issue slot. */
struct NpuSlot
{
    NpuOp op = NpuOp::None;
    LaneType type = LaneType::I8;
    RowSrc a = RowSrc::None;
    RowSrc b = RowSrc::None;
    bool zeroOff = false;   ///< Subtract data/weight zero offsets (u8->s9).
    Pred pred = Pred::None;

    bool operator==(const NpuSlot &) const = default;
};

/** The OUT issue slot. */
struct OutSlot
{
    OutOp op = OutOp::None;
    ActFn act = ActFn::None;
    uint8_t rqIndex = 0; ///< Requant parameter table entry.
    uint8_t param = 0;   ///< Quarter index for CopyAcc32.

    bool operator==(const OutSlot &) const = default;
};

/** RAM write-back slot. */
struct WriteSlot
{
    bool enable = false;
    bool weightRam = false; ///< Target: false = data RAM, true = weight RAM.
    uint8_t addrReg = 0;
    bool postInc = false;
    RowSrc src = RowSrc::None;

    bool operator==(const WriteSlot &) const = default;
};

/** Control slot. */
struct CtrlSlot
{
    CtrlOp op = CtrlOp::None;
    uint8_t reg = 0;   ///< Loop id / address register / queue id.
    uint32_t imm = 0;  ///< 20-bit immediate.

    bool operator==(const CtrlSlot &) const = default;
};

/** A full 128-bit Ncore VLIW instruction. */
struct Instruction
{
    CtrlSlot ctrl;
    AddrRef dataRead;   ///< Data RAM row read (row from addr[reg].row).
    AddrRef weightRead; ///< Weight RAM row read.
    NduSlot ndu0;
    NduSlot ndu1;
    NpuSlot npu;
    OutSlot out;
    WriteSlot write;

    bool operator==(const Instruction &) const = default;

    /** One-line disassembly. */
    std::string toString() const;
};

/** Names for disassembly and debug traces. */
const char *rowSrcName(RowSrc s);
const char *nduOpName(NduOp o);
const char *npuOpName(NpuOp o);
const char *outOpName(OutOp o);
const char *ctrlOpName(CtrlOp o);

// --- VLIW slot introspection (occupancy accounting, disassembly) ----

/** The eight issue slots of one VLIW instruction, in field order. */
enum class IssueSlot : uint8_t {
    Ctrl = 0,
    DataRead,
    WeightRead,
    Ndu0,
    Ndu1,
    Npu,
    Out,
    Write,
};
inline constexpr int kIssueSlots = 8;

/** Snake-case slot name ("ctrl", "data_read", ...). */
const char *issueSlotName(IssueSlot s);

/** Bitmask of populated (non-NOP) slots; bit i == IssueSlot(i). */
constexpr uint32_t
populatedSlots(const Instruction &in)
{
    uint32_t m = 0;
    if (in.ctrl.op != CtrlOp::None)
        m |= 1u << int(IssueSlot::Ctrl);
    if (in.dataRead.enable)
        m |= 1u << int(IssueSlot::DataRead);
    if (in.weightRead.enable)
        m |= 1u << int(IssueSlot::WeightRead);
    if (in.ndu0.op != NduOp::None)
        m |= 1u << int(IssueSlot::Ndu0);
    if (in.ndu1.op != NduOp::None)
        m |= 1u << int(IssueSlot::Ndu1);
    if (in.npu.op != NpuOp::None)
        m |= 1u << int(IssueSlot::Npu);
    if (in.out.op != OutOp::None)
        m |= 1u << int(IssueSlot::Out);
    if (in.write.enable)
        m |= 1u << int(IssueSlot::Write);
    return m;
}

/** True when no body slot does any work (sequencer-only instruction:
 *  every cycle it costs is control/loop overhead, not issue). */
constexpr bool
bodyEmpty(const Instruction &in)
{
    return (populatedSlots(in) & ~(1u << int(IssueSlot::Ctrl))) == 0;
}

} // namespace ncore

#endif // NCORE_ISA_INSTRUCTION_H
