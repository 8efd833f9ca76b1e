/**
 * @file
 * Pre-decoded specialized execution engine for the Ncore simulator.
 *
 * The generic interpreter in machine.cc dispatches a switch per lane
 * (widenLane on LaneType, predPass on Pred) across all 4096 lanes of
 * every NPU instruction, and re-resolves row sources per slot per rep.
 * For whole-model profiling runs that is the dominant cost of the
 * repository's evaluation harness.
 *
 * This engine classifies each instruction once, when writeIram, loadRom
 * or reset decodes its slot, and binds a specialized executor per issue
 * slot. A plan depends only on the decoded instruction, the Machine's
 * fixed row and register bindings and its tier, so writeIram keeps the
 * plans it built in a per-Machine table keyed by the 16-byte encoding
 * and copies them on every later IRAM refill that loads the same word
 * (Machine::kPlanTableEntries bounds it; reaching the bound clears it).
 *
 * Coverage: the engine is a speed layer over the generic interpreter,
 * which defines and runs every ISA form. It has kernels only for the
 * forms NKL emits: the NPU's u8 Mac, Add and Max and bf16 Mac (every
 * predicate and zero-offset setting), AccZero and AccLoadBias; the OUT
 * unit's Requant8 without a LUT, StoreBf16 without an activation and
 * CopyAcc32; the NDU's GroupBcast, RepWindow, WindowGather, MergeMask,
 * LoadMask and SplatImm. Any other slot gets a null kernel and runs
 * through execNpu/execOut/execNdu (DESIGN.md §5b lists the forms with
 * their step counts).
 *
 *  - NPU kernels are template instantiations over {form, Pred, zeroOff},
 *    so the per-lane switches vanish. They are written once, in
 *    exec_npu_kernels.h, over a lane-traits type, and instantiated four
 *    times: portable scalar (here), AVX2, AVX-512 and AVX-512 VNNI
 *    (ncore/simd.h). AccZero and each AccLoadBias mode have one
 *    tier-independent kernel (here).
 *  - NDU kernels are instantiated per NduOp with the `% rowBytes`
 *    modulo arithmetic replaced by normalize-once-then-wrap indexing,
 *    and write directly to their destination register when the decoder
 *    proves the destination cannot alias a source (skipping the
 *    scratch-row round trip).
 *
 * Row-register and accumulator storage never reallocates over a
 * Machine's lifetime, so every operand pointer is bound into the plan
 * at decode time; only the few runtime-variant inputs (address-register
 * byte offsets, zero offsets) are refreshed per call.
 *
 * A CtrlOp::Rep runs its body once per repetition through the bound
 * kernels unless the plan marks the *conv-Rep* shape (ExecPlan::convRep),
 * the single-instruction accumulation loop NKL emits for every
 * convolution and FC (repMac in nkl/kernels.cc): a Rep of at least two
 * taps that reads a data and a weight row without post-increment,
 * gathers the data row with GroupBcast or WindowGather and replicates
 * the weight row with RepWindow (both stepping their address register),
 * and u8-MACs the two NDU results under any predicate and either
 * zero-offset setting, with no OUT op or write-back. Machine::step runs
 * such a Rep as one blocked GEMM (Machine::execConvRepFast):
 *
 *  1. Walk the addressing in closed form. Both NDU address registers
 *     are affine between wraps, so the Rep splits into segments in
 *     which neither register wraps and both read rows stay fixed: a
 *     segment is min(wrapCount - iter) taps of the two registers, and
 *     tap i of it reads byte b + i * byteInc. Each segment reads its
 *     two rows once through SramBank::readRow (the bounds panic fires
 *     at the same tap, with the same message, as a per-tap read), and
 *     the registers' end state is written directly. Where the closed
 *     form does not hold or would hide an effect, the Rep runs per rep
 *     instead: an ECC-modeled RAM (every read scrubs and counts), both
 *     NDU slots on one address register (it steps twice per tap),
 *     iter >= wrapCount, or a byte offset that could leave int32 during
 *     the Rep.
 *  2. Fill the operand panels of a chunk of up to ConvPanels::kTaps
 *     taps, a segment at a time, through the tier's ConvRepFill
 *     (exec_npu_kernels.h, bound into ExecPlan::convFill): weights as
 *     i16 tap pairs per lane, both taps of a pair in one pass, straight
 *     from the row when a segment's windows lie in it at a fixed step
 *     (RepWindow stride 1, no window past the row end); GroupBcast data
 *     per group contiguous over taps, one widened run per group for a
 *     stretch of consecutive bytes of one row (byteInc 1), wrapping at
 *     the row end; WindowGather rows and offsets.
 *  3. Run the tier's kernel (exec_npu_kernels.h), which keeps a tile
 *     of accumulators in registers across every tap of the chunk and
 *     applies two taps per `vpmaddwd`/`vpdpwssd`, without saturation;
 *     lanes the predicate rejects keep their old value.
 *  4. Leave the per-rep end state: the last tap's latched rows and NDU
 *     rows and the stepped address registers. Machine::step counts the
 *     Rep's work as it does for every instruction.
 *
 * Pairing taps is exact only when no partial sum can saturate, so a
 * guard checks max|acc| + reps * 255^2 <= INT32_MAX once per Rep and
 * falls back to the per-rep path when it fails. The scan over the 4096
 * accumulators is the tier's accMaxAbs (exec_npu_kernels.h, bound in
 * ExecPlan::convFill with the fill): lane-wise min and max, then
 * max(hi, -lo) in int64, so INT32_MIN counts as 2^31 rather than
 * wrapping the way a lane |x| would.
 *
 * Equivalence guarantee: both engines run one body, Machine::execBody,
 * which runs a slot's bound kernel when its plan has one and the
 * interpreter function otherwise. The generic engine's plans
 * (interpreterPlan) bind no kernels. For any program the interpreter
 * executes without a fault, the kernels leave bit-identical RAM
 * contents, accumulators, predicates, N/OUT registers and ECC counters
 * (enforced by tests/fastpath_diff_test on random programs and
 * directed cases). Perf counters and cycles are counted once per
 * retired instruction by Machine::step, whichever engine ran it.
 * Constructing with Machine::Options{ExecEngine::Generic} (or
 * `ncore_prof --engine=generic`) forces the generic path.
 */

#ifndef NCORE_NCORE_EXEC_SPECIALIZED_H
#define NCORE_NCORE_EXEC_SPECIALIZED_H

#include <cstdint>

#include "common/quant.h"
#include "common/simd_tier.h"
#include "isa/instruction.h"

namespace ncore {

/**
 * Operand context for the NPU and OUT kernels of one decoded
 * instruction. All pointers are bound at decode time; zA/zB (the u8
 * zero offsets, architecturally mutable via CtrlOp::SetZeroOff) are
 * refreshed by the caller before each NPU kernel invocation.
 */
struct ExecCtx
{
    int rb = 0; ///< Lanes (row bytes).
    int32_t *acc = nullptr;
    const uint8_t *aLo = nullptr, *aHi = nullptr;
    const uint8_t *bLo = nullptr, *bHi = nullptr;
    const uint8_t *pred0 = nullptr, *pred1 = nullptr;
    int32_t zA = 0, zB = 0; ///< Data/weight zero offsets (runtime).
    // OUT unit bindings.
    uint8_t *outLo = nullptr, *outHi = nullptr;
    const RequantEntry *rq = nullptr;
    int outParam = 0; ///< CopyAcc32 quarter.
};

/**
 * Operand context for one NDU issue slot. `out` is where the kernel
 * writes: the destination register itself when the decoder proved no
 * aliasing, else a scratch row the caller copies to `finalDst`.
 * `offset` (the addressing register's byte field) is refreshed by the
 * caller before each invocation.
 */
struct NduCtx
{
    int rb = 0;
    const uint8_t *a = nullptr, *b = nullptr;
    uint8_t *out = nullptr;
    uint8_t *finalDst = nullptr;
    const uint8_t *pred = nullptr; ///< MergeMask predicate row.
    bool predInv = false;
    int offset = 0;  ///< addr[reg].byte at execution time.
    int stride = 0;  ///< Decoded stride bytes.
    uint8_t imm = 0; ///< SplatImm byte (ctrl.imm & 0xff).
};

/**
 * Operand panels of one chunk of a fused conv Rep (see
 * ExecPlan::convRep). The Machine fills them segment by segment through
 * the tier's ConvRepFill; a tap is one repetition. Values are u8 lanes
 * minus their zero offset (zero when the slot has none), so each fits in
 * i16, and taps 2p and 2p+1 share one dword as an i16 pair (2p in the
 * low half). An odd chunk's last weight pair has zero high halves, so
 * whatever the data pairs hold there adds nothing.
 */
struct ConvPanels
{
    static constexpr int kTaps = 512;          ///< Taps per chunk.
    static constexpr int kPairs = kTaps / 2;
    /// Halves from one group's data to the next: padded past kTaps so
    /// that a tap's stores to every group do not share a few L1 sets.
    static constexpr int kGroupStride = kTaps + 32;
    int taps = 0;        ///< Taps in this chunk, 1..kTaps.
    int groupStride = 0; ///< NDU0 group stride in bytes.
    /// wt[p * 64 + j]: RepWindow lane j of taps 2p, 2p+1 (kPairs * 64).
    int32_t *wt = nullptr;
    /// GroupBcast: data[g * kGroupStride + k] is group g's value of tap
    /// k, so taps 2p and 2p+1 form one i16 pair (one row's groups *
    /// kGroupStride). Unused for WindowGather.
    int16_t *data = nullptr;
    /// WindowGather: each tap's data row and normalized window offset
    /// (the kernel subtracts ExecCtx::zA itself). Unused for GroupBcast.
    const uint8_t *rows[kTaps] = {};
    int offs[kTaps] = {};
};

using NpuKernel = void (*)(const ExecCtx &);
using OutKernel = void (*)(const ExecCtx &);
using NduKernel = void (*)(const NduCtx &);
/// Adds one chunk of a fused conv Rep into ExecCtx::acc.
using ConvRepKernel = void (*)(const ExecCtx &, const ConvPanels &);
/// max|acc[i]| over i < n, in int64: the fused conv Rep's guard scan.
using AccMaxAbsKernel = int64_t (*)(const int32_t *acc, int n);

/**
 * One tier's operand-panel fill and guard scan for the fused conv Rep
 * (exec_npu_kernels.h, instantiated beside the tier's conv kernels).
 */
struct ConvRepFill
{
    /// Weight taps k..k+n-1 of a chunk into ConvPanels::wt: tap k+i's
    /// 64 RepWindow lanes are src[i * step + j] - z.
    void (*weightTaps)(int32_t *wt, int k, int n, const uint8_t *src,
                       int step, int32_t z);
    /// GroupBcast data of taps k..k+n-1, which read n consecutive
    /// bytes of `row` from `off` < rb: group g's values start at
    /// (off + g * gs) mod rb and wrap at the row end.
    void (*dataRun)(int16_t *data, int k, int n, const uint8_t *row,
                    int off, int gs, int rb, int32_t z);
    AccMaxAbsKernel accMaxAbs;
};

/** Stable row/register pointers of one Machine, for plan binding. */
struct PlanBindings
{
    int rb = 0;
    int32_t *acc = nullptr;
    uint8_t *n[4] = {};
    uint8_t *outLo = nullptr, *outHi = nullptr;
    uint8_t *dataLo = nullptr, *dataHi = nullptr;
    uint8_t *weightLo = nullptr, *weightHi = nullptr;
    uint8_t *immRow = nullptr;
    uint8_t *pred[2] = {};
    uint8_t *scratch = nullptr;
    const RequantEntry *rqTable = nullptr;
};

/**
 * The per-instruction execution plan stored in the decoded shadow. Its
 * pointers bind the owning Machine's rows, registers and tables, so a
 * plan is only ever copied between slots of one Machine.
 */
struct ExecPlan
{
    NpuKernel npuKernel = nullptr; ///< Null: the slot runs execNpu.
    OutKernel outKernel = nullptr;
    NduKernel nduKernel[2] = {nullptr, nullptr};
    ExecCtx ctx;
    NduCtx ndu[2];
    bool usesImm = false;      ///< Any slot reads RowSrc::Imm.
    bool wideLatch = false;    ///< 16-bit planar row-pair latch needed.
    /// Non-null when the instruction has the conv-Rep shape (see the
    /// file comment): the tier's kernel for its NDU0 op and predicate.
    ConvRepKernel convRep = nullptr;
    /// Set with convRep: the same tier's panel fill and guard scan.
    const ConvRepFill *convFill = nullptr;
};

/**
 * The generic engine's plan: no kernel and no convRep, so every slot
 * runs its interpreter function; only the row-latch and immediate-row
 * predicates, which buildExecPlan starts from, are set.
 */
ExecPlan interpreterPlan(const Instruction &in);

/**
 * Classify one decoded instruction and bind its specialized plan.
 * `simd` must be a concrete tier (not Auto; resolve it first via
 * resolveSimdTier in common/simd_tier.h): the NPU kernel, fused conv
 * kernel and guard scan are that tier's instantiation; OUT and NDU
 * slots take the best vector kernel at or below the tier
 * (simdSelectOut/Ndu in ncore/simd.h) and keep the scalar one
 * otherwise, bit-identically either way. A slot whose form has no
 * kernel (file comment) keeps a null one.
 */
ExecPlan buildExecPlan(const Instruction &in, const PlanBindings &b,
                       SimdTier simd = SimdTier::Scalar);

} // namespace ncore

#endif // NCORE_NCORE_EXEC_SPECIALIZED_H
