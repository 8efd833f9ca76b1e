/**
 * @file
 * The Ncore cycle-level simulator.
 *
 * This is the "instruction simulator ... developed as the golden model"
 * the paper itself describes in its design methodology (V-E), rebuilt
 * from the published microarchitecture: a 4096-byte-wide SIMD engine of
 * 16 slices, dual 8 MB scratchpad RAMs with full-row single-cycle access,
 * a double-buffered instruction RAM plus ROM, the NDU/NPU/OUT execution
 * pipeline, concurrent DMA, and the debug features (event log, perf
 * counters, n-step breakpoints).
 *
 * Architectural semantics of one instruction (all within one clock):
 *   1. ctrl slot (address-register setup, loops, DMA kick/fence, ...)
 *   2. data/weight RAM row reads latch into DataRead/WeightRead
 *      (16-bit lane types latch planar row pairs: row and row+1)
 *   3. ndu0 then ndu1 execute (ndu1 sees ndu0's register writes)
 *   4. the NPU updates the 32-bit saturating accumulators
 *   5. the OUT unit derives OutLo/OutHi from the accumulators
 *   6. one RAM row write-back
 *   7. address-register post-increments, loop/rep sequencing
 *
 * Cost: one clock per instruction, except NPU bfloat16 ops (3 clocks)
 * and int16 ops (4 clocks), per paper IV-D4. DMA progresses concurrently
 * and only CtrlOp::DmaFence synchronizes with it.
 */

#ifndef NCORE_NCORE_MACHINE_H
#define NCORE_NCORE_MACHINE_H

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/machine.h"
#include "common/quant.h"
#include "isa/encoding.h"
#include "isa/instruction.h"
#include "ncore/debug.h"
#include "ncore/exec_specialized.h"
#include "ncore/ram.h"
#include "soc/dma.h"
#include "soc/sysmem.h"
#include "telemetry/profile.h"
#include "telemetry/stats.h"

namespace ncore {

/** Which instruction-execution engine a Machine runs. */
enum class ExecEngine : uint8_t
{
    Specialized, ///< Pre-decoded fast path (exec_specialized.h).
    Generic,     ///< Reference interpreter (debug / differential).
};

/**
 * Construction-time Machine knobs (spelled Machine::Options at use
 * sites): engine choice and SIMD tier are fixed for the Machine's
 * lifetime.
 */
struct MachineOptions
{
    ExecEngine execEngine = ExecEngine::Specialized;
    /// SIMD tier of the specialized engine's lane kernels. Auto
    /// honors the NCORE_SIMD env var
    /// (`scalar|avx2|avx512|avx512vnni`, the one place it is read)
    /// and otherwise probes cpuid; explicit
    /// requests are clamped to what the host supports. Ignored (tier
    /// pinned to Scalar) when the generic interpreter is selected.
    SimdTier simd = SimdTier::Auto;
};

/** Result of Machine::run(). */
struct RunResult
{
    StopReason reason = StopReason::Halted;
    uint64_t cycles = 0; ///< Cycles consumed by this run() call.
};

/**
 * Address register: full-row index plus byte offset, each with a step.
 * When wrapCount > 0 the register is in circular-buffer mode: every
 * wrapCount byte-increments the byte offset snaps back to its base and
 * the row index advances by rowInc (paper V-B: "hardware loop counters,
 * circular buffer addressing modes").
 */
struct AddrReg
{
    int32_t row = 0;
    int32_t byte = 0;
    int16_t rowInc = 0;
    int16_t byteInc = 0;
    uint32_t wrapCount = 0;
    uint32_t iter = 0;
};

/** The Ncore coprocessor model. */
class Machine : public RamRowPort
{
  public:
    /// Instructions per IRAM bank: 8 KB double-buffered = 2 x 256
    /// 128-bit instructions (IV-C). The 4 KB ROM holds one bank's
    /// worth. Program-counter map: two IRAM banks then the ROM.
    static constexpr int kBankInstrs = 256;
    static constexpr int kRomBase = 2 * kBankInstrs;
    static constexpr int kPcSpace = 3 * kBankInstrs;
    /// Distinct encodings whose decoded form and plan writeIram keeps
    /// for reuse; reaching the bound empties the table. MobileNet-V1
    /// streams 6,224 distinct encodings and ResNet-50 9,596.
    static constexpr size_t kPlanTableEntries = 16384;

    using Options = MachineOptions;

    Machine(const MachineConfig &cfg, const SocConfig &soc,
            SystemMemory *sysmem = nullptr, bool model_ecc = false,
            const Options &opts = {});
    ~Machine() override;

    const MachineConfig &config() const { return cfg_; }
    int rowBytesInt() const { return cfg_.rowBytes(); }

    // --- Host (x86 core) interface: PCI / memory-mapped accesses -------

    /** Load instructions into IRAM bank 0 or 1 at the given offset. */
    void writeIram(int bank, std::span<const EncodedInstruction> code,
                   int offset = 0);

    /** Host row accesses (row-buffered; no interference modeled). */
    void hostWriteRow(bool weight_ram, int row, const uint8_t *bytes);
    void hostReadRow(bool weight_ram, int row, uint8_t *bytes);

    /** Program one requant table entry (256 entries). */
    void writeRequantEntry(int idx, const RequantEntry &e);

    /** Program one of the four 256-byte activation LUTs. */
    void writeLut(int idx, const std::array<uint8_t, 256> &lut);

    /** Begin execution at pc (IRAM bank 0 starts at 0; ROM at kRomBase). */
    void start(int pc = 0);
    bool running() const { return running_; }

    /**
     * Execute until Halt, a breakpoint, or the cycle budget expires.
     * May be called repeatedly to resume.
     */
    RunResult run(uint64_t max_cycles = ~0ull);

    /**
     * Run a program of any length from pc 0, streamed through the
     * double-buffered IRAM (paper IV-C: "the instruction RAM
     * double-buffering allows instruction RAM loading to not hinder
     * Ncore's latency or throughput"). Both banks are filled, then
     * each bank the pc leaves is reloaded with the next kBankInstrs
     * instructions while any remain; the loading costs no cycles.
     * When `refills` is non-null, the cycle count at each reload is
     * appended to it. `code` need only outlive the call: streaming
     * ends when it returns, whatever the stop reason.
     */
    RunResult runStreamed(std::span<const EncodedInstruction> code,
                          std::vector<uint64_t> *refills = nullptr,
                          uint64_t max_cycles = ~0ull);

    /** Full reset: registers, RAMs, debug state (power-up clear). */
    void reset();

    // --- DMA ------------------------------------------------------------

    DmaEngine &dma() { return *dma_; }
    SystemMemory &sysmem() { return *sysmem_; }

    // --- Debug features (paper IV-F) ------------------------------------

    EventLog &eventLog() { return eventLog_; }
    const PerfCounters &perf() const { return perf_; }
    void clearPerf() { perf_ = PerfCounters{}; }

    /**
     * Publish every hardware counter this Machine owns into the
     * unified registry: perf counters, DMA engine stats, and both
     * SRAM banks' ECC stats (telemetry/stats.h names). Callers
     * snapshot before/after a window and Stats::diffFrom() the two
     * to attribute counters to that window.
     */
    void publishStats(Stats &into) const;

    /** Pause every n cycles (0 disables). */
    void setNStep(uint64_t n) { nStep_ = n; }

    /** Configure the counter-wraparound breakpoint. */
    void
    setWrapBreakpoint(uint32_t initial_offset, bool enabled)
    {
        wrapBp_.counter = initial_offset;
        wrapBp_.enabled = enabled;
    }

    /** ECC statistics and fault injection (tests). */
    SramBank &dataRam() { return dataRam_; }
    SramBank &weightRam() { return weightRam_; }

    /** Run the built-in ROM self-test routine; true on pass. */
    bool selfTest();

    /** Total cycles since reset. */
    uint64_t cycles() const { return perf_.cycles; }

    // --- Execution engine selection --------------------------------------

    /**
     * True when the specialized engine is active (see
     * exec_specialized.h); false for the generic interpreter. Chosen
     * at construction via Options::execEngine. Both engines run one
     * instruction body and count in one step(); the generic engine's
     * plans bind no kernels, so every slot runs the interpreter
     * function that defines it, for debugging and differential
     * testing.
     */
    bool usingFastPath() const { return fastExec_; }

    /**
     * Resolved SIMD kernel tier of the specialized engine (never
     * Auto). SimdTier::Scalar whenever the generic interpreter is
     * active, since it does not run the specialized kernels at all.
     */
    SimdTier simdTier() const { return simdTier_; }

    /**
     * Human-readable engine descriptor for telemetry output:
     * "generic", or "specialized/<tier>" (e.g. "specialized/avx2").
     */
    std::string execDescription() const;

    // --- Microarchitectural profiling (telemetry/profile.h) -------------

    /**
     * Attach (or, with nullptr, detach) the cycle-exact profiler.
     * Every subsequent device cycle is accounted into its exclusive
     * buckets; detaching finalizes the DMA byte totals. Zero cost
     * when detached (one branch per retired instruction).
     */
    void setProfile(CycleProfile *p);

    /**
     * Host-side attribution mark: opens (`begin`) or closes a named
     * scope in the attached profile at the current cycle. A scope
     * opened with `useful_macs` > 0 is a graph-less Ncore program that
     * needs that many MACs per enter (see CycleProfile::hostMark).
     * No-op when no profile is attached.
     */
    void profileMark(const char *name, bool begin,
                     uint64_t useful_macs = 0);

    // --- Architectural state peeks (differential testing / debug) --------

    const std::vector<int32_t> &accState() const { return acc_; }
    const std::vector<uint8_t> &predState(int i) const
    {
        return pred_[i & 1];
    }
    const std::vector<uint8_t> &nRegState(int i) const
    {
        return n_[i & 3];
    }
    const std::vector<uint8_t> &outState(bool hi) const
    {
        return hi ? outHi_ : outLo_;
    }

    /** Taps run as fused conv Reps (exec_specialized.h) since
     *  construction. */
    uint64_t fusedConvTaps() const { return fusedConvTaps_; }

    /** Encodings in writeIram's plan table (< kPlanTableEntries). */
    size_t planTableSize() const { return planTable_.size(); }

    // --- RamRowPort (DMA side) ------------------------------------------

    void dmaWriteRow(bool weight_ram, uint32_t row,
                     const uint8_t *bytes) override;
    void dmaReadRow(bool weight_ram, uint32_t row,
                    uint8_t *bytes) const override;
    uint32_t rowBytes() const override;

  private:
    using Row = std::vector<uint8_t>;

    struct LoopFrame
    {
        int id = 0;
        int startPc = 0;
        uint32_t remaining = 0;
    };

    // Execution helpers.
    uint64_t step();                     ///< Returns cycles consumed.
    void execBody(const Instruction &in, ExecPlan &plan);
    bool execConvRepFast(const Instruction &in, ExecPlan &plan,
                         uint64_t reps);
    void runNduKernel(NduKernel kern, NduCtx &ctx, int offset);
    void execNdu(const NduSlot &slot, uint32_t ctrl_imm);
    void execNpu(const NpuSlot &npu);
    void execOut(const OutSlot &out);
    void execWrite(const WriteSlot &w);
    void latchReads(const Instruction &in, bool wide);
    void bumpByte(int reg);
    void postIncrement(const Instruction &in);
    void advancePc();
    int nextPc(int pc) const;
    bool loadNextSegment(int bank);
    PlanBindings planBindings();
    /// The engine's plan for `in`: buildExecPlan's, or the generic
    /// engine's interpreterPlan.
    ExecPlan planFor(const Instruction &in);

    const uint8_t *resolveSrc(RowSrc s) const;
    const uint8_t *resolveSrcHi(RowSrc s) const;
    uint8_t *nduDst(int idx);
    int32_t widenLane(const uint8_t *lo, const uint8_t *hi, int lane,
                      LaneType t, bool zero_off, bool is_data) const;
    float floatLane(const uint8_t *lo, const uint8_t *hi, int lane) const;
    bool predPass(Pred p, int lane) const;

    void loadRom();

    MachineConfig cfg_;
    SocConfig soc_;
    int rowBytes_;

    SramBank dataRam_;
    SramBank weightRam_;

    std::vector<EncodedInstruction> iram_;   ///< kPcSpace encoded slots.
    std::vector<Instruction> decoded_;       ///< Decoded shadow.
    std::vector<ExecPlan> plans_;            ///< Per-slot exec plans.

    /// A slot's decoded shadow and plan, as writeIram builds them.
    struct DecodedSlot
    {
        Instruction decoded;
        ExecPlan plan;
    };
    struct EncodingHash
    {
        size_t
        operator()(const EncodedInstruction &e) const
        {
            const uint64_t h = (e.lo ^ (e.hi * 0x9e3779b97f4a7c15ull)) *
                               0xbf58476d1ce4e5b9ull;
            return size_t(h ^ (h >> 31));
        }
    };
    /// writeIram's table of the slots it built, keyed by encoding.
    std::unordered_map<EncodedInstruction, DecodedSlot, EncodingHash>
        planTable_;

    // Row registers.
    Row n_[4];
    Row outLo_, outHi_;
    Row dataLo_, dataHi_;
    Row weightLo_, weightHi_;
    Row immRow_;
    Row pred_[2];
    Row nduScratch_; ///< Aliasing-safe NDU compute row (one per Machine).
    std::vector<int32_t> acc_;
    /// Fused conv Rep chunk (specialized engine only): the panels and
    /// the storage their wt/data pointers point into.
    ConvPanels convPanels_;
    std::vector<int32_t> convWt_;
    std::vector<int16_t> convData_;
    uint64_t fusedConvTaps_ = 0;

    std::array<AddrReg, 8> addr_{};
    std::vector<LoopFrame> loopStack_;
    uint8_t dataZeroOff_ = 0;
    uint8_t weightZeroOff_ = 0;

    std::array<RequantEntry, 256> rqTable_{};
    std::array<std::array<uint8_t, 256>, 4> luts_{};

    int pc_ = 0;
    bool running_ = false;
    bool fastExec_ = true; ///< Specialized engine (vs generic interpreter).
    SimdTier simdTier_ = SimdTier::Scalar; ///< Resolved kernel tier.
    CycleProfile *prof_ = nullptr; ///< Cycle profiler (not owned).
    /// Thread that called start(); run() asserts single-thread
    /// affinity per program launch (see run()).
    std::thread::id ownerThread_;

    std::unique_ptr<SystemMemory> ownedMem_;
    SystemMemory *sysmem_;
    std::unique_ptr<DmaEngine> dma_;

    EventLog eventLog_;
    PerfCounters perf_;
    uint64_t nStep_ = 0;
    uint64_t nStepCredit_ = 0;
    WrapBreakpoint wrapBp_;

    /// The program runStreamed() is streaming (empty otherwise), the
    /// index of its first instruction not yet loaded, and where
    /// reload cycles are logged.
    std::span<const EncodedInstruction> stream_;
    size_t streamNext_ = 0;
    std::vector<uint64_t> *refills_ = nullptr;
};

} // namespace ncore

#endif // NCORE_NCORE_MACHINE_H
