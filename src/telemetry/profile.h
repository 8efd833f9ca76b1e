/**
 * @file
 * Microarchitectural cycle profiler: stall attribution, VLIW slot
 * occupancy, and per-layer roofline reports.
 *
 * The trace layer (trace.h) answers *where time goes between layers*;
 * this layer answers *why a kernel takes the cycles it takes* — the
 * substance of the paper's evaluation narrative (IV-C double-buffered
 * IRAM hiding swap latency, DMA/compute overlap, 4096-byte-slice
 * utilization).
 *
 * A `CycleProfile` attaches to a Machine (Machine::setProfile) and
 * accounts EVERY device cycle into one
 * of a set of exclusive buckets as the sequencer retires instructions.
 * The accounting hooks live in the one `Machine::step()` shared by the
 * generic interpreter and the specialized fast path, so bucket values
 * are bit-identical across engines by construction — the conservation
 * invariant (buckets sum exactly to total cycles) is a permanent
 * differential check on the simulator itself. When no profile is
 * attached the Machine does no profiling work at all (one null-pointer
 * test per retired instruction).
 *
 * Above the Machine, `buildProfileReport` joins the profile's mark
 * stream (compiler-emitted layer Event tags plus host-side marks) back
 * through gcl/gir metadata so every graph-IR op gets a cycle budget,
 * achieved-vs-peak MAC utilization and bytes-moved figure — a
 * per-layer roofline — rendered as JSON or human-readable text.
 */

#ifndef NCORE_TELEMETRY_PROFILE_H
#define NCORE_TELEMETRY_PROFILE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "telemetry/stats.h"

namespace ncore {

class Graph;

/**
 * Exclusive cycle-attribution buckets. Every device cycle lands in
 * exactly one bucket:
 *  - Issue: body issue cycles of instructions that do work (any
 *    read/NDU/NPU/OUT/write slot populated), one per rep.
 *  - NpuStretch: the extra clocks of multi-cycle NPU types (bf16
 *    instructions take 3 clocks, int16 take 4, paper IV-D4); the
 *    first clock of such an instruction counts as Issue.
 *  - CtrlSetup: sequencer-only instructions (address-register setup,
 *    zero offsets, DMA kicks, events, halt, pure NOPs).
 *  - LoopOverhead: sequencer-only Rep/LoopBegin/LoopEnd instructions —
 *    the cost of hardware-loop bookkeeping itself.
 *  - DmaFenceStall: cycles a CtrlOp::DmaFence spent waiting for its
 *    DMA queue to drain (8-cycle polling increments).
 *  - IramSwapWait: cycles stalled for an instruction-RAM bank swap.
 *    Architecturally always 0 here: the double-buffered IRAM hides
 *    bank loading entirely (paper IV-C measures exactly this); the
 *    bucket exists so the claim is a measured number, not a comment.
 *  - OutBackpressure: cycles stalled on the OUT unit. Always 0: the
 *    OUT stage completes in the instruction's own clock.
 */
enum class CycleBucket : uint8_t {
    Issue = 0,
    NpuStretch,
    CtrlSetup,
    LoopOverhead,
    DmaFenceStall,
    IramSwapWait,
    OutBackpressure,
};
inline constexpr int kCycleBuckets = 7;

/** Snake-case bucket name ("issue", "dma_fence_stall", ...). */
const char *cycleBucketName(CycleBucket b);

/**
 * Cumulative microarchitectural counter set. All fields are exact
 * integers derived from the retired instruction stream (identical for
 * both exec engines); RAM access counters are per-port row-access
 * issues (a 16-bit planar pair latch counts once), and a conflict is
 * an instruction that reads and writes the same RAM in one clock.
 */
struct ProfileCounters
{
    std::array<uint64_t, kCycleBuckets> buckets{};
    uint64_t instructions = 0; ///< Retired instruction reps.
    uint64_t macOps = 0;       ///< Lane MACs (rowBytes per MAC rep).
    /// Populated-slot issue counts, indexed by IssueSlot.
    std::array<uint64_t, kIssueSlots> slotIssued{};
    /// Row accesses and same-clock read+write conflicts per RAM
    /// ([0] = data RAM, [1] = weight RAM).
    std::array<uint64_t, 2> ramReads{};
    std::array<uint64_t, 2> ramWrites{};
    std::array<uint64_t, 2> ramConflicts{};
    /// DMA byte totals over the profiled window (synchronized from
    /// the engine at every mark and at detach).
    uint64_t dmaBytesRead = 0;
    uint64_t dmaBytesWritten = 0;

    /** Total attributed cycles: the sum of all buckets. */
    uint64_t cycles() const;

    /** Per-field difference `this - base` (cumulative snapshots). */
    ProfileCounters diffFrom(const ProfileCounters &base) const;

    /** Accumulate a delta produced by diffFrom(). */
    void accumulate(const ProfileCounters &d);

    bool operator==(const ProfileCounters &) const = default;
};

/**
 * Subgraph bracket event tags. These are the canonical values; the
 * compiler's CompiledSubgraph::kStartTag/kEndTag alias them so the
 * profiler can interpret loadable event streams without a gcl
 * dependency.
 */
inline constexpr uint32_t kProfileSubgraphStart = 0xffff1;
inline constexpr uint32_t kProfileSubgraphEnd = 0xffff2;

/**
 * One attribution mark: a cumulative counter snapshot taken either at
 * a device CtrlOp::Event (layer tags the compiler emits) or at a
 * host-side Machine::profileMark call (workloads with no graph, e.g.
 * GNMT's per-matmul programs, and runtime program brackets). The
 * report builder attributes inter-mark counter deltas to the
 * innermost open scope, so only deltas matter — attach-time offsets
 * cancel.
 */
struct ProfileMark
{
    uint32_t tag = 0;  ///< Raw device event tag (device marks only).
    std::string name;  ///< Host mark label ("" for device marks).
    bool host = false; ///< Host mark vs device Event.
    bool begin = false; ///< Host marks: scope open vs close.
    /// Host begin marks: MACs the scope's program needs (0: unknown).
    uint64_t usefulMacs = 0;
    uint64_t cycle = 0; ///< Machine cycle count at the mark.
    ProfileCounters at; ///< Cumulative counters at the mark.
};

/**
 * The cycle-exact profiler a Machine drives. Attach with
 * Machine::setProfile; detach (setProfile with nullptr) to finalize
 * the DMA byte totals. One CycleProfile may be
 * attached to at most one Machine at a time; counters accumulate
 * across attachments.
 */
class CycleProfile
{
  public:
    // --- Machine-facing hooks (called by the sequencer) --------------

    /** Bind to a machine: row width + current DMA byte baselines. */
    void attach(int row_bytes, uint64_t dma_read, uint64_t dma_written);

    /** Refresh the DMA byte totals (marks, detach). */
    void syncDma(uint64_t dma_read, uint64_t dma_written);

    /**
     * Account one retired instruction: `reps` executions of
     * `body_cost` clocks each, preceded by `fence_stall` cycles of
     * DMA-fence polling. Called once per Machine::step() with the
     * exact quantities the sequencer charged, so
     * sum(buckets) == Machine cycles over the attached window.
     */
    void onStep(const Instruction &in, uint64_t reps,
                uint64_t body_cost, uint64_t fence_stall);

    /** Snapshot a device CtrlOp::Event mark. */
    void eventMark(uint32_t tag, uint64_t cycle, uint64_t dma_read,
                   uint64_t dma_written);

    /**
     * Snapshot a host-side scope mark (Machine::profileMark). A begin
     * mark with `useful_macs` > 0 opens a kProgramKind row that counts
     * those MACs per enter; other host scopes are kHostKind rows.
     */
    void hostMark(const char *name, bool begin, uint64_t cycle,
                  uint64_t dma_read, uint64_t dma_written,
                  uint64_t useful_macs = 0);

    // --- Results ------------------------------------------------------

    const ProfileCounters &counters() const { return c_; }
    const std::vector<ProfileMark> &marks() const { return marks_; }

    /** Total attributed cycles (== device cycles while attached). */
    uint64_t cycles() const { return c_.cycles(); }

    int rowBytes() const { return rowBytes_; }

    /**
     * Publish the profiler's counters into the unified registry
     * (cycle buckets, slot occupancy, RAM access/conflict counters).
     * Machine::publishStats calls this when a profile is attached.
     */
    void publish(Stats &into) const;

  private:
    ProfileCounters c_;
    std::vector<ProfileMark> marks_;
    int rowBytes_ = 4096;
    uint64_t dmaReadBase_ = 0;
    uint64_t dmaWrittenBase_ = 0;
};

namespace stats {

/** `ncore_cycle_bucket_total{bucket="issue"}`. */
std::string cycleBucketCounter(CycleBucket b);
/** `ncore_slot_issue_total{slot="npu"}`. */
std::string slotIssueCounter(IssueSlot s);
/** `ncore_ram_access_total{ram="data",op="read"}`. */
std::string ramAccessCounter(bool weight_ram, bool write);
/** `ncore_ram_conflicts_total{ram="weight"}`. */
std::string ramConflictCounter(bool weight_ram);

} // namespace stats

/** Report row kind of a host-marked Ncore program that carries its
 *  useful MACs (GNMT's graph-less matmuls). */
inline constexpr const char *kProgramKind = "ncore program";
/** Report row kind of any other host-marked scope. */
inline constexpr const char *kHostKind = "host";

/** One report row: a gir op, a host-marked scope, or a synthetic
 *  overhead row ("(subgraph)" program brackets, "(unattributed)"). */
struct LayerProfile
{
    int node = -1;      ///< gir node id, or -1 for host/synthetic rows.
    std::string name;
    std::string kind;   ///< opKindName / kProgramKind / kHostKind /
                        ///< "overhead".
    uint64_t enters = 0; ///< Times the scope was opened.
    ProfileCounters d;   ///< Exclusive counter deltas of this row.

    uint64_t cycles() const { return d.cycles(); }
    double macUtilPct = 0; ///< Lane-MACs issued vs the rowBytes/cycle peak.
    /// MACs the layer's op needs (Graph::nodeMacs, or the program's
    /// mark, per enter): lane-MACs spent on pads, halos and idle lanes
    /// do not count.
    uint64_t usefulMacs = 0;
    double usefulMacPct = 0; ///< usefulMacs vs the rowBytes/cycle peak.
    uint64_t dramBytes = 0; ///< DMA bytes moved inside this scope.
    uint64_t sramBytes = 0; ///< Scratchpad row-access bytes.
};

/** The per-layer roofline report. */
struct ProfileReport
{
    std::string model;
    /// Execution engine + SIMD kernel tier that produced the profile
    /// (Machine::execDescription(), e.g. "specialized/avx2"); ""
    /// omits the line/field from the renderings. Cycle counts are
    /// engine-invariant; wall-clock anecdotes attached to a report
    /// are not, so reports say what ran them.
    std::string engine;
    double clockHz = 0;
    int rowBytes = 4096;
    ProfileCounters totals;
    /// Sum of the rows' usefulMacs.
    uint64_t usefulMacs = 0;
    /// Cycles no scope claimed (0 when the runtime brackets every
    /// program with marks; asserted by tests).
    uint64_t unattributedCycles = 0;
    /// Rows sorted by cycles, descending (name tie-break).
    std::vector<LayerProfile> rows;

    /** Human-readable report (bucket summary + layer table). */
    std::string text() const;
    /** Deterministic JSON rendering (common/json.h writer). */
    std::string json() const;
};

/**
 * Join a profile's mark stream to gir metadata: walk the marks in
 * order keeping a scope stack (layer events open/close node scopes,
 * subgraph brackets and host marks open/close named scopes) and attribute each inter-mark
 * counter delta to the innermost open scope. `graph` names node rows
 * and supplies op kinds; pass nullptr for graph-less workloads (rows
 * then come from host marks alone).
 */
ProfileReport buildProfileReport(const CycleProfile &prof,
                                 const Graph *graph,
                                 const std::string &model,
                                 double clock_hz);

/** report.json() to a file; returns false on I/O error. */
bool writeProfileJson(const ProfileReport &report,
                      const std::string &path);

} // namespace ncore

#endif // NCORE_TELEMETRY_PROFILE_H
