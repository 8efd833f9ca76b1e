/**
 * @file
 * Ncore's three configurable debug features (paper IV-F): a 1,024-entry
 * event log that can be written and read without perturbing execution,
 * performance counters with optional breakpoint-at-wraparound, and
 * n-step breakpointing that pauses execution every n clocks.
 */

#ifndef NCORE_NCORE_DEBUG_H
#define NCORE_NCORE_DEBUG_H

#include <array>
#include <cstdint>
#include <vector>

namespace ncore {

/** One logged event: the cycle it was recorded and a program tag. */
struct NcoreEvent
{
    uint64_t cycle = 0;
    uint32_t tag = 0;
};

/** Fixed-capacity circular event log (1,024 entries, paper IV-F). */
class EventLog
{
  public:
    static constexpr size_t kCapacity = 1024;

    void
    record(uint64_t cycle, uint32_t tag)
    {
        ring_[head_ % kCapacity] = NcoreEvent{cycle, tag};
        ++head_;
    }

    /** Events currently retained, oldest first. */
    std::vector<NcoreEvent>
    snapshot() const
    {
        std::vector<NcoreEvent> out;
        size_t n = head_ < kCapacity ? head_ : kCapacity;
        size_t start = head_ - n;
        out.reserve(n);
        for (size_t i = 0; i < n; ++i)
            out.push_back(ring_[(start + i) % kCapacity]);
        return out;
    }

    uint64_t totalRecorded() const { return head_; }
    void clear() { head_ = 0; }

  private:
    std::array<NcoreEvent, kCapacity> ring_{};
    size_t head_ = 0;
};

/**
 * Architecturally visible performance counters. Machine::step() counts
 * each retired instruction once, from its populated slots times its
 * rep count, plus its cycles and DMA-fence stall cycles.
 */
struct PerfCounters
{
    uint64_t cycles = 0;        ///< Clock cycles consumed.
    uint64_t instructions = 0;  ///< Instructions retired (incl. reps).
    uint64_t macOps = 0;        ///< Lane-MACs executed.
    uint64_t nduOps = 0;        ///< NDU slot operations executed.
    uint64_t ramReads = 0;      ///< Full-row RAM reads.
    uint64_t ramWrites = 0;     ///< Full-row RAM writes.
    uint64_t dmaFenceStalls = 0;///< Cycles stalled on DMA fences.
};

/**
 * Counter-wraparound breakpoint config: counting `cycles` from an
 * initial offset, execution pauses when the 32-bit counter wraps
 * (paper: "performance counters can be configured with an initial offset
 * and with breakpointing at counter wraparound").
 */
struct WrapBreakpoint
{
    bool enabled = false;
    uint32_t counter = 0; ///< Current value; breaks when it wraps past 0.
};

/** Why Machine::run() returned. */
enum class StopReason {
    Halted,       ///< The program executed CtrlOp::Halt.
    MaxCycles,    ///< The caller's cycle budget expired.
    NStep,        ///< n-step breakpoint fired.
    CounterWrap,  ///< Performance-counter wraparound breakpoint fired.
};

} // namespace ncore

#endif // NCORE_NCORE_DEBUG_H
