/**
 * @file
 * User-mode Ncore runtime (paper V-C): a standalone library over the
 * memory-mapped device interface. Loads Loadables (weights, requant
 * tables, DMA plans), launches each program for the Machine to stream
 * through its double-buffered instruction RAM, and collects the
 * debug/event information the evaluation methodology relies on.
 */

#ifndef NCORE_RUNTIME_RUNTIME_H
#define NCORE_RUNTIME_RUNTIME_H

#include <vector>

#include "gcl/loadable.h"
#include "runtime/driver.h"
#include "telemetry/stats.h"
#include "telemetry/trace.h"

namespace ncore {

/**
 * Telemetry record of one subgraph invocation: the full unified
 * counter delta for the invocation window (every counter the Machine
 * publishes — cycles, MACs, DMA bytes/stalls, ECC, ... — diffed
 * before/after instead of hand-copied field by field), the
 * invocation-relative cycle spans of its phases (the program, IRAM
 * bank swaps, aggregate DMA-fence stalls), and the
 * event-log records the program emitted.
 *
 * Cycle counts are architectural, so everything here is bit-identical
 * across runs, hosts and thread counts.
 */
struct InvokeStats
{
    Stats counters;               ///< Unified counter delta (stats.h).
    std::vector<CycleSpan> spans; ///< Relative to the invocation start.
    std::vector<NcoreEvent> events;

    // Shorthands for the common counters.
    uint64_t cycles() const { return counters.counter(stats::kNcoreCycles); }
    uint64_t macOps() const { return counters.counter(stats::kNcoreMacOps); }
    uint64_t
    dmaBytesRead() const
    {
        return counters.counter(stats::kDmaBytesRead);
    }
    uint64_t
    dmaStallCycles() const
    {
        return counters.counter(stats::kNcoreDmaFenceStalls);
    }
    /// Mask and weight bytes rewritten to make the subgraph resident.
    uint64_t
    imageReloadBytes() const
    {
        return counters.counter(stats::kImageReloadBytes);
    }
};

/** User-mode runtime bound to one Ncore device. */
class NcoreRuntime
{
  public:
    explicit NcoreRuntime(NcoreDriver &driver);
    ~NcoreRuntime();

    NcoreRuntime(const NcoreRuntime &) = delete;
    NcoreRuntime &operator=(const NcoreRuntime &) = delete;

    /**
     * Load a compiled model. Thin wrapper over the SharedModel path:
     * copies the Loadable into a single-owner LoadedModel (this
     * context alone holds the reference), so there is exactly one
     * load code path. The caller's Loadable need not outlive the
     * call.
     */
    void loadModel(const Loadable &loadable);

    /**
     * Load a shared immutable model. N contexts loading the same
     * LoadedModel share its weight, requant and program images —
     * nothing is re-derived per context, and each invoke streams the
     * subgraph's program straight from the model into the Machine's
     * IRAM (Machine::runStreamed). Contexts whose machines share a
     * SystemMemory also share one DRAM copy of any streamed weight
     * image.
     */
    void loadModel(SharedModel model);

    /**
     * Execute one compiled subgraph. Inputs are host NHWC tensors in
     * CompiledSubgraph::inputs order; outputs come back the same way.
     * The runtime performs the internal-layout conversion at the
     * subgraph edges (paper V-B). Subgraphs share the device's mask,
     * requant-table, weight and descriptor slots: loadModel loads
     * subgraph 0's, and invoking another subgraph loads its own first
     * and counts the scratchpad bytes it rewrote in
     * InvokeStats::imageReloadBytes.
     */
    std::vector<Tensor> invoke(int subgraph_index,
                               const std::vector<Tensor> &inputs,
                               InvokeStats *stats = nullptr);

    /** Clock frequency of the attached device. */
    double clockHz() const { return machine_->config().clockHz; }

    const Loadable *model() const { return model_; }

    /** Direct machine access for tests/debug tooling. */
    Machine &machine() { return *machine_; }

  private:
    /// Make subgraph `si` resident; returns the scratchpad bytes written.
    uint64_t loadImages(int si);

    NcoreDriver &driver_;
    Machine *machine_ = nullptr;
    const Loadable *model_ = nullptr;
    SharedModel shared_;           ///< Keeps the loaded model alive.
    std::vector<uint64_t> streamBase_; ///< DRAM base per subgraph.
    int resident_ = -1; ///< Subgraph whose images the device holds.
    std::vector<uint8_t> packBuf_; ///< Reusable layout-edge staging.
};

} // namespace ncore

#endif // NCORE_RUNTIME_RUNTIME_H
