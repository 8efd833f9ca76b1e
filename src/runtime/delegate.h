/**
 * @file
 * Delegate executor: the TensorFlow-Lite-Delegate-style integration
 * (paper V-A, Fig. 8/9). A network's graph is split into subgraphs;
 * Ncore-compatible subgraphs execute on the coprocessor through the
 * runtime, everything else runs on the x86 cores (functionally via the
 * reference kernels, with time charged by the CNS cost model).
 */

#ifndef NCORE_RUNTIME_DELEGATE_H
#define NCORE_RUNTIME_DELEGATE_H

#include <vector>

#include "runtime/runtime.h"
#include "telemetry/trace.h"
#include "x86/cost_model.h"
#include "x86/reference.h"

namespace ncore {

/**
 * Timing breakdown of one inference (single batch, one x86 core).
 * Derived from the inference's span timeline (see InferenceResult):
 * each component is the sum of that category's span durations, in
 * recording order, so the breakdown and the trace can never
 * disagree.
 */
struct InferenceTiming
{
    double ncoreSeconds = 0;     ///< Coprocessor execution time.
    double x86OpSeconds = 0;     ///< x86-resident op kernels.
    double layoutSeconds = 0;    ///< NHWC <-> internal layout edges.
    double frameworkSeconds = 0; ///< TFLite-style per-inference cost.
    uint64_t ncoreCycles = 0;
    uint64_t ncoreMacs = 0;
    uint64_t dmaBytes = 0;

    double
    x86Seconds() const
    {
        return x86OpSeconds + layoutSeconds + frameworkSeconds;
    }

    double total() const { return ncoreSeconds + x86Seconds(); }
};

/** Sum of the durations of `cat` spans, in recording order. */
double spanSeconds(const std::vector<TraceSpan> &spans, SpanCat cat);

/**
 * Result of one delegate-executed inference. Everything observable
 * about the inference rides here — counters and spans included — so
 * layers above (e.g. the serving engine's sample memoization) can
 * reuse a result without re-querying any machine state.
 */
struct InferenceResult
{
    std::vector<Tensor> outputs;
    InferenceTiming timing; ///< Span-derived (see InferenceTiming).
    /// Unified counter deltas merged over every runtime invocation
    /// of this inference (telemetry/stats.h names).
    Stats counters;
    /**
     * The inference timeline: one span per x86 node, Ncore subgraph
     * invocation (with NcoreDetail children: the program, IRAM
     * swaps, counter-sourced DMA aggregates), layout edge, plus
     * the trailing framework overhead. Starts at t=0 seconds; purely
     * virtual (cost-model + simulated-cycle durations), so
     * bit-identical across runs.
     */
    std::vector<TraceSpan> spans;
};

/** Executes a loaded model, dispatching subgraphs per the Loadable. */
class DelegateExecutor
{
  public:
    DelegateExecutor(NcoreRuntime &runtime, const X86CostModel &cost)
        : runtime_(runtime), cost_(cost)
    {}

    /** Run one inference on a single input batch element. */
    InferenceResult infer(const std::vector<Tensor> &inputs);

  private:
    NcoreRuntime &runtime_;
    X86CostModel cost_;
};

} // namespace ncore

#endif // NCORE_RUNTIME_DELEGATE_H
