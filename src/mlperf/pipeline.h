/**
 * @file
 * The multicore batching model of paper section VI-C: in Offline mode,
 * inputs are multi-batched so the x86 share of the workload (pre/post
 * processing, framework and benchmark overhead) runs concurrently with
 * Ncore across the remaining cores, hiding the x86 latency behind
 * Ncore's. One core drives the coprocessor; with n cores total, n-1
 * process x86 work. Fig. 13 plots the resulting expected maximum
 * throughput per core count; Fig. 14 shows the observed curves, which
 * saturate lower because of "other x86 overhead not accounted for in
 * either the TensorFlow-Lite or MLPerf frameworks" — carried here as
 * the unhidden serial term.
 */

#ifndef NCORE_MLPERF_PIPELINE_H
#define NCORE_MLPERF_PIPELINE_H

#include <algorithm>
#include <string>

namespace ncore {

/** Per-inference components of one workload. */
struct WorkloadProfile
{
    std::string model;
    /// Coprocessor portion: simulated device cycles at the clock, or a
    /// modeled figure when ncoreModeled is set.
    double ncoreSeconds = 0;
    /// ncoreSeconds and ncoreCycles come from a cost model, not from
    /// simulated cycles: GNMT's batch-64 max(MAC, DMA) model
    /// (profileGnmt).
    bool ncoreModeled = false;
    double x86Seconds = 0;      ///< Parallelizable x86 portion.
    double unhiddenSeconds = 0; ///< Serial overhead batching cannot hide.
    bool batchingSupported = true; ///< SSD NMS lacked batching (VI-C).
    uint64_t ncoreCycles = 0;
    uint64_t ncoreMacs = 0;
    uint64_t dmaBytes = 0;
};

/** Single-batch (SingleStream) latency: sequential Ncore + x86. */
inline double
singleStreamSeconds(const WorkloadProfile &p)
{
    return p.ncoreSeconds + p.x86Seconds;
}

/**
 * Expected maximum Offline throughput with `cores` x86 cores (Fig. 13):
 * all x86 work hidden when (cores-1)/x86 rate exceeds Ncore's.
 */
inline double
expectedIps(const WorkloadProfile &p, int cores)
{
    int workers = std::max(cores - 1, 0);
    double ncore_rate = 1.0 / p.ncoreSeconds;
    double x86_rate = p.x86Seconds > 0
                          ? double(workers) / p.x86Seconds
                          : 1e12;
    return std::min(ncore_rate, x86_rate);
}

/** Observed Offline throughput (Fig. 14): the unhidden serial term
 *  caps the asymptote; without batching the pipeline degenerates to
 *  back-to-back single batches. */
inline double
observedIps(const WorkloadProfile &p, int cores)
{
    if (!p.batchingSupported)
        return 1.0 / singleStreamSeconds(p);
    int workers = std::max(cores - 1, 0);
    double ncore_rate = 1.0 / (p.ncoreSeconds + p.unhiddenSeconds);
    double x86_rate = p.x86Seconds > 0
                          ? double(workers) / p.x86Seconds
                          : 1e12;
    return std::min(ncore_rate, x86_rate);
}

/** Cores needed to reach the expected maximum (paper: 2 for ResNet,
 *  4 for MobileNet, 5 for SSD). */
inline int
coresToSaturate(const WorkloadProfile &p)
{
    // Degenerate profiles: with no x86 share one worker trivially
    // keeps up, and with no Ncore share the coprocessor is never the
    // bottleneck — either way a single worker saturates. Avoids the
    // division below returning nonsense (or dividing by zero).
    if (p.x86Seconds <= 0 || p.ncoreSeconds <= 0)
        return 2; // 1 worker + the core driving Ncore.
    // Strictly exceed the Ncore rate, plus the core driving Ncore.
    int workers = int(p.x86Seconds / p.ncoreSeconds) + 1;
    workers = std::max(workers, 1);
    return workers + 1;
}

} // namespace ncore

#endif // NCORE_MLPERF_PIPELINE_H
