/**
 * @file
 * MLPerf-Inference-v0.5-style load generation (paper VI-A): the
 * SingleStream scenario issues one query at a time and reports the
 * 90th-percentile latency; the Offline scenario issues the whole
 * sample set at once and reports throughput. The system under test is
 * a callable returning the latency of one inference; determinism of
 * the simulator is broken up with modeled run-manager jitter (the
 * paper notes MLPerf's run manager itself perturbs measurements).
 */

#ifndef NCORE_MLPERF_LOADGEN_H
#define NCORE_MLPERF_LOADGEN_H

#include <functional>

#include "common/rng.h"
#include "common/stats.h"
#include "serve/engine.h"

namespace ncore {

/** SingleStream scenario results (latencies in seconds). */
struct SingleStreamResult
{
    int queries = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0; ///< The MLPerf SingleStream target metric.
    double p99 = 0;
};

/** Offline scenario results. */
struct OfflineResult
{
    int samples = 0;
    double seconds = 0;
    double ips = 0; ///< Inputs per second, the Offline metric.
};

/** SUT: returns the latency in seconds of one inference. */
using SystemUnderTest = std::function<double(int query_index)>;

/** Issue `queries` SingleStream queries with run-manager jitter. */
SingleStreamResult runSingleStream(const SystemUnderTest &sut,
                                   int queries, double jitter_frac = 0.03,
                                   uint64_t seed = 1);

/**
 * Executed Offline scenario: drain `queries` queries through the
 * multicore serving engine (real simulator inferences, virtual-time
 * metrics). `cfg.mode` is forced to Offline. The full serving trace
 * is returned through `detail` when non-null.
 */
OfflineResult runOffline(ServeEngine &engine, const ServeConfig &cfg,
                         int queries, ServeResult *detail = nullptr);

/**
 * Export a serving run's telemetry: Chrome trace-event JSON of the
 * virtual DES timeline to `trace_path` and/or a Prometheus text
 * snapshot of the unified counter registry to `metrics_path` (either
 * may be empty to skip). This is the `--trace=` / `--metrics=`
 * surface of serve_bench and the MLPerf harness. Returns false if
 * any requested file could not be written.
 */
bool exportServeTelemetry(const ServeResult &result,
                          const std::string &trace_path,
                          const std::string &metrics_path);

} // namespace ncore

#endif // NCORE_MLPERF_LOADGEN_H
