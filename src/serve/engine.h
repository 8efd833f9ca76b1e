/**
 * @file
 * Executed multicore serving engine (paper VI-C, Figs. 13/14): the
 * multicore batching pipeline that the analytic model in
 * mlperf/pipeline.h only predicts. One thread per simulated Ncore
 * device context executes the real batched inferences the batch plan
 * assigns it, in batch order, through the runtime. The x86 share of
 * every query (pre/post-processing) has no simulatable instruction
 * stream, so its stages are charged their measured per-query seconds
 * on a virtual worker pool rather than run on threads.
 *
 * Two clocks:
 *  - wall time: the device threads really execute the cycle simulator
 *    (device inferences are bit-identical to serial invokes);
 *  - virtual time: the reported throughput/latency timeline, built
 *    from measured Ncore seconds (cycles / clockHz) and the
 *    cost-model x86 stage seconds by an exact discrete-event replay
 *    of the pipeline (W-worker FIFO pool, per-device in-order batch
 *    queues). The replay depends only on arrival times, stage costs
 *    and the deterministic batch plan, so results are bit-identical
 *    across runs and thread interleavings.
 */

#ifndef NCORE_SERVE_ENGINE_H
#define NCORE_SERVE_ENGINE_H

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "runtime/device.h"

namespace ncore {

/** One serving-run configuration. */
struct ServeConfig
{
    enum class Mode { Offline, Server };
    Mode mode = Mode::Offline;

    /// Virtual x86 worker cores running pre/post stages (the paper's
    /// n-1 cores; the remaining core drives Ncore). Clamped to >= 1.
    int x86Workers = 4;
    /// Device contexts used this run (<= the engine's contexts).
    int devices = 1;
    /// Maximum queries per device batch.
    int maxBatch = 8;
    /// Server mode: a batch closes once the next arrival would wait
    /// longer than this behind the batch's first arrival.
    double batchDelaySeconds = 500e-6;
    /// Server mode: Poisson arrival rate in queries/second.
    double arrivalRate = 1000.0;
    uint64_t seed = 1;

    /// Per-query x86 stage costs (seconds). preSeconds + postSeconds
    /// should equal the workload's measured x86 share.
    double preSeconds = 0;
    double postSeconds = 0;
    /// Per-query serial overhead batching cannot hide, charged on the
    /// device timeline (the Fig. 14 "other x86 overhead" term).
    double unhiddenSeconds = 0;

    /// Reuse the first execution of each distinct sample for repeat
    /// queries (MLPerf-style performance sample sets; valid because
    /// the simulator is bit-deterministic, and verified by tests).
    bool memoizeSampleResults = false;
    /// Keep per-query output tensors in the result.
    bool keepOutputs = true;
};

/** Virtual-time trace of one query through the pipeline. */
struct QueryRecord
{
    int query = 0;
    int sample = 0;
    int batch = 0;
    int device = 0;
    double arrival = 0;
    double preStart = 0, preDone = 0;
    double devStart = 0, devDone = 0;
    double postStart = 0, postDone = 0;
    double latency() const { return postDone - arrival; }
};

/** Result of one serving run. */
struct ServeResult
{
    int queries = 0;
    double seconds = 0; ///< Virtual makespan (first arrival -> last post).
    double ips = 0;     ///< queries / seconds: the Offline metric.
    double meanLatency = 0;
    double p50 = 0, p90 = 0, p99 = 0;

    std::vector<QueryRecord> records;  ///< Indexed by query id.
    std::vector<int> batchSizes;       ///< Per batch, in batch order.
    /// Peak count of queries arrived but not yet started on a device.
    size_t maxQueueDepth = 0;
    uint64_t deviceCycles = 0; ///< Total Ncore cycles (virtual, incl. memo).
    /// Per-query model outputs (empty unless cfg.keepOutputs).
    std::vector<std::vector<Tensor>> outputs;

    /**
     * Aggregated unified counter registry for the run: every ncore_*
     * / dma_* / ecc counter summed over all queries (virtual totals —
     * memoized repeats count, exactly as deviceCycles does), plus the
     * serve_* metrics (query/batch totals, batch-size histogram,
     * queue-depth peak, latency quantiles, per-device busy seconds).
     * Everything derives from the deterministic replay and the
     * per-inference counter deltas, never from wall-order machine
     * state, so it is bit-identical across runs and thread counts.
     */
    Stats stats;

    /**
     * Per query: the device-side span breakdown of its inference
     * (subgraph programs, IRAM swaps, DMA aggregates), in seconds
     * relative to the query's devStart. Sourced from the memoizable
     * InferenceResult, so identical for repeats of one sample.
     */
    std::vector<std::vector<TraceSpan>> deviceSpans;

    /**
     * The query's pipeline partition on the DES timeline: queue ->
     * pre -> batch_wait -> device -> post_wait -> post. Spans are
     * adjacent and exactly cover [arrival, postDone] (their sums
     * reproduce latency() with no residue).
     */
    std::vector<TraceSpan> querySpans(int query) const;

    /**
     * Assemble the whole run into Chrome trace events (virtual DES
     * time): pid 0 = one track per query (pipeline partition),
     * pid 1 = one track per device (batch windows, per-query device
     * windows, cycle-exact detail children).
     */
    std::vector<TraceEvent> trace() const;

    /** Batch-size histogram: hist[s] = batches of size s. */
    std::vector<int> batchSizeHistogram() const;
};

/**
 * N-context serving engine over one shared loaded model.
 *
 * All device machines share one SystemMemory (one DRAM copy of any
 * streamed weight image) and one LoadedModel (one set of program,
 * weight and requant images); per-context memory is scratchpad and
 * decode state only. run() may be called repeatedly with
 * different configurations; the memoization cache persists across
 * runs.
 */
class ServeEngine
{
  public:
    /**
     * `samples` is the distinct-sample set (MLPerf performance
     * samples); query q executes sample q % samples.size().
     */
    ServeEngine(SharedModel model,
                std::vector<std::vector<Tensor>> samples,
                int max_devices = 1);
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /** Execute `queries` queries under `cfg`. */
    ServeResult run(const ServeConfig &cfg, int queries);

    /**
     * Execute one distinct sample on device 0 with the cycle-exact
     * microarchitectural profiler attached and return the per-layer
     * roofline report (telemetry/profile.h). Runs outside the
     * pipeline and does not touch the memo cache; must not be called
     * concurrently with run().
     */
    ProfileReport profileSample(int sample = 0,
                                const std::string &model_name = "model");

    int maxDevices() const { return int(contexts_.size()); }
    const LoadedModel &model() const { return *model_; }

    /** Bytes of model image shared across contexts (weights, stream
     *  image, programs) — the memory N contexts do NOT multiply. */
    uint64_t sharedModelBytes() const;

    /** Device runtime access for tests. */
    NcoreRuntime &runtime(int device);

    /** The SystemMemory all device contexts share. */
    SystemMemory &sysmem() { return *sysmem_; }

  private:
    /** Arrival schedule + deterministic batch plan for one run. */
    struct RunPlan
    {
        std::vector<double> arrivals;           // per query
        std::vector<std::vector<int>> batches;  // member query ids
        std::vector<int> batchOfQuery;
        std::vector<int> deviceOfBatch;
    };
    RunPlan makePlan(const ServeConfig &cfg, int queries) const;

    /** Execute one query on a device (or serve it from the memo
     *  cache); deposits the query's counters/spans into the
     *  query-indexed slots and returns measured Ncore seconds. */
    double executeQuery(NcoreDevice &dev, const ServeConfig &cfg,
                        int query, ServeResult &result,
                        std::vector<Stats> &query_counters);

    SharedModel model_;
    std::vector<std::vector<Tensor>> samples_;
    std::unique_ptr<SystemMemory> sysmem_;
    std::vector<std::unique_ptr<NcoreDevice>> contexts_;

    std::mutex memoMu_;
    std::unordered_map<int, InferenceResult> memo_;
};

} // namespace ncore

#endif // NCORE_SERVE_ENGINE_H
