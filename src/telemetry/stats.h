/**
 * @file
 * Unified counter registry for the whole stack.
 *
 * Every layer (Machine perf counters, DMA engine, SRAM ECC, runtime
 * invocations, the serving engine) publishes into one `ncore::Stats`
 * instead of hand-copying fields between bespoke structs. A Stats is
 * an ordered map from metric name to double; names follow Prometheus
 * conventions (`snake_case`, `_total` suffix for monotonic counters,
 * optional `{label="value"}` suffixes inline in the name so one
 * registry holds labeled families, e.g.
 * `serve_batch_size_total{size="3"}`).
 *
 * Determinism: iteration order is lexicographic by name, values are
 * plain doubles accumulated in call order, and the text exporter
 * formats integral values without a fractional part — so two runs
 * that publish the same logical counters serialize to identical
 * bytes regardless of thread count or wall-clock timing.
 */

#ifndef NCORE_TELEMETRY_STATS_H
#define NCORE_TELEMETRY_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ncore {

class Stats
{
  public:
    /** Add `delta` to the counter `name` (creates it at 0 first). */
    void add(const std::string &name, double delta) { m_[name] += delta; }
    void
    add(const std::string &name, uint64_t delta)
    {
        m_[name] += (double)delta;
    }

    /** Set a gauge-style value outright. */
    void set(const std::string &name, double v) { m_[name] = v; }

    /** Value of `name`, or 0 if never published. */
    double
    value(const std::string &name) const
    {
        auto it = m_.find(name);
        return it == m_.end() ? 0.0 : it->second;
    }

    /** Integer view of value() (counters are exact below 2^53). */
    uint64_t
    counter(const std::string &name) const
    {
        return (uint64_t)value(name);
    }

    bool
    contains(const std::string &name) const
    {
        return m_.find(name) != m_.end();
    }

    /** Accumulate every entry of `other` into this registry. */
    void
    merge(const Stats &other)
    {
        for (const auto &[k, v] : other.m_)
            m_[k] += v;
    }

    /**
     * Per-name difference `this - base`. Snapshot a layer's registry
     * before and after a window to attribute counters to that window
     * (this replaces the old field-by-field delta copying in
     * NcoreRuntime::invoke). Entries with zero delta are dropped.
     */
    Stats
    diffFrom(const Stats &base) const
    {
        Stats d;
        for (const auto &[k, v] : m_) {
            double dv = v - base.value(k);
            if (dv != 0.0)
                d.m_[k] = dv;
        }
        return d;
    }

    const std::map<std::string, double> &entries() const { return m_; }
    bool empty() const { return m_.empty(); }
    size_t size() const { return m_.size(); }
    void clear() { m_.clear(); }

  private:
    std::map<std::string, double> m_;
};

namespace stats {

// Machine / Ncore core counters (published by Machine::publishStats).
inline constexpr const char *kNcoreCycles = "ncore_cycles_total";
inline constexpr const char *kNcoreInstructions = "ncore_instructions_total";
inline constexpr const char *kNcoreMacOps = "ncore_mac_ops_total";
inline constexpr const char *kNcoreNduOps = "ncore_ndu_ops_total";
inline constexpr const char *kNcoreRamReads = "ncore_ram_reads_total";
inline constexpr const char *kNcoreRamWrites = "ncore_ram_writes_total";
inline constexpr const char *kNcoreDmaFenceStalls =
    "ncore_dma_fence_stall_cycles_total";
inline constexpr const char *kNcoreEvents = "ncore_event_log_records_total";

// DMA engine counters.
inline constexpr const char *kDmaBytesRead = "ncore_dma_read_bytes_total";
inline constexpr const char *kDmaBytesWritten =
    "ncore_dma_written_bytes_total";
inline constexpr const char *kDmaTransfers = "ncore_dma_transfers_total";
inline constexpr const char *kDmaBusyCycles = "ncore_dma_busy_cycles_total";

// SRAM ECC counters (src/ncore/ram.h), labeled per bank.
inline constexpr const char *kEccCorrectedData =
    "ncore_ecc_corrected_total{ram=\"data\"}";
inline constexpr const char *kEccCorrectedWeight =
    "ncore_ecc_corrected_total{ram=\"weight\"}";
inline constexpr const char *kEccUncorrectableData =
    "ncore_ecc_uncorrectable_total{ram=\"data\"}";
inline constexpr const char *kEccUncorrectableWeight =
    "ncore_ecc_uncorrectable_total{ram=\"weight\"}";

// Runtime counters.
inline constexpr const char *kInvokes = "runtime_invocations_total";
inline constexpr const char *kIramSwaps = "runtime_iram_bank_swaps_total";
/// Bytes the host rewrote into the scratchpads to switch the resident
/// subgraph (NcoreRuntime::invoke); absent while no invoke switched.
inline constexpr const char *kImageReloadBytes =
    "runtime_image_reload_bytes_total";

// Serving-engine counters / gauges.
inline constexpr const char *kServeQueries = "serve_queries_total";
inline constexpr const char *kServeBatches = "serve_batches_total";
inline constexpr const char *kServeQueueDepthPeak = "serve_queue_depth_peak";
inline constexpr const char *kServeMakespan = "serve_makespan_seconds";
inline constexpr const char *kServeIps = "serve_ips";

/// Per-query latency histogram family (Prometheus histogram:
/// cumulative `_bucket{le=...}` series plus `_sum` and `_count`).
inline constexpr const char *kServeQueryLatency =
    "serve_query_latency_seconds";

/**
 * `ncore_exec_engine_info{engine="...",simd="..."}` info gauge
 * (constant 1): which execution engine and SIMD kernel tier a
 * Machine ran with, so exported snapshots are self-describing.
 */
std::string execEngineInfo(const char *engine, const char *simd);

/** `serve_batch_size_total{size="k"}` occupancy-histogram bucket. */
std::string batchSizeCounter(int size);
/** `serve_latency_seconds{quantile="0.99"}` summary gauge. */
std::string latencyQuantile(const char *q);
/** `serve_device_busy_seconds_total{device="d"}`. */
std::string deviceBusyCounter(int device);

/** `<family>_bucket{le="0.005"}`; pass INFINITY for `le="+Inf"`. */
std::string histogramBucketName(const char *family, double ub);

/** The fixed serve-latency bucket upper bounds, in seconds (0.5 ms
 *  to 2.5 s; +Inf is implicit). Fixed so snapshots from different
 *  runs and configurations are directly comparable. */
const std::vector<double> &serveLatencyBounds();

/**
 * Observe one value into a fixed-bucket cumulative histogram:
 * increments every `<family>_bucket{le=...}` whose bound admits
 * `value` plus the implicit `+Inf` bucket, `<family>_sum` by `value`
 * and `<family>_count` by one. Seed the bucket names at 0 first if a
 * byte-stable snapshot must include empty buckets.
 */
void observeHistogram(Stats &s, const char *family,
                      const std::vector<double> &bounds, double value);

} // namespace stats

/**
 * Prometheus text exposition format (version 0.0.4). Counters
 * (`*_total`) get `# TYPE <family> counter`; `*_bucket` families get
 * `# TYPE <base> histogram` (the matching `<base>_sum`/`<base>_count`
 * series belong to that family, so their own TYPE lines are
 * suppressed); everything else `# TYPE <family> gauge`. Families are
 * emitted once, in lexicographic order of the full metric name.
 * Integral values are printed as integers so snapshots are
 * byte-stable.
 */
std::string prometheusText(const Stats &s);

/** prometheusText() to a file; returns false on I/O error. */
bool writePrometheus(const Stats &s, const std::string &path);

} // namespace ncore

#endif // NCORE_TELEMETRY_STATS_H
