#include "engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <thread>

#include "common/rng.h"
#include "common/stats.h"
#include "ncore/simd.h"

namespace ncore {

ServeEngine::ServeEngine(SharedModel model,
                         std::vector<std::vector<Tensor>> samples,
                         int max_devices)
    : model_(std::move(model)), samples_(std::move(samples))
{
    fatal_if(!model_, "ServeEngine needs a loaded model");
    fatal_if(samples_.empty(), "ServeEngine needs a sample set");
    fatal_if(max_devices < 1, "ServeEngine needs >= 1 device");
    sysmem_ = std::make_unique<SystemMemory>(
        chaSocConfig().dmaWindowBytes);
    for (int d = 0; d < max_devices; ++d)
        contexts_.push_back(
            std::make_unique<NcoreDevice>(model_, sysmem_.get()));
}

ServeEngine::~ServeEngine() = default;

NcoreRuntime &
ServeEngine::runtime(int device)
{
    return contexts_.at(size_t(device))->runtime;
}

uint64_t
ServeEngine::sharedModelBytes() const
{
    uint64_t bytes = 0;
    for (const CompiledSubgraph &sg : model_->loadable().subgraphs) {
        bytes += sg.persistentWeights.size();
        bytes += sg.streamImage.size();
        bytes += sg.code.size() * sizeof(EncodedInstruction);
        bytes += sg.rqTable.size() * sizeof(RequantEntry);
    }
    return bytes;
}

ProfileReport
ServeEngine::profileSample(int sample, const std::string &model_name)
{
    fatal_if(sample < 0 || size_t(sample) >= samples_.size(),
             "profileSample: sample %d out of range (%zu samples)",
             sample, samples_.size());
    NcoreDevice &dev = *contexts_.front();
    CycleProfile prof;
    dev.machine.setProfile(&prof);
    dev.exec.infer(samples_[size_t(sample)]);
    dev.machine.setProfile(nullptr);
    ProfileReport rep =
        buildProfileReport(prof, &model_->loadable().graph, model_name,
                           dev.machine.config().clockHz);
    rep.engine = dev.machine.execDescription();
    return rep;
}

// --------------------------------------------------------------------
// Run plan: arrival schedule + deterministic batch plan
// --------------------------------------------------------------------

ServeEngine::RunPlan
ServeEngine::makePlan(const ServeConfig &cfg, int queries) const
{
    RunPlan plan;
    plan.arrivals.resize(size_t(queries), 0.0);
    if (cfg.mode == ServeConfig::Mode::Server) {
        fatal_if(cfg.arrivalRate <= 0,
                 "Server mode needs a positive arrival rate");
        Rng rng(cfg.seed);
        double t = 0;
        for (int q = 0; q < queries; ++q) {
            double u = double(rng.nextFloat());
            t += -std::log(1.0 - u) / cfg.arrivalRate;
            plan.arrivals[size_t(q)] = t;
        }
    }

    // Batch by arrival: queries join the open batch in id order; the
    // batch closes when full or (Server) when the next arrival would
    // wait longer than batchDelaySeconds behind the batch's first.
    // Depends only on the arrival schedule, so the plan — and with it
    // the whole virtual timeline — is deterministic.
    plan.batchOfQuery.resize(size_t(queries), 0);
    std::vector<int> open;
    double open_first = 0;
    auto close = [&] {
        if (open.empty())
            return;
        for (int q : open)
            plan.batchOfQuery[size_t(q)] = int(plan.batches.size());
        plan.batches.push_back(std::move(open));
        open.clear();
    };
    for (int q = 0; q < queries; ++q) {
        if (open.empty())
            open_first = plan.arrivals[size_t(q)];
        open.push_back(q);
        bool full = int(open.size()) >= cfg.maxBatch;
        bool timed_out =
            cfg.mode == ServeConfig::Mode::Server && q + 1 < queries &&
            plan.arrivals[size_t(q + 1)] >
                open_first + cfg.batchDelaySeconds;
        if (full || timed_out)
            close();
    }
    close();

    plan.deviceOfBatch.resize(plan.batches.size());
    for (size_t b = 0; b < plan.batches.size(); ++b)
        plan.deviceOfBatch[b] = int(b % size_t(cfg.devices));
    return plan;
}

// --------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------

double
ServeEngine::executeQuery(NcoreDevice &dev, const ServeConfig &cfg,
                          int query, ServeResult &result,
                          std::vector<Stats> &query_counters)
{
    const int sample = int(size_t(query) % samples_.size());
    InferenceResult r;
    bool from_memo = false;
    if (cfg.memoizeSampleResults) {
        std::lock_guard<std::mutex> lock(memoMu_);
        auto it = memo_.find(sample);
        if (it != memo_.end()) {
            r = it->second;
            from_memo = true;
        }
    }
    if (!from_memo) {
        r = dev.exec.infer(samples_[size_t(sample)]);
        if (cfg.memoizeSampleResults) {
            std::lock_guard<std::mutex> lock(memoMu_);
            memo_.emplace(sample, r);
        }
    }
    result.records[size_t(query)].sample = sample;

    // Per-query telemetry rides on the InferenceResult — which flows
    // through the memo cache and is bit-deterministic — never on the
    // executing machine's cumulative wall-order counters (which
    // device physically ran a memoized sample first is racy).
    query_counters[size_t(query)] = r.counters;
    std::vector<TraceSpan> &dspans = result.deviceSpans[size_t(query)];
    double cursor = 0, par_infer = 0, par_rel = 0;
    for (const TraceSpan &sp : r.spans) {
        if (sp.cat == SpanCat::Ncore) {
            // Device spans pack back-to-back inside the query's
            // device window (the x86-resident interludes of the
            // inference timeline are charged to the worker pool).
            par_infer = sp.start;
            par_rel = cursor;
            dspans.push_back({sp.name, sp.cat, cursor, sp.dur});
            cursor += sp.dur;
        } else if (sp.cat == SpanCat::NcoreDetail) {
            dspans.push_back({sp.name, sp.cat,
                              par_rel + (sp.start - par_infer),
                              sp.dur});
        }
    }

    if (cfg.keepOutputs)
        result.outputs[size_t(query)] = std::move(r.outputs);
    // Virtual device occupancy: measured Ncore seconds. The x86-
    // resident remainder of the model (reference kernels the device
    // thread ran functionally) is charged to the worker pool through
    // cfg.pre/postSeconds, not here.
    return r.timing.ncoreSeconds;
}

namespace {

/** A virtual x86 worker-pool task (pre or post stage of one query). */
struct PoolTask
{
    double release = 0;
    int64_t seq = 0;
    int query = 0;
    bool post = false;
};

struct PoolTaskLater
{
    bool
    operator()(const PoolTask &a, const PoolTask &b) const
    {
        if (a.release != b.release)
            return a.release > b.release;
        return a.seq > b.seq;
    }
};

} // namespace

ServeResult
ServeEngine::run(const ServeConfig &user_cfg, int queries)
{
    fatal_if(queries <= 0, "run() needs >= 1 query");
    ServeConfig cfg = user_cfg;
    cfg.x86Workers = std::max(cfg.x86Workers, 1);
    cfg.maxBatch = std::max(cfg.maxBatch, 1);
    fatal_if(cfg.devices < 1 || cfg.devices > maxDevices(),
             "run() wants %d devices, engine has %d", cfg.devices,
             maxDevices());

    const RunPlan plan = makePlan(cfg, queries);
    const int num_batches = int(plan.batches.size());

    ServeResult result;
    result.queries = queries;
    result.records.resize(size_t(queries));
    result.outputs.resize(size_t(queries));
    for (int q = 0; q < queries; ++q) {
        QueryRecord &rec = result.records[size_t(q)];
        rec.query = q;
        rec.batch = plan.batchOfQuery[size_t(q)];
        rec.device = plan.deviceOfBatch[size_t(rec.batch)];
        rec.arrival = plan.arrivals[size_t(q)];
    }
    for (const auto &members : plan.batches)
        result.batchSizes.push_back(int(members.size()));

    // ---- Execution --------------------------------------------------
    // One thread per device context runs the batches the plan gives
    // it, in batch order, through the shared-loadable runtime. Threads
    // write disjoint query-indexed slots, merged after the join.
    std::vector<double> ncoreSec(size_t(queries), 0.0);
    std::vector<Stats> queryCounters(static_cast<size_t>(queries));
    result.deviceSpans.resize(size_t(queries));
    {
        std::vector<std::jthread> devices;
        for (int d = 0; d < cfg.devices; ++d)
            devices.emplace_back([&, d] {
                NcoreDevice &dev = *contexts_[size_t(d)];
                for (int b = 0; b < num_batches; ++b)
                    if (plan.deviceOfBatch[size_t(b)] == d)
                        for (int q : plan.batches[size_t(b)])
                            ncoreSec[size_t(q)] = executeQuery(
                                dev, cfg, q, result, queryCounters);
            });
    } // jthreads join here.

    // Virtual device cycles (includes memoized repeats, which the
    // machines did not re-execute) — summed exactly from the
    // per-query counter deltas, no seconds round-trip.
    for (int q = 0; q < queries; ++q)
        result.deviceCycles +=
            queryCounters[size_t(q)].counter(stats::kNcoreCycles);

    // ---- Virtual-time replay ----------------------------------------
    // Exact discrete-event schedule of the pipeline: a FIFO pool of
    // x86Workers virtual cores serves pre and post tasks in release
    // order; each device consumes its batches in order, occupying
    // (measured ncore + unhidden) seconds per query. Insertions
    // always carry release times >= the event being processed, so a
    // single pass in (release, seq) order is chronologically exact.
    std::priority_queue<PoolTask, std::vector<PoolTask>, PoolTaskLater>
        tasks;
    for (int q = 0; q < queries; ++q)
        tasks.push(PoolTask{plan.arrivals[size_t(q)], q, q, false});
    int64_t next_seq = queries;

    std::priority_queue<double, std::vector<double>,
                        std::greater<double>>
        workers;
    for (int w = 0; w < cfg.x86Workers; ++w)
        workers.push(0.0);

    std::vector<int> pre_left;
    pre_left.reserve(plan.batches.size());
    for (const auto &members : plan.batches)
        pre_left.push_back(int(members.size()));
    std::vector<double> batchReady(plan.batches.size(), 0.0);
    std::vector<char> batchIsReady(plan.batches.size(), 0);
    std::vector<std::vector<int>> devBatches(size_t(cfg.devices));
    for (int b = 0; b < num_batches; ++b)
        devBatches[size_t(plan.deviceOfBatch[size_t(b)])].push_back(b);
    std::vector<size_t> devNext(size_t(cfg.devices), 0);
    std::vector<double> devFree(size_t(cfg.devices), 0.0);

    auto pumpDevice = [&](int d) {
        auto &list = devBatches[size_t(d)];
        while (devNext[size_t(d)] < list.size() &&
               batchIsReady[size_t(list[devNext[size_t(d)]])]) {
            int b = list[devNext[size_t(d)]++];
            double start =
                std::max(devFree[size_t(d)], batchReady[size_t(b)]);
            double cur = start;
            for (int q : plan.batches[size_t(b)]) {
                QueryRecord &rec = result.records[size_t(q)];
                rec.devStart = start;
                cur += ncoreSec[size_t(q)] + cfg.unhiddenSeconds;
                rec.devDone = cur;
            }
            devFree[size_t(d)] = cur;
            for (int q : plan.batches[size_t(b)])
                tasks.push(PoolTask{cur, next_seq++, q, true});
        }
    };

    while (!tasks.empty()) {
        PoolTask t = tasks.top();
        tasks.pop();
        double free_at = workers.top();
        workers.pop();
        double start = std::max(t.release, free_at);
        QueryRecord &rec = result.records[size_t(t.query)];
        if (!t.post) {
            rec.preStart = start;
            rec.preDone = start + cfg.preSeconds;
            workers.push(rec.preDone);
            int b = plan.batchOfQuery[size_t(t.query)];
            batchReady[size_t(b)] =
                std::max(batchReady[size_t(b)], rec.preDone);
            if (--pre_left[size_t(b)] == 0) {
                batchIsReady[size_t(b)] = 1;
                pumpDevice(plan.deviceOfBatch[size_t(b)]);
            }
        } else {
            rec.postStart = start;
            rec.postDone = start + cfg.postSeconds;
            workers.push(rec.postDone);
        }
    }

    // ---- Scenario metrics -------------------------------------------
    SampleStats lat;
    double first_arrival = plan.arrivals.empty()
                               ? 0.0
                               : plan.arrivals.front();
    double last_done = 0;
    for (const QueryRecord &rec : result.records) {
        lat.add(rec.latency());
        last_done = std::max(last_done, rec.postDone);
    }
    result.seconds = last_done - first_arrival;
    result.ips = result.seconds > 0
                     ? double(queries) / result.seconds
                     : 0.0;
    result.meanLatency = lat.mean();
    result.p50 = lat.percentile(0.50);
    result.p90 = lat.percentile(0.90);
    result.p99 = lat.percentile(0.99);

    // Peak device backlog: queries arrived but not yet started on a
    // device (+1 at arrival, -1 at device start; starts drain first
    // on ties).
    std::vector<std::pair<double, int>> events;
    events.reserve(size_t(queries) * 2);
    for (const QueryRecord &rec : result.records) {
        events.emplace_back(rec.arrival, +1);
        events.emplace_back(rec.devStart, -1);
    }
    std::sort(events.begin(), events.end());
    long depth = 0;
    long max_depth = 0;
    for (const auto &[when, delta] : events) {
        depth += delta;
        max_depth = std::max(max_depth, depth);
    }
    result.maxQueueDepth = size_t(max_depth);

    // ---- Unified stats registry -------------------------------------
    // Seed the hardware counter families at 0 so snapshots always
    // expose them, then merge every query's counter delta (virtual
    // totals: memoized repeats count their cached deltas).
    for (const char *name :
         {stats::kNcoreCycles, stats::kNcoreInstructions,
          stats::kNcoreMacOps, stats::kNcoreNduOps, stats::kNcoreRamReads,
          stats::kNcoreRamWrites, stats::kNcoreDmaFenceStalls,
          stats::kNcoreEvents, stats::kDmaBytesRead,
          stats::kDmaBytesWritten, stats::kDmaTransfers,
          stats::kDmaBusyCycles, stats::kEccCorrectedData,
          stats::kEccCorrectedWeight,
          stats::kEccUncorrectableData, stats::kEccUncorrectableWeight,
          stats::kIramSwaps})
        result.stats.add(name, 0.0);
    for (int q = 0; q < queries; ++q)
        result.stats.merge(queryCounters[size_t(q)]);

    // Invoke-window deltas cancel constant gauges, so stamp the
    // engine/SIMD-tier info gauge here (all device contexts of one
    // engine share a configuration).
    {
        const Machine &m = contexts_.front()->machine;
        result.stats.set(
            stats::execEngineInfo(
                m.usingFastPath() ? "specialized" : "generic",
                simdTierName(m.simdTier())),
            1.0);
    }

    result.stats.add(stats::kServeQueries, uint64_t(queries));
    result.stats.add(stats::kServeBatches, uint64_t(num_batches));
    std::vector<int> hist = result.batchSizeHistogram();
    for (size_t s = 1; s < hist.size(); ++s)
        if (hist[s] > 0)
            result.stats.add(stats::batchSizeCounter(int(s)),
                             uint64_t(hist[s]));
    result.stats.set(stats::kServeQueueDepthPeak,
                     double(result.maxQueueDepth));
    result.stats.set(stats::kServeMakespan, result.seconds);
    result.stats.set(stats::kServeIps, result.ips);
    result.stats.set(stats::latencyQuantile("0.5"), result.p50);
    result.stats.set(stats::latencyQuantile("0.9"), result.p90);
    result.stats.set(stats::latencyQuantile("0.99"), result.p99);

    // Per-query latency histogram (Prometheus histogram series). All
    // fixed buckets are seeded at 0 so the exported snapshot has a
    // byte-stable shape regardless of the latency distribution.
    for (double ub : stats::serveLatencyBounds())
        result.stats.add(
            stats::histogramBucketName(stats::kServeQueryLatency, ub),
            0.0);
    result.stats.add(stats::histogramBucketName(
                         stats::kServeQueryLatency, INFINITY),
                     0.0);
    result.stats.add(std::string(stats::kServeQueryLatency) + "_sum",
                     0.0);
    result.stats.add(std::string(stats::kServeQueryLatency) + "_count",
                     0.0);
    for (const QueryRecord &rec : result.records)
        stats::observeHistogram(result.stats, stats::kServeQueryLatency,
                                stats::serveLatencyBounds(),
                                rec.latency());

    // Per-device busy seconds from the replay's batch windows.
    std::vector<double> devBusy(size_t(cfg.devices), 0.0);
    for (int b = 0; b < num_batches; ++b) {
        const auto &members = plan.batches[size_t(b)];
        const QueryRecord &first = result.records[size_t(members.front())];
        const QueryRecord &last = result.records[size_t(members.back())];
        devBusy[size_t(plan.deviceOfBatch[size_t(b)])] +=
            last.devDone - first.devStart;
    }
    for (int d = 0; d < cfg.devices; ++d)
        result.stats.add(stats::deviceBusyCounter(d), devBusy[size_t(d)]);
    return result;
}

std::vector<int>
ServeResult::batchSizeHistogram() const
{
    std::vector<int> hist;
    for (int s : batchSizes) {
        if (int(hist.size()) <= s)
            hist.resize(size_t(s) + 1, 0);
        ++hist[size_t(s)];
    }
    return hist;
}

std::vector<TraceSpan>
ServeResult::querySpans(int query) const
{
    const QueryRecord &r = records.at(size_t(query));
    // Adjacent by construction: each span starts exactly where the
    // previous one ends, and the last ends at postDone, so the six
    // durations telescope to latency() exactly.
    return {
        {"queue", SpanCat::Framework, r.arrival, r.preStart - r.arrival},
        {"pre", SpanCat::X86Op, r.preStart, r.preDone - r.preStart},
        {"batch_wait", SpanCat::Framework, r.preDone,
         r.devStart - r.preDone},
        {"device", SpanCat::Ncore, r.devStart, r.devDone - r.devStart},
        {"post_wait", SpanCat::Framework, r.devDone,
         r.postStart - r.devDone},
        {"post", SpanCat::X86Op, r.postStart, r.postDone - r.postStart},
    };
}

std::vector<TraceEvent>
ServeResult::trace() const
{
    std::vector<TraceEvent> ev;

    // Track metadata: pid 0 = per-query pipeline, pid 1 = devices.
    {
        TraceEvent p0;
        p0.name = "process_name";
        p0.ph = 'M';
        p0.pid = 0;
        p0.args.emplace_back("name", "queries");
        ev.push_back(p0);
        TraceEvent p1 = p0;
        p1.pid = 1;
        p1.args[0].second = "devices";
        ev.push_back(p1);
    }
    int num_devices = 0;
    for (const QueryRecord &r : records)
        num_devices = std::max(num_devices, r.device + 1);
    for (int d = 0; d < num_devices; ++d) {
        char buf[32];
        snprintf(buf, sizeof buf, "device %d", d);
        ev.push_back(threadNameEvent(1, d, buf));
    }

    // pid 0: each query's pipeline partition on its own track.
    for (const QueryRecord &r : records) {
        for (const TraceSpan &sp : querySpans(r.query)) {
            if (sp.dur <= 0 && sp.name != "device")
                continue; // Skip empty waits; keep tracks readable.
            TraceEvent e = completeEvent(sp.name, spanCatName(sp.cat),
                                         sp.start * 1e6, sp.dur * 1e6,
                                         0, r.query);
            if (sp.name == "device") {
                char buf[32];
                snprintf(buf, sizeof buf, "%d", r.device);
                e.args.emplace_back("device", buf);
                snprintf(buf, sizeof buf, "%d", r.batch);
                e.args.emplace_back("batch", buf);
            }
            ev.push_back(e);
        }
    }

    // pid 1: per-device batch windows with per-query device windows
    // and cycle-exact detail children nested inside. Group the records
    // by batch once, in record order.
    std::vector<std::vector<const QueryRecord *>> byBatch(batchSizes.size());
    for (const QueryRecord &r : records)
        if (r.batch >= 0 && size_t(r.batch) < byBatch.size())
            byBatch[size_t(r.batch)].push_back(&r);
    for (size_t b = 0; b < byBatch.size(); ++b) {
        if (byBatch[b].empty())
            continue;
        const QueryRecord *first = byBatch[b].front();
        const QueryRecord *last = byBatch[b].back();
        char buf[48];
        snprintf(buf, sizeof buf, "batch %zu (x%d)", b, batchSizes[b]);
        ev.push_back(completeEvent(
            buf, "batch", first->devStart * 1e6,
            (last->devDone - first->devStart) * 1e6, 1, first->device));
    }
    // Per-query device occupancy: queries in one batch run serially,
    // so within a batch the devDone values are the serial prefix
    // ends — query q's window is [prev.devDone (or the batch's
    // devStart for the first member), q.devDone].
    for (const std::vector<const QueryRecord *> &batch : byBatch) {
        double cursor = -1;
        for (const QueryRecord *r : batch) {
            double start = cursor < 0 ? r->devStart : cursor;
            cursor = r->devDone;
            char buf[48];
            snprintf(buf, sizeof buf, "q%d s%d", r->query, r->sample);
            TraceEvent e =
                completeEvent(buf, "ncore", start * 1e6,
                              (r->devDone - start) * 1e6, 1, r->device);
            ev.push_back(e);
            if (size_t(r->query) < deviceSpans.size())
                for (const TraceSpan &sp : deviceSpans[size_t(r->query)])
                    ev.push_back(completeEvent(
                        sp.name, spanCatName(sp.cat),
                        (start + sp.start) * 1e6, sp.dur * 1e6, 1,
                        r->device));
        }
    }
    return ev;
}

} // namespace ncore
