/**
 * @file
 * Executed multicore serving benchmark (paper VI-C, Figs. 13/14):
 * drives the serving engine with real simulator inferences over
 * MobileNet-V1 and ResNet-50, sweeping worker-core and device counts,
 * and cross-checks the measured Offline throughput against the
 * analytic pipeline model the fig13/fig14 benches plot. Emits
 * BENCH_serve.json (measured IPS, latency percentiles, queue depth,
 * batch-size histogram, measured-vs-analytic deltas) next to
 * BENCH_sim.json.
 *
 * Repeat queries over the distinct-sample set are served from the
 * engine's memo cache (the simulator is bit-deterministic), so wall
 * time stays minutes while virtual query counts reach the hundreds.
 * Set NCORE_BENCH_SERVE_QUICK to sweep MobileNet only.
 *
 * Telemetry: pass --trace=<path> and/or --metrics=<path> to export
 * the final MobileNet Offline run's Chrome trace-event JSON (open in
 * Perfetto / chrome://tracing) and Prometheus text snapshot. Both
 * derive from the virtual DES replay, so the files are byte-identical
 * across runs and thread counts. Pass --profile=<path> to also run
 * the cycle-exact microarchitectural profiler over one MobileNet
 * sample (telemetry/profile.h) and write its per-layer roofline
 * report as JSON (text summary goes to stderr).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/json.h"
#include "gcl/compiler.h"
#include "mlperf/loadgen.h"
#include "mlperf/profiles.h"
#include "models/zoo.h"

namespace ncore {
namespace {

struct RunSpec
{
    int workers = 1;
    int devices = 1;
};

/** Fig. 14 model generalized to D devices sharing the worker pool:
 *  min(D / (ncore + unhidden), workers / x86). */
double
analyticIps(const WorkloadProfile &p, int workers, int devices)
{
    double dev_rate =
        double(devices) / (p.ncoreSeconds + p.unhiddenSeconds);
    double x86_rate = p.x86Seconds > 0
                          ? double(workers) / p.x86Seconds
                          : 1e12;
    return std::min(dev_rate, x86_rate);
}

void
emitRun(JsonWriter &j, const char *mode, const ServeConfig &cfg,
        const ServeResult &r, double analytic)
{
    j.beginObject();
    j.field("mode", mode);
    j.field("workers", cfg.x86Workers);
    j.field("cores", cfg.x86Workers + 1);
    j.field("devices", cfg.devices);
    j.field("queries", r.queries);
    j.field("measured_ips", r.ips, "%.2f");
    j.field("p50_ms", r.p50 * 1e3, "%.3f");
    j.field("p90_ms", r.p90 * 1e3, "%.3f");
    j.field("p99_ms", r.p99 * 1e3, "%.3f");
    j.field("mean_ms", r.meanLatency * 1e3, "%.3f");
    j.field("max_queue_depth", uint64_t(r.maxQueueDepth));
    j.key("batch_size_hist").beginArray();
    for (int count : r.batchSizeHistogram())
        j.value(count);
    j.endArray();
    if (analytic > 0) {
        j.field("analytic_ips", analytic, "%.2f");
        j.field("delta_frac", r.ips / analytic - 1.0, "%.4f");
    }
    j.endObject();
}

void
benchWorkload(JsonWriter &j, Workload w, int distinct, int queries,
              const std::vector<RunSpec> &specs, int max_devices,
              const char *trace_path = nullptr,
              const char *metrics_path = nullptr,
              const char *profile_path = nullptr)
{
    WorkloadProfile p = measureWorkload(w);

    Graph g;
    switch (w) {
      case Workload::MobileNetV1: g = buildMobileNetV1(); break;
      case Workload::ResNet50: g = buildResNet50V15(); break;
      default: panic("unsupported serve_bench workload");
    }
    SharedModel model = LoadedModel::create(compile(std::move(g)));

    const Graph &og = model->loadable().graph;
    const GirTensor &ti = og.tensor(og.inputs()[0]);
    Rng rng(2020);
    std::vector<std::vector<Tensor>> samples;
    for (int s = 0; s < distinct; ++s) {
        Tensor x(ti.shape, DType::UInt8, ti.quant);
        x.fillRandom(rng);
        samples.push_back({std::move(x)});
    }

    ServeEngine engine(std::move(model), std::move(samples),
                       max_devices);

    j.beginObject();
    j.field("model", p.model);
    j.key("profile").beginObject();
    j.field("ncore_s", p.ncoreSeconds, "%.6f");
    j.field("ncore_s_source", p.ncoreModeled ? "modeled" : "simulated");
    j.field("x86_s", p.x86Seconds, "%.6f");
    j.field("unhidden_s", p.unhiddenSeconds, "%.6f");
    j.endObject();
    // The N-context sharing story: model image bytes held once,
    // against total DRAM allocated with max_devices contexts loaded.
    j.field("contexts_loaded", max_devices);
    j.field("shared_model_bytes", engine.sharedModelBytes());
    j.field("sysmem_bytes_allocated",
            uint64_t(engine.sysmem().bytesAllocated()));
    j.field("distinct_samples", distinct);

    j.key("runs").beginArray();
    double best_ips = 0;
    for (const RunSpec &spec : specs) {
        ServeConfig cfg;
        cfg.x86Workers = spec.workers;
        cfg.devices = spec.devices;
        cfg.maxBatch = 8;
        cfg.preSeconds = 0.5 * p.x86Seconds;
        cfg.postSeconds = 0.5 * p.x86Seconds;
        cfg.unhiddenSeconds = p.unhiddenSeconds;
        cfg.memoizeSampleResults = true;
        cfg.keepOutputs = false;
        ServeResult detail;
        OfflineResult r = runOffline(engine, cfg, queries, &detail);
        double analytic = analyticIps(p, spec.workers, spec.devices);
        fprintf(stderr,
                "%s offline: cores=%d devices=%d measured=%.1f ips "
                "analytic=%.1f ips (%+.1f%%)\n",
                p.model.c_str(), spec.workers + 1, spec.devices, r.ips,
                analytic, 100.0 * (r.ips / analytic - 1.0));
        emitRun(j, "offline", cfg, detail, analytic);
        best_ips = std::max(best_ips, r.ips);
        if (&spec == &specs.back() && profile_path) {
            ProfileReport rep = engine.profileSample(0, p.model);
            if (writeProfileJson(rep, profile_path))
                fprintf(stderr, "wrote profile report %s\n",
                        profile_path);
            else
                fprintf(stderr, "profile export failed (%s)\n",
                        profile_path);
            fputs(rep.text().c_str(), stderr);
        }
        if (&spec == &specs.back() && (trace_path || metrics_path)) {
            if (!exportServeTelemetry(detail,
                                      trace_path ? trace_path : "",
                                      metrics_path ? metrics_path : ""))
                fprintf(stderr, "telemetry export failed\n");
            else
                fprintf(stderr, "exported telemetry (%s%s%s)\n",
                        trace_path ? trace_path : "",
                        trace_path && metrics_path ? ", " : "",
                        metrics_path ? metrics_path : "");
        }
    }

    // One Server-mode point at ~70% of the best measured Offline
    // rate: Poisson arrivals, tail latency under load.
    {
        ServeConfig cfg;
        cfg.mode = ServeConfig::Mode::Server;
        cfg.x86Workers = specs.back().workers;
        cfg.devices = specs.back().devices;
        cfg.maxBatch = 8;
        cfg.arrivalRate = 0.7 * best_ips;
        cfg.batchDelaySeconds = 4.0 / cfg.arrivalRate;
        cfg.preSeconds = 0.5 * p.x86Seconds;
        cfg.postSeconds = 0.5 * p.x86Seconds;
        cfg.unhiddenSeconds = p.unhiddenSeconds;
        cfg.memoizeSampleResults = true;
        cfg.keepOutputs = false;
        ServeResult r = engine.run(cfg, queries);
        fprintf(stderr,
                "%s server: rate=%.1f qps p99=%.2f ms\n",
                p.model.c_str(), cfg.arrivalRate, r.p99 * 1e3);
        emitRun(j, "server", cfg, r, 0.0);
    }
    j.endArray();
    j.endObject();
}

int
serveBenchMain(const char *trace_path, const char *metrics_path,
               const char *profile_path)
{
    FILE *f = fopen("BENCH_serve.json", "w");
    if (!f) {
        fprintf(stderr, "cannot write BENCH_serve.json\n");
        return 1;
    }
    JsonWriter j(f);
    j.beginObject();
    j.key("workloads").beginArray();

    // MobileNet: 4 distinct samples, 256 queries, core sweep plus a
    // 2-device point (the two contexts share one loaded model).
    // Telemetry (if requested) exports from its last offline run.
    benchWorkload(j, Workload::MobileNetV1, /*distinct=*/4,
                  /*queries=*/256,
                  {{1, 1}, {4, 1}, {7, 1}, {7, 2}},
                  /*max_devices=*/2, trace_path, metrics_path,
                  profile_path);
    if (!getenv("NCORE_BENCH_SERVE_QUICK"))
        benchWorkload(j, Workload::ResNet50, /*distinct=*/2,
                      /*queries=*/64, {{1, 1}, {3, 1}},
                      /*max_devices=*/1);

    j.endArray();
    j.endObject();
    j.finish();
    fclose(f);
    fprintf(stderr, "wrote BENCH_serve.json\n");
    return 0;
}

} // namespace
} // namespace ncore

int
main(int argc, char **argv)
{
    const char *trace = nullptr;
    const char *metrics = nullptr;
    const char *profile = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!strncmp(argv[i], "--trace=", 8))
            trace = argv[i] + 8;
        else if (!strncmp(argv[i], "--metrics=", 10))
            metrics = argv[i] + 10;
        else if (!strncmp(argv[i], "--profile=", 10))
            profile = argv[i] + 10;
        else {
            fprintf(stderr,
                    "usage: %s [--trace=<trace.json>] "
                    "[--metrics=<metrics.txt>] "
                    "[--profile=<profile.json>]\n",
                    argv[0]);
            return 2;
        }
    }
    return ncore::serveBenchMain(trace, metrics, profile);
}
