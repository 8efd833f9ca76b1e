#include "loadgen.h"

namespace ncore {

SingleStreamResult
runSingleStream(const SystemUnderTest &sut, int queries,
                double jitter_frac, uint64_t seed)
{
    Rng rng(seed);
    SampleStats stats;
    for (int q = 0; q < queries; ++q) {
        double t = sut(q);
        // Run-manager / OS noise: one-sided jitter.
        t *= 1.0 + jitter_frac * rng.nextFloat();
        stats.add(t);
    }
    SingleStreamResult res;
    res.queries = queries;
    res.mean = stats.mean();
    res.p50 = stats.percentile(0.50);
    res.p90 = stats.percentile(0.90);
    res.p99 = stats.percentile(0.99);
    return res;
}

OfflineResult
runOffline(ServeEngine &engine, const ServeConfig &cfg, int queries,
           ServeResult *detail)
{
    ServeConfig offline = cfg;
    offline.mode = ServeConfig::Mode::Offline;
    ServeResult sr = engine.run(offline, queries);
    OfflineResult res;
    res.samples = sr.queries;
    res.seconds = sr.seconds;
    res.ips = sr.ips;
    if (detail)
        *detail = std::move(sr);
    return res;
}

bool
exportServeTelemetry(const ServeResult &result,
                     const std::string &trace_path,
                     const std::string &metrics_path)
{
    bool ok = true;
    if (!trace_path.empty())
        ok = writeChromeTrace(result.trace(), trace_path) && ok;
    if (!metrics_path.empty())
        ok = writePrometheus(result.stats, metrics_path) && ok;
    return ok;
}

} // namespace ncore
