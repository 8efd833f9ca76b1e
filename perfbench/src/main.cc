/**
 * @file
 * Benchmark driver: runs one workload in this process and prints its
 * metrics, one line each with name, unit, tag and sample count, then a
 * last line of JSON that perfbench/run.py turns into the result.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>]
 *
 * With --trace 1 the benchmark keeps a host-time span around each of
 * its calls into the repository, writes them as a Chrome trace into
 * --out at exit, and prints per-layer self time.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "telemetry/trace.h"

namespace perfbench {

const char *
tagName(Tag t)
{
    switch (t) {
      case Tag::Host: return "host";
      case Tag::Simulated: return "simulated";
      case Tag::Modeled: return "modeled";
    }
    return "?";
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
}

double
now()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin)
        .count();
}

double
median(std::vector<double> v)
{
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + long(mid), v.end());
    if (v.size() % 2)
        return v[mid];
    const double hi = v[mid];
    return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + long(mid)));
}

int
Tracer::open(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.step = step_;
    spans_.push_back(std::move(s));
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
}

void
Tracer::close(int idx, double t0, double dt)
{
    if (idx < 0)
        return;
    spans_[size_t(idx)].start = t0;
    spans_[size_t(idx)].end = t0 + dt;
    stack_.pop_back();
    lastClosed_ = idx;
}

void
Tracer::count(const char *key, double value)
{
    if (lastClosed_ >= 0)
        spans_[size_t(lastClosed_)].counts.emplace_back(key, value);
}

double
Tracer::selfSeconds(size_t idx) const
{
    double self = spans_[idx].end - spans_[idx].start;
    for (size_t i = idx + 1; i < spans_.size(); ++i)
        if (spans_[i].parent == int(idx))
            self -= spans_[i].end - spans_[i].start;
    return self;
}

namespace {

std::string
layerOf(const std::string &span)
{
    return span.substr(0, span.find('.'));
}

/** Write the spans as a Chrome trace and print per-layer self time. */
void
exportTrace(const Options &opt, const Tracer &tr)
{
    using ncore::TraceEvent;
    std::vector<TraceEvent> events;
    events.push_back(ncore::threadNameEvent(0, 0, "perfbench " +
                                                      opt.workload));
    struct Total
    {
        int calls = 0;
        double total = 0, self = 0;
        std::map<std::string, double> counts;
    };
    std::map<std::string, Total> by_span, by_layer;
    const auto &spans = tr.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        TraceEvent e = ncore::completeEvent(
            s.name, layerOf(s.name), s.start * 1e6, (s.end - s.start) * 1e6,
            0, 0);
        e.args.emplace_back("step", std::to_string(s.step));
        e.args.emplace_back(
            "parent", s.parent < 0 ? "" : spans[size_t(s.parent)].name);
        for (const auto &[k, v] : s.counts) {
            char buf[32];
            snprintf(buf, sizeof(buf), "%.17g", v);
            e.args.emplace_back(k, buf);
        }
        events.push_back(std::move(e));

        const double self = tr.selfSeconds(i);
        for (Total *t : {&by_span[s.name], &by_layer[layerOf(s.name)]}) {
            ++t->calls;
            t->total += s.end - s.start;
            t->self += self;
            for (const auto &[k, v] : s.counts)
                t->counts[k] += v;
        }
    }
    const std::string path = opt.outDir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-spans.json";
    if (!ncore::writeChromeTrace(events, path))
        fatal("cannot write %s", path.c_str());
    printf("# trace: %zu spans written to %s\n", spans.size(),
           path.c_str());

    auto print = [](const char *kind, const std::map<std::string, Total> &m) {
        for (const auto &[name, t] : m) {
            printf("%s %-30s calls=%-4d total_s=%.6f self_s=%.6f", kind,
                   name.c_str(), t.calls, t.total, t.self);
            for (const auto &[k, v] : t.counts)
                printf(" %s=%.17g", k.c_str(), v);
            printf("\n");
        }
    };
    print("span", by_span);
    print("layer", by_layer);
}

[[noreturn]] void
usage(const char *msg)
{
    fprintf(stderr,
            "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
            "--seconds <s> --trace <0|1> [--out <dir>]\n",
            msg);
    exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = strtod(v, &end);
            if (!(opt.seconds > 0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (strcmp(v, "0") != 0 && strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            opt.trace = v[0] == '1';
        } else if (flag == "--out") {
            opt.outDir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("malformed value for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

/** Environment overrides that select a non-default engine. */
std::string
forcedEngine()
{
    std::string forced;
    for (const char *var : {"NCORE_SIMD", "NCORE_SIM_GENERIC"}) {
        const char *v = getenv(var);
        if (v && *v) {
            forced += forced.empty() ? "" : ",";
            forced += std::string(var) + "=" + v;
        }
    }
    return forced.empty() ? "none" : forced;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    const std::string forced = forcedEngine();
    printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
           opt.workload.c_str(), (unsigned long long)opt.seed, opt.seconds,
           int(opt.trace));
    printf("# nproc=%u build=%s forced_engine=%s\n",
           std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
           forced.c_str());
    if (forced != "none")
        printf("# WARNING: %s forces a non-default engine; host times are "
               "not comparable with default runs\n",
               forced.c_str());
    fflush(stdout);

    Tracer tr(opt.trace);
    Report rep = runWorkload(opt, tr);
    if (tr.enabled())
        exportTrace(opt, tr);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rep.add("peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB", Tag::Host);
    rep.add("failed_frac",
            rep.attempted ? double(rep.failed) / double(rep.attempted) : 1.0,
            "ratio", Tag::Host, rep.attempted);

    for (const Metric &m : rep.metrics)
        printf("metric %-32s %-20.10g %-12s %-9s n=%lld\n", m.name.c_str(),
               m.value, m.unit.c_str(), tagName(m.tag),
               (long long)m.samples);

    // Last line: every metric as JSON, for run.py.
    printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
           "\"metrics\": {",
           rep.failed == 0 && rep.attempted > 0 ? "true" : "false",
           (long long)rep.attempted, (long long)rep.failed);
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"tag\": "
               "\"%s\", \"samples\": %lld}",
               i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str(),
               tagName(m.tag), (long long)m.samples);
    }
    printf("}}\n");
    return 0;
}
