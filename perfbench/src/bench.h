/**
 * @file
 * Shared pieces of the benchmark driver: run options, the metric list
 * a workload fills, and the host-time span recorder used by traced
 * runs. Spans are recorded only around the benchmark's own calls into
 * the repository's public functions; nothing inside the program is
 * instrumented.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".";
};

/** Where a number comes from. */
enum class Tag
{
    Host,      ///< Wall time or memory of the simulator host.
    Simulated, ///< Exact cycle-simulator count.
    Modeled,   ///< Cost-model or serving-DES virtual time.
};

const char *tagName(Tag t);

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    Tag tag = Tag::Host;
    int64_t samples = 1; ///< Observations the value summarizes.
};

/** Everything one workload reports: metrics and output checks. */
struct Report
{
    std::vector<Metric> metrics;
    int64_t attempted = 0; ///< Output checks made.
    int64_t failed = 0;    ///< Output checks that did not hold.

    void
    add(std::string name, double value, std::string unit, Tag tag,
        int64_t samples = 1)
    {
        metrics.push_back(
            {std::move(name), value, std::move(unit), tag, samples});
    }

    /** Count one output check; logs the failure to stderr. */
    void check(bool ok, const std::string &what);
};

/** Seconds on the steady clock since the process started. */
double now();

/** Median of a non-empty sample (copied, then partially sorted). */
double median(std::vector<double> v);

/**
 * Host-time spans around the benchmark's calls into each layer. Each
 * span has a name ("<layer>.<call>"), start and end, the span that
 * encloses it, and the step it belongs to (-1 outside timed steps).
 * When disabled, time() still measures the call and returns its
 * duration, so untraced runs time the same calls without keeping
 * spans.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1; ///< Index of the enclosing span, or -1.
        int step = -1;
        /// Counts read at the span's boundaries (exported as args).
        std::vector<std::pair<std::string, double>> counts;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Step id stamped on spans opened from now on (-1 = none). */
    void setStep(int step) { step_ = step; }

    /** Run `f` inside a span named `name`; returns its seconds. */
    template <class F>
    double
    time(const char *name, F &&f)
    {
        const int idx = open(name);
        const double t0 = now();
        f();
        const double dt = now() - t0;
        close(idx, t0, dt);
        return dt;
    }

    /** Attach a count to the span most recently closed. */
    void count(const char *key, double value);

    const std::vector<Span> &spans() const { return spans_; }

    /** Span duration minus the time its direct children cover. */
    double selfSeconds(size_t idx) const;

  private:
    int open(const char *name);
    void close(int idx, double t0, double dt);

    bool enabled_;
    int step_ = -1;
    int lastClosed_ = -1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Fails (nonzero exit via fatal) on unknown workload names. */
Report runWorkload(const Options &opt, Tracer &tr);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
