/**
 * @file
 * The three benchmark workloads. Each is a closed loop: one client
 * issues the next step when the previous one completes, for
 * Options::seconds of host time, after a set-up phase that builds the
 * model and brings the device up. Inputs come from Options::seed; the
 * models keep their fixed builder seeds, because the seed defines the
 * model. See perfbench/README.md for why each workload exists.
 */

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "common/rng.h"
#include "gcl/compiler.h"
#include "mlperf/profiles.h"
#include "models/gnmt.h"
#include "models/zoo.h"
#include "runtime/delegate.h"
#include "serve/engine.h"
#include "soc/sysmem.h"
#include "telemetry/profile.h"
#include "telemetry/stats.h"
#include "x86/reference.h"

namespace perfbench {
namespace {

using namespace ncore;

/// Steps every window runs, even when one step outlasts it.
constexpr int kMinSteps = 3;

/**
 * The reference kernel: a fixed byte multiply-accumulate over two
 * 256 KiB arrays, which stay in the core's L2, the same kind of
 * throughput-bound SIMD work as the simulator's lane kernels. It is
 * the benchmark's own code, so it does not change when the program
 * does.
 */
class RefKernel
{
  public:
    RefKernel()
    {
        Rng rng(0x5eed);
        for (size_t i = 0; i < kBytes; ++i) {
            a_[i] = uint8_t(rng.next64());
            b_[i] = uint8_t(rng.next64());
        }
    }

    /** Runs the kernel `reps` times on the calling thread. */
    void
    run(int reps)
    {
        uint32_t acc = 0;
        for (int r = 0; r < reps; ++r) {
            asm volatile("" : : : "memory");
            acc += mac(a_.data(), b_.data());
        }
        sink_.fetch_add(acc, std::memory_order_relaxed);
    }

  private:
    static constexpr size_t kBytes = 256u << 10;
    static constexpr int kPasses = 16;

    [[gnu::noinline]] static uint32_t
    mac(const uint8_t *a, const uint8_t *b)
    {
        uint32_t acc = 0;
        for (int p = 0; p < kPasses; ++p) {
            // Each pass must really read the arrays again.
            asm volatile("" : : "r"(a), "r"(b) : "memory");
            for (size_t i = 0; i < kBytes; ++i)
                acc += uint32_t(a[i]) * b[i];
        }
        return acc;
    }

    std::array<uint8_t, kBytes> a_, b_;
    std::atomic<uint32_t> sink_{0}; ///< Keeps the sums live.
};

/**
 * A yardstick for host speed, sampled inside set-ups and steps. On a
 * shared host the speed of throughput-bound code drifts by tens of
 * percent within a second and from minute to minute, as other
 * tenants' threads come and go on the same physical cores (see
 * perfbench/README.md, "Noise"). While it lives, a sampler thread wakes every kPeriodMs,
 * signals every other thread of the process that is running, and each
 * signalled thread times the reference kernel in its signal handler,
 * on its own core, in the middle of whatever it was doing: one sample
 * is one yardstick. A step's host seconds over the mean seconds of the
 * samples taken during it cancel most of that drift.
 */
class Yardstick
{
  public:
    static constexpr int kPeriodMs = 50;
    static constexpr int kSampleReps = 2;
    /// Seconds of one sample on a quiet host: about the mean over the
    /// runs the benchmark was tuned with (see perfbench/README.md).
    static constexpr double kRefSeconds = 1.25e-3;

    /** Sample seconds and sample count, summed over all threads. */
    struct Reading
    {
        double seconds = 0;
        uint64_t samples = 0;
    };

    Yardstick()
    {
        // The handler stays installed after the sampler stops, so that
        // a signal still on its way finds it.
        static const bool installed = [] {
            struct sigaction sa = {};
            sa.sa_handler = onSignal;
            sa.sa_flags = SA_RESTART;
            sigemptyset(&sa.sa_mask);
            return sigaction(kSignal, &sa, nullptr) == 0;
        }();
        fatal_if(!installed, "cannot install the yardstick's signal handler");
        sampler_ = std::thread([this] { sample(); });
    }

    ~Yardstick()
    {
        stop_ = true;
        sampler_.join();
    }

    Reading
    read() const
    {
        return {double(nanos_.load()) * 1e-9, samples_.load()};
    }

  private:
    static inline const int kSignal = SIGRTMIN;

    static void
    onSignal(int)
    {
        const int saved = errno;
        timespec t0, t1;
        clock_gettime(CLOCK_MONOTONIC, &t0);
        kernel_.run(kSampleReps);
        clock_gettime(CLOCK_MONOTONIC, &t1);
        nanos_.fetch_add(uint64_t((t1.tv_sec - t0.tv_sec) * 1000000000L +
                                  (t1.tv_nsec - t0.tv_nsec)));
        samples_.fetch_add(1);
        errno = saved;
    }

    /** Signal every running thread but this one, every kPeriodMs. */
    void
    sample()
    {
        const pid_t pid = getpid();
        const pid_t self = pid_t(syscall(SYS_gettid));
        while (!stop_) {
            std::this_thread::sleep_for(std::chrono::milliseconds(kPeriodMs));
            // On an error no thread is sampled, and timedLoop fails.
            std::error_code ec;
            for (const auto &task : std::filesystem::directory_iterator(
                     "/proc/self/task", ec)) {
                const pid_t tid = pid_t(
                    std::strtol(task.path().filename().c_str(), nullptr, 10));
                if (tid != self && running(task.path() / "stat"))
                    syscall(SYS_tgkill, pid, tid, kSignal);
            }
        }
    }

    /** Whether /proc/<pid>/task/<tid>/stat says the thread runs. */
    static bool
    running(const std::filesystem::path &stat)
    {
        char buf[512];
        FILE *f = fopen(stat.c_str(), "r");
        if (!f)
            return false;
        const size_t n = fread(buf, 1, sizeof(buf) - 1, f);
        fclose(f);
        buf[n] = 0;
        // The state follows the parenthesised thread name.
        const char *close = strrchr(buf, ')');
        return close && close[1] == ' ' && close[2] == 'R';
    }

    static inline RefKernel kernel_;
    static inline std::atomic<uint64_t> nanos_{0};
    static inline std::atomic<uint64_t> samples_{0};
    std::atomic<bool> stop_{false};
    std::thread sampler_;
};

/** The host side of the timed window. */
struct Window
{
    /// Host seconds of each step, without the samples taken in it.
    std::vector<double> stepSeconds;
    /// Each step's seconds over the mean seconds of the yardstick
    /// samples taken in it: the step in yardsticks.
    std::vector<double> stepNorm;
    std::vector<uint64_t> stepCycles; ///< Simulated Ncore cycles.
};

/**
 * Closed loop: `step(i)` runs step i and returns its device cycles.
 * `threads` is how many host threads a step keeps busy in parallel:
 * the samples taken in a step delay it by their seconds over that.
 */
template <class F>
Window
timedLoop(const Options &opt, Tracer &tr, int threads, F &&step)
{
    Window w;
    Yardstick yard;
    const double t0 = now();
    for (int i = 0;; ++i) {
        tr.setStep(i);
        const Yardstick::Reading r0 = yard.read();
        const double s0 = now();
        w.stepCycles.push_back(step(i));
        const double wall = now() - s0;
        const Yardstick::Reading r1 = yard.read();
        const double sampled = r1.seconds - r0.seconds;
        const uint64_t samples = r1.samples - r0.samples;
        fatal_if(samples == 0, "the yardstick took no sample in step %d", i);
        w.stepSeconds.push_back(wall - sampled / threads);
        w.stepNorm.push_back(w.stepSeconds.back() /
                             (sampled / double(samples)));
        if (i + 1 >= kMinSteps && now() - t0 >= opt.seconds)
            break;
    }
    tr.setStep(-1);
    return w;
}

/**
 * Host-speed metrics of the timed window. step_norm, the median step
 * in yardsticks, is the bounded one: it cancels most of the host's
 * speed drift, which the raw step times follow (see
 * perfbench/README.md, "Noise").
 */
void
addWindowMetrics(Report &rep, const Window &w)
{
    const auto n = int64_t(w.stepSeconds.size());
    uint64_t cycles = 0;
    double busy = 0;
    for (size_t i = 0; i < w.stepCycles.size(); ++i) {
        cycles += w.stepCycles[i];
        busy += w.stepSeconds[i];
    }
    rep.add("step_norm", median(w.stepNorm), "yardsticks", Tag::Host, n);
    rep.add("step_s_p50", median(w.stepSeconds), "s", Tag::Host, n);
    rep.add("step_s_best",
            *std::min_element(w.stepSeconds.begin(), w.stepSeconds.end()),
            "s", Tag::Host, n);
    rep.add("sim_mcycles_per_s", double(cycles) / busy / 1e6,
            "Mcycle/s", Tag::Host, n);
}

/** Per-layer metrics of layers this workload never calls: 0, n=0. */
void
notCalled(Report &rep, std::span<const Metric> metrics)
{
    for (Metric m : metrics) {
        m.value = 0;
        m.samples = 0;
        rep.metrics.push_back(std::move(m));
    }
}

const Metric kGnmtStepLayer[] = {
    {"models.run_on_ncore_s_p50", 0, "s", Tag::Host},
};

const Metric kServeLayer[] = {
    {"serve.run_s_p50", 0, "s", Tag::Host},
    {"serve.host_s_per_query", 0, "s", Tag::Host},
    {"serve.modeled_ips", 0, "1/s", Tag::Modeled},
    {"serve.modeled_p99_ms", 0, "ms-modeled", Tag::Modeled},
    {"serve.batch_size_mean", 0, "count", Tag::Modeled},
    {"serve.max_queue_depth", 0, "count", Tag::Modeled},
    {"telemetry.export_s", 0, "s", Tag::Host},
};

/** Host seconds of every call made through time(), by span name. */
struct Phases
{
    std::map<std::string, std::vector<double>> seconds;

    template <class F>
    double
    time(Tracer &tr, const char *span, F &&f)
    {
        const double dt = tr.time(span, std::forward<F>(f));
        seconds[span].push_back(dt);
        return dt;
    }

    double
    p50(const std::string &span) const
    {
        return median(seconds.at(span));
    }

    double
    total(const std::string &span) const
    {
        double sum = 0;
        for (double s : seconds.at(span))
            sum += s;
        return sum;
    }

    /** Adds the median of `span`'s calls as metric `name`. */
    void
    add(Report &rep, const char *name, const std::string &span) const
    {
        rep.add(name, p50(span), "s", Tag::Host,
                int64_t(seconds.at(span).size()));
    }
};

/**
 * Runs set-up `reps` times, each instance torn down before the next is
 * built; the last instance stays. Records each set-up's host seconds
 * without the yardstick samples taken in it as "setup.raw", and the
 * same at the reference host speed as "setup.ref": over the mean
 * sample seconds of the whole batch, times Yardstick::kRefSeconds. A
 * workload sets up before its timed steps and again after everything
 * else; setup_s is the median "setup.ref" of both batches.
 */
template <class Teardown, class Setup>
void
repeatedSetup(Tracer &tr, Phases &ph, int reps, Teardown &&teardown,
              Setup &&setup)
{
    Yardstick yard;
    const Yardstick::Reading start = yard.read();
    std::vector<double> net;
    for (int r = 0; r < reps; ++r) {
        if (r > 0)
            teardown();
        const Yardstick::Reading r0 = yard.read();
        const double dt = ph.time(tr, "bench.setup", setup);
        net.push_back(dt - (yard.read().seconds - r0.seconds));
    }
    const Yardstick::Reading end = yard.read();
    fatal_if(end.samples == start.samples,
             "the yardstick took no sample during set-up");
    const double sample = (end.seconds - start.seconds) /
                          double(end.samples - start.samples);
    for (double s : net) {
        ph.seconds["setup.raw"].push_back(s);
        ph.seconds["setup.ref"].push_back(s / sample *
                                          Yardstick::kRefSeconds);
    }
}

/** Seconds of the window's first `n` steps: the fixed job's share. */
double
firstSteps(const Window &w, int n)
{
    double sum = 0;
    for (int i = 0; i < n; ++i)
        sum += w.stepSeconds[size_t(i)];
    return sum;
}

bool
sameTensors(const std::vector<Tensor> &a, const std::vector<Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].shape() != b[i].shape() || a[i].dtype() != b[i].dtype() ||
            a[i].byteSize() != b[i].byteSize() ||
            std::memcmp(a[i].raw(), b[i].raw(), a[i].byteSize()) != 0)
            return false;
    return true;
}

/** `count` distinct single-input samples for the graph, from `seed`. */
std::vector<std::vector<Tensor>>
makeSamples(const Graph &g, uint64_t seed, int count)
{
    const GirTensor &in = g.tensor(g.inputs()[0]);
    Rng rng(seed);
    std::vector<std::vector<Tensor>> samples;
    for (int s = 0; s < count; ++s) {
        Tensor x(in.shape, DType::UInt8, in.quant);
        x.fillRandom(rng);
        samples.push_back({std::move(x)});
    }
    return samples;
}

/** x86 reference output of every sample, one run per sample. */
std::vector<std::vector<Tensor>>
referenceOutputs(Tracer &tr, Phases &ph, const Graph &g,
                 const std::vector<std::vector<Tensor>> &samples)
{
    std::vector<std::vector<Tensor>> refs;
    for (const auto &s : samples)
        ph.time(tr, "x86.reference",
                [&] { refs.push_back(ReferenceExecutor(g).run(s)); });
    return refs;
}

/** Device counters of `steps` steps, reported per step. */
void
addDeviceCounters(Report &rep, const Stats &c, double steps,
                  int64_t useful_macs)
{
    const double lane_macs = c.value(stats::kNcoreMacOps) / steps;
    rep.add("ncore.instructions", c.value(stats::kNcoreInstructions) / steps,
            "count", Tag::Simulated);
    rep.add("ncore.lane_macs", lane_macs, "count", Tag::Simulated);
    rep.add("ncore.useful_mac_frac", double(useful_macs) / lane_macs,
            "ratio", Tag::Simulated);
    rep.add("soc.dma_read_bytes", c.value(stats::kDmaBytesRead) / steps,
            "B", Tag::Simulated);
    rep.add("soc.dma_transfers", c.value(stats::kDmaTransfers) / steps,
            "count", Tag::Simulated);
}

/**
 * Cycle-profiler buckets of one profiled step (traced runs only), and
 * the profiler's host cost against the same call made without it.
 */
void
addProfile(Report &rep, const ProfileCounters &c, uint64_t step_cycles,
           double profiled_s, double unprofiled_s)
{
    for (int b = 0; b < kCycleBuckets; ++b)
        rep.add(std::string("ncore.cycles.") +
                    cycleBucketName(CycleBucket(b)),
                double(c.buckets[size_t(b)]), "cycles", Tag::Simulated);
    rep.check(c.cycles() == step_cycles,
              "profiler buckets sum to the step's device cycles");
    rep.add("trace.profiler_overhead_frac", profiled_s / unprofiled_s - 1.0,
            "ratio", Tag::Host);
}

/**
 * Host bandwidth of SystemMemory::read over a benchmark-owned region,
 * read in Ncore-row-sized pieces as the DMA engine reads it (traced
 * runs only).
 */
void
measureSysmem(const Options &opt, Tracer &tr, Report &rep)
{
    constexpr uint64_t kBytes = 32ull << 20;
    constexpr uint64_t kPiece = 4096;
    SystemMemory mem(int64_t(kBytes) * 2);
    const uint64_t base = mem.allocate(kBytes, kPiece);
    std::vector<uint8_t> src(kBytes), dst(kBytes);
    Rng rng(opt.seed);
    for (uint64_t i = 0; i < kBytes; i += 8) {
        const uint64_t v = rng.next64();
        std::memcpy(&src[i], &v, 8);
    }
    mem.write(base, src.data(), kBytes);
    const double s = tr.time("soc.sysmem_read", [&] {
        for (uint64_t off = 0; off < kBytes; off += kPiece)
            mem.read(base + off, dst.data() + off, kPiece);
    });
    tr.count("bytes", double(kBytes));
    rep.check(dst == src, "SystemMemory read-back equals what was written");
    rep.add("soc.sysmem_read_gbps", double(kBytes) / s / 1e9, "GB/s",
            Tag::Host);
}

/** Build, compile and load one CNN into a shared model. */
template <class Build>
SharedModel
compileCnn(Tracer &tr, Phases &ph, Build &&build)
{
    Graph g;
    ph.time(tr, "models.build", [&] { g = build(); });
    Loadable ld;
    ph.time(tr, "gcl.compile", [&] { ld = compile(std::move(g)); });
    SharedModel model;
    ph.time(tr, "gcl.load_model",
            [&] { model = LoadedModel::create(std::move(ld)); });
    return model;
}

/**
 * setup_s (at the reference host speed), setup_s_raw, and total_s: the
 * median raw set-up plus `rest`, the seconds of the rest of the fixed
 * job a user waits for.
 */
void
addSetupAndTotal(Report &rep, const Phases &ph, double rest)
{
    const auto n = int64_t(ph.seconds.at("setup.raw").size());
    rep.add("setup_s", ph.p50("setup.ref"), "s", Tag::Host, n);
    rep.add("setup_s_raw", ph.p50("setup.raw"), "s", Tag::Host, n);
    rep.add("total_s", ph.p50("setup.raw") + rest, "s", Tag::Host);
}

void
addSetupMetrics(Report &rep, const Phases &ph, const char *bringup_span)
{
    ph.add(rep, "models.build_s", "models.build");
    ph.add(rep, "gcl.compile_s", "gcl.compile");
    ph.add(rep, "gcl.load_model_s", "gcl.load_model");
    ph.add(rep, "runtime.bringup_s", bringup_span);
}

// ---------------------------------------------------------------------
// mobilenet_serve
// ---------------------------------------------------------------------

Report
mobilenetServe(const Options &opt, Tracer &tr)
{
    constexpr int kSetups = 8; // Twice; each set-up takes about 0.07 s.
    constexpr int kDevices = 2;
    constexpr int kDistinct = 2;
    constexpr int kQueriesPerStep = 4;
    constexpr int kModeledQueries = 256;
    Report rep;
    Phases ph;

    SharedModel model;
    std::vector<std::vector<Tensor>> samples;
    std::unique_ptr<ServeEngine> engine;
    const auto teardown = [&] { engine.reset(); };
    const auto setup = [&] {
        model = compileCnn(tr, ph, [] { return buildMobileNetV1(); });
        samples = makeSamples(model->loadable().graph, opt.seed, kDistinct);
        // The engine constructor brings up every device context:
        // Machine, driver power-up and self-test, model load.
        ph.time(tr, "serve.engine_create", [&] {
            engine = std::make_unique<ServeEngine>(model, samples, kDevices);
        });
    };
    repeatedSetup(tr, ph, kSetups, teardown, setup);
    printf("# engine=%s\n",
           engine->runtime(0).machine().execDescription().c_str());

    // Offline, no memoization: every query is really simulated. Two
    // queries per device per step, so each sample runs on both
    // devices within a step.
    ServeConfig cfg;
    cfg.devices = kDevices;
    cfg.maxBatch = kQueriesPerStep / kDevices;
    cfg.memoizeSampleResults = false;
    std::vector<ServeResult> results;
    const Window w = timedLoop(opt, tr, kDevices, [&](int) {
        ServeResult r;
        tr.time("serve.run", [&] { r = engine->run(cfg, kQueriesPerStep); });
        tr.count("device_cycles", double(r.deviceCycles));
        const uint64_t cycles = r.deviceCycles;
        results.push_back(std::move(r));
        return cycles;
    });

    const Graph &graph = model->loadable().graph;
    const uint64_t per_query = results[0].deviceCycles / kQueriesPerStep;
    InferenceResult single;
    ph.time(tr, "bench.check", [&] {
        const auto refs = referenceOutputs(tr, ph, graph, samples);
        rep.check(results[0].deviceCycles % kQueriesPerStep == 0,
                  "mobilenet step cycles split evenly over its queries");
        for (const ServeResult &r : results) {
            std::set<int> devices;
            for (int q = 0; q < r.queries; ++q) {
                const QueryRecord &rec = r.records[size_t(q)];
                devices.insert(rec.device);
                rep.check(sameTensors(r.outputs[size_t(q)],
                                      refs[size_t(rec.sample)]),
                          "served query output is bit-exact with the x86 "
                          "reference");
            }
            rep.check(int(devices.size()) == kDevices,
                      "every step runs on both device contexts");
            rep.check(r.deviceCycles == per_query * kQueriesPerStep,
                      "every mobilenet query takes the same cycles");
        }

        // One single-stream inference on device 0: the modeled
        // Table VII latency and the x86 share the DES charges.
        DelegateExecutor exec(engine->runtime(0), X86CostModel{});
        ph.time(tr, "runtime.infer",
                [&] { single = exec.infer(samples[0]); });
        rep.check(sameTensors(single.outputs, refs[0]),
                  "single-stream output is bit-exact with the x86 "
                  "reference");
        rep.check(single.timing.ncoreCycles == per_query,
                  "single-stream cycles equal served-query cycles");
    });

    // Fig. 14: a memoized Offline run over the same distinct samples,
    // exported through telemetry. Its x86 stage costs follow
    // measureWorkload's CNN profile.
    ServeResult modeled;
    ph.time(tr, "bench.modeled", [&] {
        X86CostModel cost;
        const double x86 = single.timing.x86Seconds() +
                           cost.preprocessSeconds(224 * 224 * 3) +
                           cost.loadgenOverheadSeconds();
        ServeConfig mc;
        mc.devices = kDevices;
        mc.preSeconds = 0.5 * x86;
        mc.postSeconds = 0.5 * x86;
        mc.unhiddenSeconds = kUnhiddenFraction * x86;
        mc.memoizeSampleResults = true;
        mc.keepOutputs = false;
        ph.time(tr, "serve.run_modeled",
                [&] { modeled = engine->run(mc, kModeledQueries); });
        rep.check(modeled.deviceCycles == per_query * kModeledQueries,
                  "memoized queries carry the simulated cycles");
        ph.time(tr, "telemetry.export", [&] {
            const std::string stem = opt.outDir + "/mobilenet_serve-seed" +
                                     std::to_string(opt.seed);
            const bool ok =
                writeChromeTrace(modeled.trace(), stem + "-serve.json") &&
                writePrometheus(modeled.stats, stem + "-metrics.txt");
            rep.check(ok, "serve telemetry export wrote its files");
        });
    });

    const auto queries = int64_t(results.size()) * kQueriesPerStep;
    addWindowMetrics(rep, w);
    rep.add("device_cycles", double(per_query), "cycles", Tag::Simulated,
            queries);
    rep.add("modeled_ms", single.timing.total() * 1e3, "ms-modeled",
            Tag::Modeled);

    addSetupMetrics(rep, ph, "serve.engine_create");
    ph.add(rep, "runtime.infer_s_p50", "runtime.infer");
    rep.add("serve.run_s_p50", median(w.stepSeconds), "s", Tag::Host,
            int64_t(w.stepSeconds.size()));
    rep.add("serve.host_s_per_query", firstSteps(w, int(results.size())) /
                                          double(queries),
            "s", Tag::Host, queries);
    rep.add("serve.modeled_ips", modeled.ips, "1/s", Tag::Modeled);
    rep.add("serve.modeled_p99_ms", modeled.p99 * 1e3, "ms-modeled",
            Tag::Modeled, modeled.queries);
    double batch_sum = 0;
    for (int b : modeled.batchSizes)
        batch_sum += b;
    rep.add("serve.batch_size_mean",
            batch_sum / double(modeled.batchSizes.size()), "count",
            Tag::Modeled, int64_t(modeled.batchSizes.size()));
    rep.add("serve.max_queue_depth", double(modeled.maxQueueDepth), "count",
            Tag::Modeled);
    ph.add(rep, "telemetry.export_s", "telemetry.export");
    notCalled(rep, kGnmtStepLayer);
    addDeviceCounters(rep, results[0].stats, kQueriesPerStep,
                      graph.totalMacs());
    rep.add("x86.reference_s", ph.total("x86.reference"), "s", Tag::Host,
            kDistinct);

    if (tr.enabled()) {
        ProfileReport prof;
        const double prof_s = tr.time("serve.profile_sample", [&] {
            prof = engine->profileSample(0, "mobilenet_v1");
        });
        addProfile(rep, prof.totals, per_query, prof_s,
                   ph.p50("runtime.infer"));
        measureSysmem(opt, tr, rep);
    }

    teardown();
    repeatedSetup(tr, ph, kSetups, teardown, setup);
    addSetupAndTotal(rep, ph,
                     firstSteps(w, 1) + ph.total("bench.check") +
                         ph.total("bench.modeled"));
    return rep;
}

// ---------------------------------------------------------------------
// resnet50_verify
// ---------------------------------------------------------------------

/** One device brought up by the benchmark: machine, driver, runtime. */
struct Device
{
    explicit Device(const SharedModel &model)
        : machine(chaNcoreConfig(), chaSocConfig()), driver(machine)
    {
        driver.powerUp();
        selfTestOk = driver.selfTest();
        runtime.emplace(driver);
        runtime->loadModel(model);
    }

    Machine machine;
    NcoreDriver driver;
    std::optional<NcoreRuntime> runtime;
    bool selfTestOk = false;
};

Report
resnet50Verify(const Options &opt, Tracer &tr)
{
    constexpr int kSetups = 5; // Twice; each set-up takes about 0.3 s.
    constexpr int kDistinct = 2;
    static_assert(kDistinct <= kMinSteps);
    Report rep;
    Phases ph;

    SharedModel model;
    std::vector<std::vector<Tensor>> samples;
    std::unique_ptr<Device> dev;
    const auto teardown = [&] { dev.reset(); };
    const auto setup = [&] {
        model = compileCnn(tr, ph, [] { return buildResNet50V15(); });
        samples = makeSamples(model->loadable().graph, opt.seed, kDistinct);
        ph.time(tr, "runtime.bringup",
                [&] { dev = std::make_unique<Device>(model); });
    };
    repeatedSetup(tr, ph, kSetups, teardown, setup);
    rep.check(dev->selfTestOk, "Ncore self-test passes");
    printf("# engine=%s\n", dev->machine.execDescription().c_str());

    DelegateExecutor exec(*dev->runtime, X86CostModel{});
    std::vector<InferenceResult> results;
    const Window w = timedLoop(opt, tr, 1, [&](int i) {
        InferenceResult r;
        tr.time("runtime.infer",
                [&] { r = exec.infer(samples[size_t(i % kDistinct)]); });
        tr.count("device_cycles", double(r.timing.ncoreCycles));
        tr.count("dma_read_bytes", double(r.timing.dmaBytes));
        const uint64_t cycles = r.timing.ncoreCycles;
        results.push_back(std::move(r));
        return cycles;
    });

    const Graph &graph = model->loadable().graph;
    const InferenceResult &first = results[0];
    ph.time(tr, "bench.check", [&] {
        const auto refs = referenceOutputs(tr, ph, graph, samples);
        for (size_t i = 0; i < results.size(); ++i) {
            rep.check(sameTensors(results[i].outputs, refs[i % kDistinct]),
                      "ResNet-50 output is bit-exact with the x86 "
                      "reference");
            rep.check(results[i].timing.ncoreCycles ==
                              first.timing.ncoreCycles &&
                          results[i].timing.total() == first.timing.total(),
                      "every inference takes the same cycles and modeled "
                      "time");
        }
    });

    addWindowMetrics(rep, w);
    rep.add("device_cycles", double(first.timing.ncoreCycles), "cycles",
            Tag::Simulated, int64_t(results.size()));
    rep.add("modeled_ms", first.timing.total() * 1e3, "ms-modeled",
            Tag::Modeled);

    addSetupMetrics(rep, ph, "runtime.bringup");
    rep.add("runtime.infer_s_p50", median(w.stepSeconds), "s", Tag::Host,
            int64_t(w.stepSeconds.size()));
    notCalled(rep, kServeLayer);
    notCalled(rep, kGnmtStepLayer);
    addDeviceCounters(rep, first.counters, 1.0, graph.totalMacs());
    rep.add("x86.reference_s", ph.total("x86.reference"), "s", Tag::Host,
            kDistinct);

    if (tr.enabled()) {
        CycleProfile prof;
        const double prof_s = tr.time("runtime.infer_profiled", [&] {
            dev->machine.setProfile(&prof);
            exec.infer(samples[0]);
            dev->machine.setProfile(nullptr);
        });
        addProfile(rep, prof.counters(), first.timing.ncoreCycles, prof_s,
                   median(w.stepSeconds));
        measureSysmem(opt, tr, rep);
    }

    teardown();
    repeatedSetup(tr, ph, kSetups, teardown, setup);
    addSetupAndTotal(rep, ph,
                     firstSteps(w, kDistinct) + ph.total("bench.check"));
    return rep;
}

// ---------------------------------------------------------------------
// gnmt_stream
// ---------------------------------------------------------------------

/// A short (1, 1) sentence. The step has no data input, so the seed
/// does not change it.
constexpr int kGnmtInLen = 1;
constexpr int kGnmtOutLen = 1;

Report
gnmtStream(const Options &opt, Tracer &tr)
{
    // Each set-up takes about 6 s: two before the steps, one after.
    constexpr int kSetupsBefore = 2;
    constexpr int kSetupsAfter = 1;
    Report rep;
    Phases ph;

    std::unique_ptr<Gnmt> gnmt;
    std::unique_ptr<Machine> machine;
    std::optional<NcoreDriver> driver;
    const auto teardown = [&] {
        driver.reset();
        machine.reset();
        gnmt.reset();
    };
    const auto setup = [&] {
        ph.time(tr, "models.build", [&] { gnmt = std::make_unique<Gnmt>(); });
        ph.time(tr, "runtime.bringup", [&] {
            machine =
                std::make_unique<Machine>(chaNcoreConfig(), chaSocConfig());
            driver.emplace(*machine);
            driver->powerUp();
            rep.check(driver->selfTest(), "Ncore self-test passes");
        });
        // The first sentence stages the weight image into system
        // DRAM; Gnmt keeps it staged for this machine.
        ph.time(tr, "models.run_on_ncore_first", [&] {
            gnmt->runOnNcore(*machine, kGnmtInLen, kGnmtOutLen);
        });
    };
    repeatedSetup(tr, ph, kSetupsBefore, teardown, setup);
    printf("# engine=%s\n", machine->execDescription().c_str());

    std::vector<Gnmt::RunStats> runs;
    Stats before, after;
    machine->publishStats(before);
    const Window w = timedLoop(opt, tr, 1, [&](int) {
        Gnmt::RunStats s;
        ph.time(tr, "models.run_on_ncore", [&] {
            s = gnmt->runOnNcore(*machine, kGnmtInLen, kGnmtOutLen);
        });
        tr.count("device_cycles", double(s.cycles));
        tr.count("dma_read_bytes", double(s.dmaBytes));
        runs.push_back(s);
        return s.cycles;
    });
    machine->publishStats(after);

    const Gnmt::RunStats &first = runs[0];
    ph.time(tr, "bench.check", [&] {
        for (const Gnmt::RunStats &s : runs)
            rep.check(s.cycles == first.cycles &&
                          s.macOps == first.macOps &&
                          s.dmaBytes == first.dmaBytes,
                      "every GNMT sentence repeats the first timed "
                      "sentence's cycles, MACs and DMA bytes");
    });

    addWindowMetrics(rep, w);
    rep.add("device_cycles", double(first.cycles), "cycles",
            Tag::Simulated, int64_t(runs.size()));
    rep.add("modeled_ms",
            (double(first.cycles) / machine->config().clockHz +
             first.x86Seconds) *
                1e3,
            "ms-modeled", Tag::Modeled);

    ph.add(rep, "models.build_s", "models.build");
    ph.add(rep, "runtime.bringup_s", "runtime.bringup");
    ph.add(rep, "models.run_on_ncore_s_p50", "models.run_on_ncore");
    const Metric skipped[] = {{"gcl.compile_s", 0, "s", Tag::Host},
                              {"gcl.load_model_s", 0, "s", Tag::Host},
                              {"runtime.infer_s_p50", 0, "s", Tag::Host},
                              {"x86.reference_s", 0, "s", Tag::Host}};
    notCalled(rep, skipped);
    notCalled(rep, kServeLayer);
    addDeviceCounters(rep, after.diffFrom(before), double(runs.size()),
                      gnmt->macCount(kGnmtInLen, kGnmtOutLen));

    if (tr.enabled()) {
        CycleProfile prof;
        Gnmt::RunStats s;
        const double prof_s = tr.time("models.run_on_ncore_profiled", [&] {
            machine->setProfile(&prof);
            s = gnmt->runOnNcore(*machine, kGnmtInLen, kGnmtOutLen);
            machine->setProfile(nullptr);
        });
        addProfile(rep, prof.counters(), s.cycles, prof_s,
                   median(w.stepSeconds));
        measureSysmem(opt, tr, rep);
    }

    teardown();
    repeatedSetup(tr, ph, kSetupsAfter, teardown, setup);
    addSetupAndTotal(rep, ph,
                     firstSteps(w, 1) + ph.total("bench.check"));
    return rep;
}

} // namespace

Report
runWorkload(const Options &opt, Tracer &tr)
{
    if (opt.workload == "mobilenet_serve")
        return mobilenetServe(opt, tr);
    if (opt.workload == "resnet50_verify")
        return resnet50Verify(opt, tr);
    if (opt.workload == "gnmt_stream")
        return gnmtStream(opt, tr);
    fatal("unknown workload '%s' (mobilenet_serve, resnet50_verify, "
          "gnmt_stream)",
          opt.workload.c_str());
}

} // namespace perfbench
