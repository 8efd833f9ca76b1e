#include "profiles.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "gcl/compiler.h"
#include "models/gnmt.h"
#include "models/zoo.h"
#include "runtime/device.h"

namespace ncore {

namespace {

constexpr const char *kCacheVersion = "ncore-profile-v4";

/** Serializes every read/append of the on-disk profile cache, so
 *  concurrent measureWorkload calls (tests, benches, the serving
 *  engine warm-up) cannot interleave partial lines. */
std::mutex &
cacheMutex()
{
    static std::mutex mu;
    return mu;
}

const char *
cacheKey(Workload w)
{
    switch (w) {
      case Workload::MobileNetV1: return "mobilenet_v1";
      case Workload::ResNet50: return "resnet50_v1.5";
      case Workload::SsdMobileNet: return "ssd_mobilenet_v1";
      case Workload::Gnmt: return "gnmt";
    }
    return "?";
}

std::optional<WorkloadProfile>
readCache(const std::string &path, Workload w)
{
    std::lock_guard<std::mutex> lock(cacheMutex());
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::string version;
    if (!std::getline(in, version) || version != kCacheVersion)
        return std::nullopt;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        WorkloadProfile p;
        int batching = 1;
        ss >> p.model >> p.ncoreSeconds >> p.x86Seconds >>
            p.unhiddenSeconds >> batching >> p.ncoreCycles >>
            p.ncoreMacs >> p.dmaBytes;
        if (!ss)
            continue;
        p.batchingSupported = batching != 0;
        if (p.model == cacheKey(w))
            return p;
    }
    return std::nullopt;
}

void
appendCache(const std::string &path, const WorkloadProfile &p)
{
    // Atomic append: rebuild the whole file in a temp sibling and
    // rename it over the original, under the cache mutex. A reader in
    // another process either sees the old complete file or the new
    // complete file, never a torn line.
    std::lock_guard<std::mutex> lock(cacheMutex());
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string version;
        if (in && std::getline(in, version) &&
            version == kCacheVersion) {
            std::string line;
            while (std::getline(in, line))
                if (!line.empty())
                    lines.push_back(line);
        }
    }
    // Seconds round-trip exactly, so a warm cache reproduces a cold
    // measurement bit for bit.
    std::ostringstream entry;
    entry << std::setprecision(std::numeric_limits<double>::max_digits10)
          << p.model << " " << p.ncoreSeconds << " " << p.x86Seconds
          << " " << p.unhiddenSeconds << " "
          << (p.batchingSupported ? 1 : 0) << " " << p.ncoreCycles
          << " " << p.ncoreMacs << " " << p.dmaBytes;
    lines.push_back(entry.str());

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << kCacheVersion << "\n";
        for (const std::string &l : lines)
            out << l << "\n";
        if (!out) {
            warn("cannot write profile cache temp file %s",
                 tmp.c_str());
            return;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        warn("cannot rename %s over %s", tmp.c_str(), path.c_str());
}

/** Build the gir graph of a CNN workload (panics for GNMT). */
Graph
buildCnnGraph(Workload w)
{
    switch (w) {
      case Workload::MobileNetV1: return buildMobileNetV1();
      case Workload::ResNet50: return buildResNet50V15();
      case Workload::SsdMobileNet: return buildSsdMobileNetV1();
      default: panic("not a CNN workload");
    }
}

/** The seeded input image every CNN profile infers on. */
Tensor
profileInput(const Graph &g)
{
    const GirTensor &desc = g.tensor(g.inputs()[0]);
    Tensor x(desc.shape, DType::UInt8, desc.quant);
    Rng rng(2020);
    x.fillRandom(rng);
    return x;
}

/** Profile one GIR CNN through the full stack. */
WorkloadProfile
profileCnn(Workload w)
{
    NcoreDevice dev(LoadedModel::create(compile(buildCnnGraph(w))));
    const Tensor x = profileInput(dev.runtime.model()->graph);
    InferenceResult res = dev.exec.infer({x});

    X86CostModel cost;
    WorkloadProfile p;
    p.model = cacheKey(w);
    // Latency portions come from the inference's span timeline (the
    // same spans the telemetry trace exports); summing span durations
    // per category reproduces the timing fields exactly, so Table IX
    // is literally a re-aggregation of the trace.
    const double span_ncore = spanSeconds(res.spans, SpanCat::Ncore);
    const double span_x86 = spanSeconds(res.spans, SpanCat::X86Op) +
                            spanSeconds(res.spans, SpanCat::Layout) +
                            spanSeconds(res.spans, SpanCat::Framework);
    fatal_if(span_ncore != res.timing.ncoreSeconds ||
                 span_x86 != res.timing.x86Seconds(),
             "span-derived breakdown diverged from timing");
    p.ncoreSeconds = span_ncore;
    p.x86Seconds = span_x86 + cost.preprocessSeconds(x.numElements()) +
                   cost.loadgenOverheadSeconds();
    p.unhiddenSeconds = kUnhiddenFraction * p.x86Seconds;
    p.batchingSupported = w != Workload::SsdMobileNet;
    p.ncoreCycles = res.timing.ncoreCycles;
    p.ncoreMacs = res.timing.ncoreMacs;
    p.dmaBytes = res.timing.dmaBytes;
    return p;
}

/** Profile GNMT: simulate a short sentence, scale to 25/25, compose
 *  the batch-64 Offline execution (weights amortized over the batch,
 *  paper VI-A: GNMT ran Offline with batch 64). */
WorkloadProfile
profileGnmt()
{
    const int sim_in = 6, sim_out = 6;
    Gnmt gnmt;
    Machine machine(chaNcoreConfig(), chaSocConfig());
    Gnmt::RunStats stats = gnmt.runOnNcore(machine, sim_in, sim_out);

    double scale = double(gnmt.macCount(25, 25)) /
                   double(gnmt.macCount(sim_in, sim_out));
    double clock = machine.config().clockHz;

    // Batch-64: each weight segment is fetched once per step and
    // reused across the batch, so the per-sentence DMA share is 1/64;
    // compute scales per sentence.
    double compute_cycles =
        double(stats.macOps) * 3.0 / 4096.0 * scale;
    double dma_cycles = double(stats.dmaBytes) /
                        machine.dma().dramBytesPerCycle() * scale /
                        64.0;
    double ncore_seconds =
        std::max(compute_cycles, dma_cycles) / clock;

    WorkloadProfile p;
    p.model = cacheKey(Workload::Gnmt);
    p.ncoreSeconds = ncore_seconds;
    p.x86Seconds = stats.x86Seconds * scale + kGnmtFrameworkSeconds;
    p.unhiddenSeconds = kUnhiddenFraction * p.x86Seconds;
    // The TF-based stack serialized the x86 work (the paper expects
    // significant gains as the stack matures).
    p.batchingSupported = false;
    p.ncoreCycles = uint64_t(compute_cycles);
    p.ncoreMacs = uint64_t(double(stats.macOps) * scale);
    p.dmaBytes = uint64_t(double(stats.dmaBytes) * scale);
    return p;
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::MobileNetV1: return "MobileNet-V1";
      case Workload::ResNet50: return "ResNet-50-V1.5";
      case Workload::SsdMobileNet: return "SSD-MobileNet-V1";
      case Workload::Gnmt: return "GNMT";
    }
    return "?";
}

const char *
workloadCacheKey(Workload w)
{
    return cacheKey(w);
}

std::string
defaultProfileCachePath()
{
    if (const char *env = std::getenv("NCORE_PROFILE_CACHE"))
        if (*env)
            return env;
#ifdef NCORE_PROFILE_CACHE_DEFAULT
    return NCORE_PROFILE_CACHE_DEFAULT;
#else
    return "ncore_profiles.cache";
#endif
}

WorkloadProfile
measureWorkload(Workload w, bool force, const std::string &cache_path)
{
    const std::string path =
        cache_path.empty() ? defaultProfileCachePath() : cache_path;
    if (!force) {
        auto cached = readCache(path, w);
        if (cached)
            return *cached;
    }
    inform("profiling %s on the Ncore simulator (this can take a "
           "minute; cached afterwards)",
           workloadName(w));
    WorkloadProfile p =
        w == Workload::Gnmt ? profileGnmt() : profileCnn(w);
    appendCache(path, p);
    return p;
}

std::vector<WorkloadProfile>
measureAllWorkloads(const std::string &cache_path, bool force)
{
    const std::string path =
        cache_path.empty() ? defaultProfileCachePath() : cache_path;
    constexpr Workload kAll[] = {Workload::MobileNetV1,
                                 Workload::ResNet50,
                                 Workload::SsdMobileNet, Workload::Gnmt};
    constexpr int kCount = int(std::size(kAll));
    std::array<std::optional<WorkloadProfile>, kCount> results;
    std::array<bool, kCount> measured{};

    // Serve cache hits serially: the cache is a plain text file.
    if (!force)
        for (int i = 0; i < kCount; ++i)
            results[i] = readCache(path, kAll[i]);

    // Simulate the misses concurrently. Each profile run builds its own
    // model, compiler invocation and simulator Machine, so the threads
    // share no mutable state.
    {
        std::vector<std::jthread> threads;
        for (int i = 0; i < kCount; ++i) {
            if (results[i])
                continue;
            measured[i] = true;
            inform("profiling %s on the Ncore simulator (this can take "
                   "a minute; cached afterwards)",
                   workloadName(kAll[i]));
            threads.emplace_back([&results, i, w = kAll[i]] {
                results[i] =
                    w == Workload::Gnmt ? profileGnmt() : profileCnn(w);
            });
        }
    } // jthreads join here.

    // Append freshly measured profiles in workload order.
    for (int i = 0; i < kCount; ++i)
        if (measured[i])
            appendCache(path, *results[i]);

    std::vector<WorkloadProfile> out;
    out.reserve(kCount);
    for (int i = 0; i < kCount; ++i)
        out.push_back(*results[i]);
    return out;
}

ProfileReport
profileWorkloadReport(Workload w, ExecEngine engine)
{
    Machine::Options opts;
    opts.execEngine = engine;

    if (w == Workload::Gnmt) {
        // No gir graph: the per-matmul host marks inside
        // Gnmt::matmulOnNcore provide the scopes.
        Gnmt gnmt;
        Machine machine(chaNcoreConfig(), chaSocConfig(), nullptr,
                        false, opts);
        CycleProfile prof;
        machine.setProfile(&prof);
        gnmt.runOnNcore(machine, 6, 6);
        machine.setProfile(nullptr);
        ProfileReport rep = buildProfileReport(
            prof, nullptr, cacheKey(w), machine.config().clockHz);
        rep.engine = machine.execDescription();
        return rep;
    }

    SharedModel model = LoadedModel::create(compile(buildCnnGraph(w)));
    NcoreDevice dev(model, nullptr, opts);
    const Graph &graph = model->loadable().graph;
    const Tensor x = profileInput(graph);

    // Attach after power-up/load so the profile covers exactly the
    // inference (self-test and image loads are host/DMA work).
    CycleProfile prof;
    dev.machine.setProfile(&prof);
    dev.exec.infer({x});
    dev.machine.setProfile(nullptr);
    ProfileReport rep = buildProfileReport(prof, &graph, cacheKey(w),
                                           dev.machine.config().clockHz);
    rep.engine = dev.machine.execDescription();
    return rep;
}

} // namespace ncore
