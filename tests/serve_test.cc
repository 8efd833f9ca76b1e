/**
 * @file
 * Serving-engine tests: shared-loadable contexts (one model image, N
 * runtimes), bit-identity of engine outputs with serial execution,
 * per-device cycle accounting, schedule determinism across seeds,
 * engines and memo-cache states, and agreement of the executed Offline
 * throughput with the analytic multicore pipeline model.
 */

#include <gtest/gtest.h>

#include "gcl/compiler.h"
#include "mlperf/loadgen.h"
#include "runtime/delegate.h"
#include "runtime/driver.h"
#include "serve/engine.h"
#include "x86/reference.h"

namespace ncore {
namespace {

// ---------------- Test model ----------------

QuantParams
actQp(float lo = -2.0f, float hi = 2.0f)
{
    return chooseAsymmetricUint8(lo, hi);
}

TensorId
qconv(GraphBuilder &gb, Rng &rng, const std::string &name, TensorId in,
      int cout, int k, int stride, int pad, ActFn act)
{
    const GirTensor &x = gb.graph().tensor(in);
    QuantParams w_qp{0.02f, 128};
    Tensor w(Shape{cout, k, k, x.shape.dim(3)}, DType::UInt8, w_qp);
    w.fillRandom(rng);
    Tensor b(Shape{cout}, DType::Int32);
    for (int i = 0; i < cout; ++i)
        b.setIntAt(i, int32_t(rng.nextRange(-1000, 1000)));
    return gb.conv2d(name, in, gb.constant(name + ":w", w, w_qp),
                     gb.constant(name + ":b", b), stride, stride, pad,
                     pad, pad, pad, act, actQp());
}

/** Small conv net: enough layers to be representative, fast to run. */
Graph
buildServeNet(Rng &rng)
{
    GraphBuilder gb("servenet");
    TensorId x = gb.input("x", Shape{1, 8, 8, 16}, DType::UInt8,
                          actQp(-1.0f, 1.0f));
    TensorId c1 = qconv(gb, rng, "c1", x, 32, 3, 1, 1, ActFn::Relu);
    TensorId c2 = qconv(gb, rng, "c2", c1, 32, 1, 1, 0, ActFn::Relu);
    TensorId gap = gb.avgPool2d("gap", c2, 8, 8, 1, 1, 0, 0, 0, 0);
    TensorId flat = gb.reshape("flat", gap, Shape{1, 32});
    QuantParams fw_qp{0.01f, 125};
    Tensor fw(Shape{10, 32}, DType::UInt8, fw_qp);
    fw.fillRandom(rng);
    Tensor fb(Shape{10}, DType::Int32);
    for (int i = 0; i < 10; ++i)
        fb.setIntAt(i, int32_t(rng.nextRange(-3000, 3000)));
    TensorId fc = gb.fullyConnected("fc", flat,
                                    gb.constant("fw", fw, fw_qp),
                                    gb.constant("fb", fb), ActFn::None,
                                    actQp(-8.0f, 8.0f));
    gb.output(fc);
    return gb.take();
}

SharedModel
makeServeModel(bool force_streaming = false)
{
    Rng rng(42);
    Graph g = buildServeNet(rng);
    CompileOptions opts;
    opts.forceStreaming = force_streaming;
    return LoadedModel::create(compile(std::move(g), opts));
}

std::vector<std::vector<Tensor>>
makeSamples(const LoadedModel &model, int count, uint64_t seed = 7)
{
    const Graph &g = model.loadable().graph;
    const GirTensor &ti = g.tensor(g.inputs()[0]);
    Rng rng(seed);
    std::vector<std::vector<Tensor>> samples;
    for (int s = 0; s < count; ++s) {
        Tensor x(ti.shape, DType::UInt8, ti.quant);
        x.fillRandom(rng);
        samples.push_back({std::move(x)});
    }
    return samples;
}

// ---------------- Shared loadable ----------------

TEST(SharedLoadableTest, ContextsShareOneStreamImage)
{
    SharedModel model = makeServeModel(/*force_streaming=*/true);
    ASSERT_FALSE(model->loadable().subgraphs.empty());
    ASSERT_FALSE(model->loadable().subgraphs[0].weightsPersistent);
    const size_t stream_bytes =
        model->loadable().subgraphs[0].streamImage.size();
    ASSERT_GT(stream_bytes, 0u);

    SystemMemory mem(chaSocConfig().dmaWindowBytes);
    Machine m1(chaNcoreConfig(), chaSocConfig(), &mem);
    Machine m2(chaNcoreConfig(), chaSocConfig(), &mem);
    NcoreDriver d1(m1), d2(m2);
    d1.powerUp();
    d2.powerUp();

    NcoreRuntime r1(d1);
    r1.loadModel(model);
    int64_t bytes_after_first = mem.bytesAllocated();

    NcoreRuntime r2(d2);
    r2.loadModel(model);
    int64_t bytes_after_second = mem.bytesAllocated();

    // One DRAM copy of the streamed weight image: the second context
    // must not re-place it (its growth is per-context state only).
    EXPECT_LT(bytes_after_second - bytes_after_first,
              int64_t(stream_bytes));
    EXPECT_EQ(model->streamBases(mem), model->streamBases(mem));

    // Both contexts compute the reference answer.
    std::vector<std::vector<Tensor>> samples = makeSamples(*model, 1);
    Tensor want =
        ReferenceExecutor(model->loadable().graph).run(samples[0])[0];
    DelegateExecutor e1(r1, X86CostModel{});
    DelegateExecutor e2(r2, X86CostModel{});
    EXPECT_EQ(maxAbsDiff(e1.infer(samples[0]).outputs[0], want), 0.0f);
    EXPECT_EQ(maxAbsDiff(e2.infer(samples[0]).outputs[0], want), 0.0f);
}

TEST(SharedLoadableTest, SharedAndOwnedLoadMatchBitExactly)
{
    SharedModel model = makeServeModel(/*force_streaming=*/true);
    std::vector<std::vector<Tensor>> samples = makeSamples(*model, 2);

    // Owned path (per-context cache + private stream image).
    Tensor own0, own1;
    {
        Machine m(chaNcoreConfig(), chaSocConfig());
        NcoreDriver d(m);
        d.powerUp();
        NcoreRuntime rt(d);
        rt.loadModel(model->loadable());
        DelegateExecutor exec(rt, X86CostModel{});
        own0 = exec.infer(samples[0]).outputs[0];
        own1 = exec.infer(samples[1]).outputs[0];
    }
    // Shared path.
    {
        Machine m(chaNcoreConfig(), chaSocConfig());
        NcoreDriver d(m);
        d.powerUp();
        NcoreRuntime rt(d);
        rt.loadModel(model);
        DelegateExecutor exec(rt, X86CostModel{});
        EXPECT_EQ(maxAbsDiff(exec.infer(samples[0]).outputs[0], own0),
                  0.0f);
        EXPECT_EQ(maxAbsDiff(exec.infer(samples[1]).outputs[0], own1),
                  0.0f);
    }
}

// ---------------- Serving engine ----------------

TEST(ServeEngineTest, OfflineBitIdenticalToSerial)
{
    SharedModel model = makeServeModel();
    std::vector<std::vector<Tensor>> samples = makeSamples(*model, 3);

    // Serial golden: one runtime, each sample in turn.
    std::vector<Tensor> golden;
    {
        NcoreDevice dev(model);
        for (const auto &s : samples)
            golden.push_back(dev.exec.infer(s).outputs[0]);
    }

    ServeEngine engine(model, samples, /*max_devices=*/2);
    ServeConfig cfg;
    cfg.x86Workers = 2;
    cfg.devices = 2;
    cfg.maxBatch = 2;
    cfg.preSeconds = 10e-6;
    cfg.postSeconds = 5e-6;
    cfg.memoizeSampleResults = false;
    const int queries = 6; // two full passes over the sample set
    ServeResult fresh = engine.run(cfg, queries);
    ASSERT_EQ(int(fresh.outputs.size()), queries);
    for (int q = 0; q < queries; ++q) {
        ASSERT_EQ(fresh.outputs[size_t(q)].size(), 1u);
        EXPECT_EQ(maxAbsDiff(fresh.outputs[size_t(q)][0],
                             golden[size_t(q) % golden.size()]),
                  0.0f)
            << "query " << q;
    }

    // Memoized repeat queries are bit-identical to fresh execution.
    cfg.memoizeSampleResults = true;
    ServeResult memo = engine.run(cfg, queries);
    for (int q = 0; q < queries; ++q)
        EXPECT_EQ(maxAbsDiff(memo.outputs[size_t(q)][0],
                             fresh.outputs[size_t(q)][0]),
                  0.0f);
}

TEST(ServeEngineTest, DeterministicAcrossEnginesAndMemoState)
{
    SharedModel model = makeServeModel();
    ServeEngine engine(model, makeSamples(*model, 2),
                       /*max_devices=*/2);
    ServeEngine wider(model, makeSamples(*model, 2), /*max_devices=*/3);

    ServeConfig cfg;
    cfg.mode = ServeConfig::Mode::Server;
    cfg.x86Workers = 3;
    cfg.devices = 2;
    cfg.maxBatch = 4;
    cfg.arrivalRate = 2000.0;
    cfg.batchDelaySeconds = 1e-3;
    cfg.seed = 99;
    cfg.preSeconds = 40e-6;
    cfg.postSeconds = 20e-6;
    cfg.unhiddenSeconds = 5e-6;
    cfg.memoizeSampleResults = true;
    cfg.keepOutputs = false;
    const int queries = 32;

    ServeResult a = engine.run(cfg, queries); // memo cache cold
    ServeResult b = engine.run(cfg, queries); // warm: nothing executes
    ServeResult c = wider.run(cfg, queries);  // more contexts, cold

    ASSERT_EQ(a.records.size(), b.records.size());
    ASSERT_EQ(a.records.size(), c.records.size());
    for (size_t q = 0; q < a.records.size(); ++q) {
        for (const ServeResult *other : {&b, &c}) {
            const QueryRecord &ra = a.records[q];
            const QueryRecord &ro = other->records[q];
            EXPECT_EQ(ra.batch, ro.batch);
            EXPECT_EQ(ra.device, ro.device);
            EXPECT_EQ(ra.arrival, ro.arrival);
            EXPECT_EQ(ra.preStart, ro.preStart);
            EXPECT_EQ(ra.devStart, ro.devStart);
            EXPECT_EQ(ra.postDone, ro.postDone);
        }
    }
    EXPECT_EQ(a.batchSizes, b.batchSizes);
    EXPECT_EQ(a.batchSizes, c.batchSizes);
    EXPECT_EQ(a.ips, b.ips);
    EXPECT_EQ(a.ips, c.ips);
    EXPECT_EQ(a.p99, c.p99);
    EXPECT_EQ(prometheusText(a.stats), prometheusText(b.stats));
    EXPECT_EQ(prometheusText(a.stats), prometheusText(c.stats));

    // A different seed produces a different Poisson schedule.
    cfg.seed = 100;
    ServeResult d = engine.run(cfg, queries);
    EXPECT_NE(a.records[1].arrival, d.records[1].arrival);
}

TEST(ServeEngineTest, EachDeviceRetiresTheCyclesOfItsPlannedQueries)
{
    SharedModel model = makeServeModel(/*force_streaming=*/true);
    std::vector<std::vector<Tensor>> samples = makeSamples(*model, 3);

    // Per-sample device cycles from one serial context.
    std::vector<uint64_t> sample_cycles;
    {
        NcoreDevice dev(model);
        for (const auto &s : samples)
            sample_cycles.push_back(dev.exec.infer(s).timing.ncoreCycles);
    }

    ServeEngine engine(model, samples, /*max_devices=*/2);
    ServeConfig cfg;
    cfg.devices = 2;
    cfg.maxBatch = 2;
    cfg.memoizeSampleResults = false;
    cfg.keepOutputs = false;
    // Batches of 2,2,1 alternate devices, so device 0 runs 3 queries
    // and device 1 runs 2: any other split of the work shows up.
    const int queries = 5;
    uint64_t before[2] = {0, 0};
    for (int d = 0; d < 2; ++d)
        before[d] = engine.runtime(d).machine().perf().cycles;
    ServeResult r = engine.run(cfg, queries);

    uint64_t want[2] = {0, 0};
    int on_device[2] = {0, 0};
    for (const QueryRecord &rec : r.records) {
        ASSERT_EQ(rec.device, rec.batch % 2);
        want[rec.device] += sample_cycles[size_t(rec.sample)];
        ++on_device[rec.device];
    }
    EXPECT_EQ(on_device[0], 3);
    EXPECT_EQ(on_device[1], 2);
    for (int d = 0; d < 2; ++d)
        EXPECT_EQ(engine.runtime(d).machine().perf().cycles - before[d],
                  want[d])
            << "device " << d;
    EXPECT_EQ(r.deviceCycles, want[0] + want[1]);
}

TEST(ServeEngineTest, OfflineThroughputMatchesAnalyticModel)
{
    SharedModel model = makeServeModel();
    ServeEngine engine(model, makeSamples(*model, 1));

    // Measure the single-inference device seconds first.
    ServeConfig probe;
    probe.x86Workers = 1;
    probe.memoizeSampleResults = true;
    probe.keepOutputs = false;
    ServeResult one = engine.run(probe, 1);
    const double ncore_s =
        one.records[0].devDone - one.records[0].devStart;
    ASSERT_GT(ncore_s, 0.0);

    auto measure = [&](int workers, double x86_s, double unhidden_s) {
        ServeConfig cfg;
        cfg.x86Workers = workers;
        cfg.maxBatch = 8;
        cfg.preSeconds = 0.5 * x86_s;
        cfg.postSeconds = 0.5 * x86_s;
        cfg.unhiddenSeconds = unhidden_s;
        cfg.memoizeSampleResults = true;
        cfg.keepOutputs = false;
        OfflineResult r = runOffline(engine, cfg, 64);
        return r.ips;
    };
    auto analytic = [&](int workers, double x86_s, double unhidden_s) {
        double dev = 1.0 / (ncore_s + unhidden_s);
        double x86 = double(workers) / x86_s;
        return std::min(dev, x86);
    };

    // Device-bound: plenty of workers, small x86 share.
    {
        double x86 = 0.5 * ncore_s, unh = 0.2 * ncore_s;
        double got = measure(4, x86, unh);
        double want = analytic(4, x86, unh);
        EXPECT_NEAR(got, want, 0.15 * want);
        EXPECT_EQ(want, 1.0 / (ncore_s + unh)); // really device-bound
    }
    // x86-bound: one worker, x86 share dominates.
    {
        double x86 = 4.0 * ncore_s, unh = 0.1 * ncore_s;
        double got = measure(1, x86, unh);
        double want = analytic(1, x86, unh);
        EXPECT_NEAR(got, want, 0.15 * want);
        EXPECT_EQ(want, 1.0 / x86); // really x86-bound
    }
}

TEST(ServeEngineTest, ServerModeRespectsBatchWindowAndOrdering)
{
    SharedModel model = makeServeModel();
    ServeEngine engine(model, makeSamples(*model, 2));

    ServeConfig cfg;
    cfg.mode = ServeConfig::Mode::Server;
    cfg.x86Workers = 2;
    cfg.maxBatch = 4;
    cfg.arrivalRate = 5000.0;
    cfg.batchDelaySeconds = 400e-6;
    cfg.seed = 3;
    cfg.preSeconds = 20e-6;
    cfg.postSeconds = 10e-6;
    cfg.memoizeSampleResults = true;
    cfg.keepOutputs = false;
    const int queries = 48;
    ServeResult r = engine.run(cfg, queries);

    EXPECT_GT(r.ips, 0.0);
    EXPECT_LE(r.p50, r.p90);
    EXPECT_LE(r.p90, r.p99);
    EXPECT_GE(r.maxQueueDepth, 1u);

    // Arrivals strictly increase (continuous exponential gaps).
    for (size_t q = 1; q < r.records.size(); ++q)
        EXPECT_GT(r.records[q].arrival, r.records[q - 1].arrival);

    // Every batch obeys size and arrival-window limits, and every
    // query's timeline is causally ordered.
    std::vector<double> batch_first;
    for (const QueryRecord &rec : r.records) {
        if (size_t(rec.batch) >= batch_first.size())
            batch_first.resize(size_t(rec.batch) + 1, rec.arrival);
        EXPECT_LE(rec.arrival,
                  batch_first[size_t(rec.batch)] +
                      cfg.batchDelaySeconds);
        EXPECT_GE(rec.preStart, rec.arrival);
        EXPECT_GE(rec.devStart, rec.preDone);
        EXPECT_GE(rec.postStart, rec.devDone);
        EXPECT_GE(rec.postDone, rec.postStart);
    }
    int total = 0;
    for (int s : r.batchSizes) {
        EXPECT_GE(s, 1);
        EXPECT_LE(s, cfg.maxBatch);
        total += s;
    }
    EXPECT_EQ(total, queries);

    // Histogram sums to the batch count.
    int hist_total = 0;
    for (int c : r.batchSizeHistogram())
        hist_total += c;
    EXPECT_EQ(hist_total, int(r.batchSizes.size()));
}

} // namespace
} // namespace ncore
