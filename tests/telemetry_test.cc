/**
 * @file
 * Telemetry layer tests: the unified Stats registry (merge/diff
 * algebra, Prometheus text grammar), the ncore::json writer, the
 * Chrome trace-event exporter, the runtime's cycle-domain IRAM swap
 * spans, and — the load-bearing property — byte-identical
 * trace/metrics exports across engines with different device-context
 * counts and memo-cache states under one ServeConfig (the virtual-DES
 * determinism guarantee).
 */

#include <algorithm>
#include <cstdio>
#include <regex>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/stats.h"
#include "gcl/compiler.h"
#include "mlperf/loadgen.h"
#include "ncore/simd.h"
#include "runtime/device.h"
#include "serve/engine.h"
#include "telemetry/stats.h"
#include "telemetry/trace.h"
#include "x86/reference.h"

namespace ncore {
namespace {

// ---------------- Stats registry ----------------

TEST(TelemetryStatsTest, AddMergeDiff)
{
    Stats a;
    a.add(stats::kNcoreCycles, uint64_t(100));
    a.add(stats::kNcoreCycles, uint64_t(20));
    a.add(stats::kDmaBytesRead, uint64_t(4096));
    a.set(stats::kServeIps, 123.5);
    EXPECT_EQ(a.counter(stats::kNcoreCycles), 120u);
    EXPECT_DOUBLE_EQ(a.value(stats::kServeIps), 123.5);
    EXPECT_EQ(a.counter("never_published_total"), 0u);
    EXPECT_FALSE(a.contains("never_published_total"));

    Stats b;
    b.add(stats::kNcoreCycles, uint64_t(7));
    b.add(stats::kInvokes, uint64_t(1));
    b.merge(a);
    EXPECT_EQ(b.counter(stats::kNcoreCycles), 127u);
    EXPECT_EQ(b.counter(stats::kInvokes), 1u);
    EXPECT_EQ(b.counter(stats::kDmaBytesRead), 4096u);

    // diffFrom attributes a window and drops zero deltas.
    Stats after = b;
    after.add(stats::kNcoreCycles, uint64_t(13));
    Stats d = after.diffFrom(b);
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(d.counter(stats::kNcoreCycles), 13u);
    EXPECT_FALSE(d.contains(stats::kInvokes));
}

TEST(TelemetryStatsTest, PrometheusGrammar)
{
    Stats s;
    s.add(stats::kNcoreCycles, uint64_t(123456789));
    s.add(stats::kDmaBytesRead, uint64_t(1) << 32);
    s.add(stats::batchSizeCounter(3), uint64_t(4));
    s.add(stats::kEccCorrectedData, uint64_t(2));
    s.set(stats::kServeMakespan, 0.125);
    s.set(stats::latencyQuantile("0.99"), 1.5e-3);

    std::string text = prometheusText(s);
    // Every line is either a TYPE comment or a sample; families come
    // out once each, in name order, counters for *_total.
    std::regex type_re(
        R"(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge))");
    std::regex sample_re(
        R"([a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9].*)");
    size_t pos = 0, lines = 0, types = 0, samples = 0;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        ASSERT_NE(nl, std::string::npos) << "unterminated last line";
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        ++lines;
        if (line.rfind("# TYPE ", 0) == 0) {
            EXPECT_TRUE(std::regex_match(line, type_re)) << line;
            ++types;
        } else {
            EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
            ++samples;
        }
    }
    EXPECT_EQ(samples, s.size());
    // Labeled ECC + batch-size metrics still get one family TYPE each.
    EXPECT_EQ(types, 6u);
    EXPECT_NE(text.find("# TYPE ncore_cycles_total counter\n"
                        "ncore_cycles_total 123456789\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serve_makespan_seconds gauge\n"
                        "serve_makespan_seconds 0.125\n"),
              std::string::npos);
    // Exact integer formatting beyond 2^32 (byte-stability).
    EXPECT_NE(text.find("ncore_dma_read_bytes_total 4294967296\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_batch_size_total{size=\"3\"} 4\n"),
              std::string::npos);
}

// ---------------- ncore::json writer ----------------

TEST(TelemetryJsonTest, Escaping)
{
    EXPECT_EQ(JsonWriter::escaped("plain"), "plain");
    EXPECT_EQ(JsonWriter::escaped("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(JsonWriter::escaped("tab\tnl\ncr\r"), "tab\\tnl\\ncr\\r");
    EXPECT_EQ(JsonWriter::escaped("\x01"), "\\u0001");
}

TEST(TelemetryJsonTest, WriterShape)
{
    std::string out;
    JsonWriter j(&out);
    j.beginObject();
    j.field("name", "q\"1\"");
    j.field("n", uint64_t(42));
    j.field("x", 0.5, "%.3f");
    j.field("flag", true);
    j.key("list").beginArray();
    j.value(1);
    j.value(2);
    j.endArray();
    j.endObject();
    j.finish();
    EXPECT_EQ(out, "{\n"
                   "  \"name\": \"q\\\"1\\\"\",\n"
                   "  \"n\": 42,\n"
                   "  \"x\": 0.500,\n"
                   "  \"flag\": true,\n"
                   "  \"list\": [\n"
                   "    1,\n"
                   "    2\n"
                   "  ]\n"
                   "}\n");
}

// ---------------- Chrome trace exporter ----------------

TEST(TelemetryTraceTest, ChromeJsonShape)
{
    std::vector<TraceEvent> ev;
    ev.push_back(threadNameEvent(0, 3, "device 3"));
    TraceEvent x = completeEvent("pre", "x86", 10.0, 2.5, 0, 7);
    x.args.emplace_back("batch", "1");
    ev.push_back(x);

    std::string json = chromeTraceJson(ev);
    // Metadata events carry no ts/dur; complete events carry both.
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 10.000000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 2.500000"), std::string::npos);
    EXPECT_NE(json.find("\"batch\": \"1\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    // Balanced braces/brackets (structural sanity).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

// ---------------- Test model (mirrors serve_test) ----------------

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

/** `extra_convs` more 3x3 layers lengthen the program (IRAM swaps). */
Graph
buildTelemetryNet(Rng &rng, int extra_convs = 0)
{
    GraphBuilder gb("telemetrynet");
    TensorId x = gb.input("x", Shape{1, 8, 8, 16}, DType::UInt8,
                          actQp(-1.0f, 1.0f));
    TensorId c1 = qconv(gb, rng, "c1", x, 32, 3, 1, 1, ActFn::Relu);
    for (int i = 0; i < extra_convs; ++i)
        c1 = qconv(gb, rng, "x" + std::to_string(i), c1, 32, 3, 1, 1,
                   ActFn::Relu);
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
makeModel(bool force_streaming = false, int extra_convs = 0)
{
    Rng rng(42);
    Graph g = buildTelemetryNet(rng, extra_convs);
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

// ---------------- Machine and runtime ----------------

TEST(TelemetryMachineTest, OptionsInstallEngine)
{
    Machine m(chaNcoreConfig(), chaSocConfig(), nullptr, false,
              {ExecEngine::Generic});
    EXPECT_FALSE(m.usingFastPath());
}

TEST(TelemetryMachineTest, PublishStatsReportsExecEngineInfo)
{
    // Exported snapshots are self-describing: an info gauge names the
    // exec engine and the SIMD kernel tier the Machine ran with.
    Machine gen(chaNcoreConfig(), chaSocConfig(), nullptr, false,
                {ExecEngine::Generic});
    Stats s;
    gen.publishStats(s);
    EXPECT_EQ(s.value(stats::execEngineInfo("generic", "scalar")), 1.0);

    Machine fast(chaNcoreConfig(), chaSocConfig());
    Stats sf;
    fast.publishStats(sf);
    EXPECT_EQ(sf.value(stats::execEngineInfo(
                  "specialized", simdTierName(fast.simdTier()))),
              1.0);
    EXPECT_EQ(fast.execDescription(),
              std::string("specialized/") +
                  simdTierName(fast.simdTier()));
}

TEST(TelemetryMachineTest, RuntimeRecordsIramBankSwapsOfStreamingModel)
{
    SharedModel model =
        makeModel(/*force_streaming=*/true, /*extra_convs=*/8);
    std::vector<std::vector<Tensor>> samples = makeSamples(*model, 1);

    // Each program is streamed through the double-buffered IRAM: two
    // initial fills, then one refill per bank the sequencer leaves
    // while segments remain — each refill one "iram_swap" span.
    uint64_t want_swaps = 0;
    for (const CompiledSubgraph &sg : model->loadable().subgraphs) {
        size_t segs = (sg.code.size() + Machine::kBankInstrs - 1) /
                      Machine::kBankInstrs;
        want_swaps += segs > 2 ? uint64_t(segs - 2) : 0;
    }
    ASSERT_GE(want_swaps, 2u) << "model no longer refills IRAM banks";

    NcoreDevice dev(model);
    InferenceResult res = dev.exec.infer(samples[0]);
    ASSERT_FALSE(res.outputs.empty());
    EXPECT_EQ(res.counters.counter(stats::kIramSwaps), want_swaps);

    // Swaps are zero-length instants on the cycle timeline, in order,
    // each inside the program span whose bank crossing caused it.
    std::vector<const TraceSpan *> swaps, programs;
    for (const TraceSpan &sp : res.spans) {
        if (sp.cat != SpanCat::NcoreDetail)
            continue;
        if (sp.name == "iram_swap")
            swaps.push_back(&sp);
        else if (sp.name == "program")
            programs.push_back(&sp);
    }
    ASSERT_EQ(swaps.size(), want_swaps);
    for (size_t i = 0; i < swaps.size(); ++i) {
        EXPECT_EQ(swaps[i]->dur, 0.0);
        if (i > 0) {
            EXPECT_LE(swaps[i - 1]->start, swaps[i]->start);
        }
        bool inside = false;
        for (const TraceSpan *p : programs)
            inside |= swaps[i]->start > p->start &&
                      swaps[i]->start < p->start + p->dur;
        EXPECT_TRUE(inside) << "swap " << i;
    }
}

// ---------------- Serving-engine telemetry ----------------

ServeConfig
telemetryCfg()
{
    ServeConfig cfg;
    cfg.mode = ServeConfig::Mode::Server;
    cfg.x86Workers = 2;
    cfg.devices = 1;
    cfg.maxBatch = 4;
    cfg.arrivalRate = 8000.0;
    cfg.batchDelaySeconds = 300e-6;
    cfg.seed = 11;
    cfg.preSeconds = 40e-6;
    cfg.postSeconds = 25e-6;
    cfg.memoizeSampleResults = true;
    cfg.keepOutputs = false;
    return cfg;
}

TEST(TelemetryServeTest, QuerySpansPartitionLatencyExactly)
{
    SharedModel model = makeModel();
    ServeEngine engine(model, makeSamples(*model, 3), 1);
    ServeResult r = engine.run(telemetryCfg(), 24);
    ASSERT_EQ(int(r.records.size()), 24);

    for (const QueryRecord &q : r.records) {
        std::vector<TraceSpan> spans = r.querySpans(q.query);
        ASSERT_EQ(spans.size(), 6u);
        // Exact boundary equality with the pipeline record: each span
        // starts on a record timestamp and spans are adjacent.
        EXPECT_EQ(spans[0].start, q.arrival);
        EXPECT_EQ(spans[1].start, q.preStart);
        EXPECT_EQ(spans[2].start, q.preDone);
        EXPECT_EQ(spans[3].start, q.devStart);
        EXPECT_EQ(spans[4].start, q.devDone);
        EXPECT_EQ(spans[5].start, q.postStart);
        double sum = 0;
        for (const TraceSpan &sp : spans) {
            EXPECT_GE(sp.dur, 0.0);
            sum += sp.dur;
        }
        EXPECT_DOUBLE_EQ(sum, q.latency());
        // Device-side detail stays inside the device span.
        for (const TraceSpan &dev : r.deviceSpans[size_t(q.query)]) {
            EXPECT_GE(dev.start, -1e-12);
            EXPECT_LE(dev.start + dev.dur,
                      spans[3].dur + 1e-9);
        }
    }
}

TEST(TelemetryServeTest, SpanSumsReproducePercentiles)
{
    SharedModel model = makeModel();
    ServeEngine engine(model, makeSamples(*model, 3), 1);
    ServeResult r = engine.run(telemetryCfg(), 32);

    SampleStats lat;
    for (const QueryRecord &q : r.records) {
        double sum = 0;
        for (const TraceSpan &sp : r.querySpans(q.query))
            sum += sp.dur;
        lat.add(sum);
    }
    EXPECT_DOUBLE_EQ(lat.percentile(0.50), r.p50);
    EXPECT_DOUBLE_EQ(lat.percentile(0.99), r.p99);
    EXPECT_DOUBLE_EQ(r.stats.value(stats::latencyQuantile("0.5")),
                     r.p50);
    EXPECT_DOUBLE_EQ(r.stats.value(stats::latencyQuantile("0.99")),
                     r.p99);
}

TEST(TelemetryServeTest, StatsRegistryConsistency)
{
    SharedModel model = makeModel();
    ServeEngine engine(model, makeSamples(*model, 3), 1);
    ServeConfig cfg = telemetryCfg();
    ServeResult r = engine.run(cfg, 24);

    EXPECT_EQ(r.stats.counter(stats::kServeQueries), 24u);
    EXPECT_EQ(r.stats.counter(stats::kServeBatches),
              r.batchSizes.size());
    EXPECT_EQ(r.stats.counter(stats::kNcoreCycles), r.deviceCycles);
    // >= one runtime invocation per query (virtual totals: memoized
    // repeats count), a whole number of invocations per query.
    EXPECT_GE(r.stats.counter(stats::kInvokes), uint64_t(24));
    EXPECT_EQ(r.stats.counter(stats::kInvokes) % 24, 0u);
    EXPECT_DOUBLE_EQ(r.stats.value(stats::kServeMakespan), r.seconds);
    EXPECT_DOUBLE_EQ(r.stats.value(stats::kServeIps), r.ips);
    EXPECT_EQ(r.stats.counter(stats::kServeQueueDepthPeak),
              uint64_t(r.maxQueueDepth));
    // Batch-size histogram counters match the histogram.
    std::vector<int> hist = r.batchSizeHistogram();
    for (int s = 1; s < int(hist.size()); ++s) {
        if (hist[size_t(s)] > 0) {
            EXPECT_EQ(r.stats.counter(stats::batchSizeCounter(s)),
                      uint64_t(hist[size_t(s)]));
        }
    }
    // The hardware counter families are always present (zero-seeded),
    // so Prometheus snapshots expose them even when zero.
    EXPECT_TRUE(r.stats.contains(stats::kEccUncorrectableWeight));
    EXPECT_TRUE(r.stats.contains(stats::kNcoreDmaFenceStalls));
}

TEST(TelemetryServeTest, TraceBytesIdenticalAcrossEnginesAndMemoState)
{
    const ServeConfig cfg = telemetryCfg();

    // Engine A: 2 device contexts available. Engine B: 1 context.
    // Same ServeConfig (1 device used) => the exported artifacts must
    // be byte-equal.
    SharedModel model_a = makeModel();
    ServeEngine a(model_a, makeSamples(*model_a, 3), 2);
    ServeResult ra = a.run(cfg, 24);

    SharedModel model_b = makeModel();
    ServeEngine b(model_b, makeSamples(*model_b, 3), 1);
    ServeResult rb = b.run(cfg, 24);

    EXPECT_EQ(prometheusText(ra.stats), prometheusText(rb.stats));
    EXPECT_EQ(chromeTraceJson(ra.trace()), chromeTraceJson(rb.trace()));

    // And re-running the same engine is also byte-stable (memo cache
    // warm vs cold must not leak into the virtual timeline).
    ServeResult ra2 = a.run(cfg, 24);
    EXPECT_EQ(prometheusText(ra.stats), prometheusText(ra2.stats));
    EXPECT_EQ(chromeTraceJson(ra.trace()), chromeTraceJson(ra2.trace()));
}

TEST(TelemetryServeTest, ExportServeTelemetryWritesBothFiles)
{
    SharedModel model = makeModel();
    ServeEngine engine(model, makeSamples(*model, 2), 1);
    ServeConfig cfg = telemetryCfg();
    cfg.mode = ServeConfig::Mode::Offline;
    ServeResult detail;
    runOffline(engine, cfg, 8, &detail);

    std::string trace_path =
        testing::TempDir() + "telemetry_trace.json";
    std::string metrics_path =
        testing::TempDir() + "telemetry_metrics.txt";
    ASSERT_TRUE(exportServeTelemetry(detail, trace_path, metrics_path));

    auto slurp = [](const std::string &p) {
        FILE *f = fopen(p.c_str(), "rb");
        EXPECT_NE(f, nullptr) << p;
        std::string s;
        char buf[4096];
        size_t n;
        while (f && (n = fread(buf, 1, sizeof buf, f)) > 0)
            s.append(buf, n);
        if (f)
            fclose(f);
        return s;
    };
    EXPECT_EQ(slurp(trace_path), chromeTraceJson(detail.trace()));
    EXPECT_EQ(slurp(metrics_path), prometheusText(detail.stats));
    remove(trace_path.c_str());
    remove(metrics_path.c_str());
}

} // namespace
} // namespace ncore
