/**
 * @file
 * End-to-end runtime tests: driver gatekeeping, full compile-load-
 * invoke flows through the delegate (persistent and streamed weights),
 * bit-exact agreement with the pure-x86 reference execution, and the
 * event-log based timing methodology.
 */

#include <cstdlib>
#include <string_view>

#include <gtest/gtest.h>

#include "gcl/compiler.h"
#include "runtime/delegate.h"
#include "runtime/driver.h"
#include "x86/reference.h"

namespace ncore {
namespace {

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

TensorId
qdwconv(GraphBuilder &gb, Rng &rng, const std::string &name, TensorId in,
        int k, int stride, int pad, ActFn act)
{
    const GirTensor &x = gb.graph().tensor(in);
    QuantParams w_qp{0.015f, 130};
    Tensor w(Shape{1, k, k, x.shape.dim(3)}, DType::UInt8, w_qp);
    w.fillRandom(rng);
    Tensor b(Shape{x.shape.dim(3)}, DType::Int32);
    for (int64_t i = 0; i < x.shape.dim(3); ++i)
        b.setIntAt(i, int32_t(rng.nextRange(-500, 500)));
    return gb.depthwiseConv2d(
        name, in, gb.constant(name + ":w", w, w_qp),
        gb.constant(name + ":b", b), stride, stride, pad, pad, pad, pad,
        act, actQp());
}

/** A small but representative network exercising every kernel type. */
Graph
buildTestNet(Rng &rng)
{
    GraphBuilder gb("testnet");
    QuantParams in_qp = actQp(-1.0f, 1.0f);
    TensorId x = gb.input("x", Shape{1, 16, 16, 16}, DType::UInt8,
                          in_qp);
    TensorId c1 = qconv(gb, rng, "c1", x, 64, 3, 1, 1, ActFn::Relu);
    TensorId dw = qdwconv(gb, rng, "dw", c1, 3, 2, 1, ActFn::Relu6);
    TensorId c2 = qconv(gb, rng, "c2", dw, 64, 1, 1, 0, ActFn::None);
    TensorId sc = qconv(gb, rng, "sc", c1, 64, 1, 2, 0, ActFn::None);
    // Residual add requires matching quant; the builder picks fresh
    // qps so use add with explicit output qp.
    TensorId sum = gb.add("sum", c2, sc, ActFn::Relu, actQp());
    TensorId mp = gb.maxPool2d("mp", sum, 3, 3, 2, 2, 1, 1, 1, 1);
    TensorId gap = gb.avgPool2d("gap", mp, 4, 4, 1, 1, 0, 0, 0, 0);
    TensorId flat = gb.reshape("flat", gap, Shape{1, 64});
    QuantParams fw_qp{0.01f, 125};
    Tensor fw(Shape{40, 64}, DType::UInt8, fw_qp);
    fw.fillRandom(rng);
    Tensor fb(Shape{40}, DType::Int32);
    for (int i = 0; i < 40; ++i)
        fb.setIntAt(i, int32_t(rng.nextRange(-3000, 3000)));
    TensorId fc = gb.fullyConnected("fc", flat,
                                    gb.constant("fw", fw, fw_qp),
                                    gb.constant("fb", fb), ActFn::None,
                                    actQp(-8.0f, 8.0f));
    TensorId sm = gb.softmax("sm", fc, 1.0f);
    gb.output(sm);
    return gb.take();
}

class RuntimeTest : public ::testing::Test
{
  protected:
    RuntimeTest()
        : machine(chaNcoreConfig(), chaSocConfig()), driver(machine)
    {
        driver.powerUp();
    }

    Machine machine;
    NcoreDriver driver;
};

TEST_F(RuntimeTest, DriverEnumeratesAsCoprocessor)
{
    EXPECT_EQ(driver.identity().classCode, 0x0b4000u);
    EXPECT_EQ(driver.identity().vendorId, 0x1106);
}

TEST_F(RuntimeTest, DriverSelfTestPasses)
{
    EXPECT_TRUE(driver.selfTest());
}

TEST_F(RuntimeTest, SingleOwnerEnforced)
{
    NcoreRuntime rt(driver);
    EXPECT_DEATH(NcoreRuntime second(driver), "already owned");
}

TEST_F(RuntimeTest, EndToEndMatchesReference)
{
    Rng rng(42);
    Graph g = buildTestNet(rng);
    g.verify();

    Tensor x(Shape{1, 16, 16, 16}, DType::UInt8, actQp(-1.0f, 1.0f));
    Rng data_rng(7);
    x.fillRandom(data_rng);

    // Pure x86 execution on the optimized graph = golden.
    Loadable ld = compile(std::move(g));
    Tensor want = ReferenceExecutor(ld.graph).run({x})[0];

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});
    InferenceResult res = exec.infer({x});

    ASSERT_EQ(res.outputs.size(), 1u);
    // Softmax runs in float on x86 in both paths over identical
    // quantized FC outputs, so results must agree exactly.
    EXPECT_EQ(maxAbsDiff(res.outputs[0], want), 0.0f);

    // Timing fields populated sensibly.
    EXPECT_GT(res.timing.ncoreCycles, 0u);
    EXPECT_GT(res.timing.ncoreMacs, 0u);
    EXPECT_GT(res.timing.x86OpSeconds, 0.0);
    EXPECT_GT(res.timing.layoutSeconds, 0.0);
    EXPECT_LT(res.timing.total(), 1.0);
}

TEST_F(RuntimeTest, StreamedWeightsMatchPersistent)
{
    Rng rng(43);
    Graph g1 = buildTestNet(rng);
    Rng rng2(43);
    Graph g2 = buildTestNet(rng2);

    Tensor x(Shape{1, 16, 16, 16}, DType::UInt8, actQp(-1.0f, 1.0f));
    Rng data_rng(8);
    x.fillRandom(data_rng);

    Loadable persistent = compile(std::move(g1));
    CompileOptions stream_opts;
    stream_opts.forceStreaming = true;
    Loadable streamed = compile(std::move(g2), stream_opts);

    ASSERT_TRUE(persistent.subgraphs[0].weightsPersistent);
    ASSERT_FALSE(streamed.subgraphs[0].weightsPersistent);

    Tensor out_p, out_s;
    uint64_t dma_bytes = 0;
    {
        NcoreRuntime rt(driver);
        rt.loadModel(persistent);
        DelegateExecutor exec(rt, X86CostModel{});
        out_p = exec.infer({x}).outputs[0];
    }
    {
        NcoreRuntime rt(driver);
        rt.loadModel(streamed);
        DelegateExecutor exec(rt, X86CostModel{});
        InferenceResult r = exec.infer({x});
        out_s = r.outputs[0];
        dma_bytes = r.timing.dmaBytes;
    }

    EXPECT_EQ(maxAbsDiff(out_p, out_s), 0.0f);
    // Streamed weights really moved over DMA.
    EXPECT_GT(dma_bytes,
              streamed.subgraphs[0].streamImage.size() / 2);
}

TEST_F(RuntimeTest, RingStreamsLargeImagesBitExact)
{
    // Two 3x3 768->768 convs: each weight image is 1,308 rows, so the
    // second wraps to row 0 of the weight ring over the first and is
    // kicked only after the first layer has run.
    Rng rng(45);
    GraphBuilder gb("wide");
    QuantParams in_qp = actQp(-1.0f, 1.0f);
    TensorId x_id = gb.input("x", Shape{1, 4, 4, 768}, DType::UInt8,
                             in_qp);
    TensorId a = qconv(gb, rng, "a", x_id, 768, 3, 1, 1, ActFn::Relu);
    gb.output(qconv(gb, rng, "b", a, 768, 3, 1, 1, ActFn::None));
    CompileOptions opts;
    opts.forceStreaming = true;
    Loadable ld = compile(gb.take(), opts);
    const CompiledSubgraph &sg = ld.subgraphs[0];
    ASSERT_EQ(sg.chunks.size(), 2u);
    EXPECT_EQ(sg.chunks[0].rows, 1308u);
    EXPECT_EQ(sg.chunks[1].targetRow, 0u);

    Tensor x(Shape{1, 4, 4, 768}, DType::UInt8, in_qp);
    Rng data_rng(9);
    x.fillRandom(data_rng);
    Tensor want = ReferenceExecutor(ld.graph).run({x})[0];

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});
    InferenceResult res = exec.infer({x});
    EXPECT_EQ(maxAbsDiff(res.outputs[0], want), 0.0f);
    EXPECT_EQ(res.timing.dmaBytes, sg.streamImage.size());
}

TEST_F(RuntimeTest, EventLogBracketsSubgraph)
{
    Rng rng(44);
    Graph g = buildTestNet(rng);
    Loadable ld = compile(std::move(g));

    Tensor x(Shape{1, 16, 16, 16}, DType::UInt8, actQp(-1.0f, 1.0f));
    Rng data_rng(9);
    x.fillRandom(data_rng);

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    InvokeStats stats;
    rt.invoke(0, {x}, &stats);

    ASSERT_GE(stats.events.size(), 2u);
    EXPECT_EQ(stats.events.front().tag, CompiledSubgraph::kStartTag);
    EXPECT_EQ(stats.events.back().tag, CompiledSubgraph::kEndTag);
    // Layer markers are strictly ordered in time.
    for (size_t i = 1; i < stats.events.size(); ++i)
        EXPECT_GE(stats.events[i].cycle, stats.events[i - 1].cycle);

    // The event log lets the runtime attribute cycles per layer
    // (the Table IX methodology): total bracketed time equals the
    // invocation cycles minus host-side work.
    uint64_t bracketed = stats.events.back().cycle -
                         stats.events.front().cycle;
    EXPECT_LE(bracketed, stats.cycles());
    EXPECT_GT(bracketed, stats.cycles() / 2);

    // The unified counter registry carries the same attribution as
    // the dedicated counters did, plus the invocation spans.
    EXPECT_EQ(stats.cycles(),
              stats.counters.counter(ncore::stats::kNcoreCycles));
    EXPECT_EQ(stats.counters.counter(ncore::stats::kInvokes), 1u);
    ASSERT_FALSE(stats.spans.empty());
    // The last span is the main program window; it covers the
    // bracketed event range.
    const CycleSpan *program = nullptr;
    for (const CycleSpan &s : stats.spans)
        if (std::string_view(s.name) == "program")
            program = &s;
    ASSERT_NE(program, nullptr);
    EXPECT_LE(program->cycles(), stats.cycles());
    EXPECT_GE(program->cycles(), bracketed);
}

TEST_F(RuntimeTest, StemChainMatchesReference)
{
    // Regression case: a stem conv followed by packed/repacked
    // layers and a padded max-pool + global average pool. This chain
    // once exposed a stale circular-wrap address-register leak
    // between kernels.
    Rng rng(50);
    GraphBuilder gb("stemchain");
    QuantParams in_qp = actQp(-1.0f, 1.0f);
    TensorId x = gb.input("x", Shape{1, 16, 16, 16}, DType::UInt8,
                          in_qp);
    TensorId c1 = qconv(gb, rng, "c1", x, 64, 3, 1, 1, ActFn::Relu);
    TensorId y = qdwconv(gb, rng, "dw", c1, 3, 2, 1, ActFn::Relu6);
    y = qconv(gb, rng, "c2", y, 64, 1, 1, 0, ActFn::None);
    TensorId sc = qconv(gb, rng, "sc", c1, 64, 1, 2, 0, ActFn::None);
    y = gb.add("sum", y, sc, ActFn::Relu, actQp());
    y = gb.maxPool2d("mp", y, 3, 3, 2, 2, 1, 1, 1, 1);
    y = gb.avgPool2d("gap", y, 4, 4, 1, 1, 0, 0, 0, 0);
    gb.output(y);
    Graph g = gb.take();

    Tensor xv(Shape{1, 16, 16, 16}, DType::UInt8, in_qp);
    Rng dr(51);
    xv.fillRandom(dr);

    Loadable ld = compile(std::move(g));
    Tensor want = ReferenceExecutor(ld.graph).run({xv})[0];

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});
    InferenceResult res = exec.infer({xv});
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(res.outputs[0].intAt(i), want.intAt(i)) << i;
}

TEST_F(RuntimeTest, BottleneckBlock1MatchesReference)
{
    // A ResNet stage-transition block, 28 -> 14: its stride-2 `b` (3x3
    // pad 1, after an explicit pad like the MLPerf graph) and `proj`
    // (1x1) write halo-free rows from phase copies of their plain
    // 28-wide inputs; relayouts then move them into dense rows for
    // `c` and the add.
    Rng rng(52);
    GraphBuilder gb("block1");
    QuantParams in_qp = actQp(-1.0f, 1.0f);
    TensorId x = gb.input("x", Shape{1, 28, 28, 64}, DType::UInt8,
                          in_qp);
    TensorId proj = qconv(gb, rng, "proj", x, 128, 1, 2, 0, ActFn::None);
    TensorId t = qconv(gb, rng, "a", x, 64, 1, 1, 0, ActFn::Relu);
    t = gb.pad("pad", t, 1, 1, 1, 1);
    t = qconv(gb, rng, "b", t, 64, 3, 2, 0, ActFn::Relu);
    t = qconv(gb, rng, "c", t, 128, 1, 1, 0, ActFn::None);
    gb.output(gb.add("add", t, proj, ActFn::Relu, actQp()));
    Graph g = gb.take();

    Tensor xv(Shape{1, 28, 28, 64}, DType::UInt8, in_qp);
    Rng dr(53);
    xv.fillRandom(dr);

    Loadable ld = compile(std::move(g));
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    for (const Node &n : ld.graph.nodes()) {
        if (n.name == "b" || n.name == "proj") {
            EXPECT_TRUE(ld.subgraphs[0].layouts.at(n.outputs[0]).dense)
                << n.name;
        }
    }
    Tensor want = ReferenceExecutor(ld.graph).run({xv})[0];

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});
    InferenceResult res = exec.infer({xv});
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(res.outputs[0].intAt(i), want.intAt(i)) << i;
}

TEST_F(RuntimeTest, Rank2FcInputRunsAsKSplitMatvec)
{
    // A rank-2 subgraph input is a 1x1 interleaved tensor, so the FC
    // consuming it runs on Ncore as a K-split matvec like every other
    // FC: its program folds the four accumulator quarters.
    const int cin = 1024, cout = 1000;
    QuantParams in_qp = actQp(-4.0f, 4.0f);
    QuantParams w_qp{0.01f, 120};
    Rng rng(35);

    GraphBuilder gb("fc");
    TensorId x = gb.input("x", Shape{1, cin}, DType::UInt8, in_qp);
    Tensor w(Shape{cout, cin}, DType::UInt8, w_qp);
    w.fillRandom(rng);
    Tensor b(Shape{cout}, DType::Int32);
    for (int i = 0; i < cout; ++i)
        b.setIntAt(i, int32_t(rng.nextRange(-5000, 5000)));
    TensorId y = gb.fullyConnected("fc", x, gb.constant("w", w, w_qp),
                                   gb.constant("b", b), ActFn::None,
                                   actQp(-10.0f, 10.0f));
    gb.output(y);

    Loadable ld = compile(gb.take());
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    const CompiledSubgraph &sg = ld.subgraphs[0];
    const TensorLayout &in_lay = sg.layouts.at(sg.inputs[0]);
    EXPECT_EQ(in_lay.kind, LayoutKind::Interleaved);
    EXPECT_FALSE(in_lay.packed());
    int folds = 0;
    for (const EncodedInstruction &e : sg.code) {
        const Instruction in = decodeInstruction(e);
        folds += in.npu.op == NpuOp::AccLoadBias &&
                 biasModeAccumulates(BiasMode(uint8_t(in.npu.b)));
    }
    EXPECT_EQ(folds, 3); // One chunk of 1000 outputs, three folds.

    Tensor xv(Shape{1, cin}, DType::UInt8, in_qp);
    Rng dr(36);
    xv.fillRandom(dr);
    Tensor want = ReferenceExecutor(ld.graph).run({xv})[0];

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});
    InferenceResult res = exec.infer({xv});
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(res.outputs[0].intAt(i), want.intAt(i)) << i;
}

TEST_F(RuntimeTest, SaturatingFcStaysOnX86)
{
    // Biases near the int32 rails let partial sums saturate, so the
    // K-split FC's reordered sum could differ from the reference's:
    // the FC runs in the x86 reference kernel, which sums in channel
    // order.
    const int cin = 512, cout = 300;
    QuantParams in_qp = actQp(-4.0f, 4.0f);
    QuantParams w_qp{0.01f, 120};
    Rng rng(37);

    GraphBuilder gb("satfc");
    TensorId x = gb.input("x", Shape{1, cin}, DType::UInt8, in_qp);
    Tensor w(Shape{cout, cin}, DType::UInt8, w_qp);
    w.fillRandom(rng);
    Tensor b(Shape{cout}, DType::Int32);
    for (int i = 0; i < cout; ++i)
        b.setIntAt(i, i % 2 ? INT32_MAX - int32_t(rng.nextBelow(4000000))
                            : INT32_MIN + int32_t(rng.nextBelow(4000000)));
    TensorId y = gb.fullyConnected("fc", x, gb.constant("w", w, w_qp),
                                   gb.constant("b", b), ActFn::None,
                                   actQp(-10.0f, 10.0f));
    gb.output(y);

    Loadable ld = compile(gb.take());
    EXPECT_TRUE(ld.subgraphs.empty());
    ASSERT_EQ(ld.nodeAssignment.size(), 1u);
    EXPECT_EQ(ld.nodeAssignment[0], -1);

    Tensor xv(Shape{1, cin}, DType::UInt8, in_qp);
    Rng dr(38);
    xv.fillRandom(dr);
    Tensor want = ReferenceExecutor(ld.graph).run({xv})[0];

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});
    InferenceResult res = exec.infer({xv});
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(res.outputs[0].intAt(i), want.intAt(i)) << i;
}

TEST_F(RuntimeTest, BatchedFcStaysOnX86)
{
    // The K-split matvec consumes one vector: an FC over a [2, 64]
    // batch runs in the x86 reference kernel.
    QuantParams in_qp = actQp(-4.0f, 4.0f);
    QuantParams w_qp{0.01f, 120};
    Rng rng(62);

    GraphBuilder gb("batchfc");
    TensorId x = gb.input("x", Shape{2, 64}, DType::UInt8, in_qp);
    QuantParams c_qp{0.02f, 128};
    Tensor cw(Shape{64, 64}, DType::UInt8, c_qp);
    cw.fillRandom(rng);
    TensorId h = gb.fullyConnected("fc0", x, gb.constant("cw", cw, c_qp),
                                   kNoTensor, ActFn::None, actQp());
    Tensor w(Shape{40, 64}, DType::UInt8, w_qp);
    w.fillRandom(rng);
    TensorId y = gb.fullyConnected("fc1", h, gb.constant("w", w, w_qp),
                                   kNoTensor, ActFn::None,
                                   actQp(-10.0f, 10.0f));
    gb.output(y);

    Loadable ld = compile(gb.take());
    for (int a : ld.nodeAssignment)
        EXPECT_EQ(a, -1);

    Tensor xv(Shape{2, 64}, DType::UInt8, in_qp);
    Rng dr(63);
    xv.fillRandom(dr);
    Tensor want = ReferenceExecutor(ld.graph).run({xv})[0];

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});
    InferenceResult res = exec.infer({xv});
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(res.outputs[0].intAt(i), want.intAt(i)) << i;
}

TEST_F(RuntimeTest, QuantizedSigmoidStaysOnX86)
{
    // Elementwise LUT activations are not lowered to Ncore: the conv
    // runs on the device and the sigmoid in the x86 reference kernel.
    Rng rng(60);
    GraphBuilder gb("convsig");
    QuantParams in_qp = actQp(-1.0f, 1.0f);
    TensorId x = gb.input("x", Shape{1, 16, 16, 64}, DType::UInt8,
                          in_qp);
    TensorId c = qconv(gb, rng, "c", x, 64, 3, 1, 1, ActFn::None);
    TensorId y = gb.sigmoid("sig", c);
    gb.output(y);
    Graph g = gb.take();
    g.tensor(y).quant = chooseAsymmetricUint8(0.0f, 1.0f);

    Loadable ld = compile(std::move(g));
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    for (size_t i = 0; i < ld.graph.nodes().size(); ++i) {
        OpKind k = ld.graph.nodes()[i].kind;
        EXPECT_EQ(ld.nodeAssignment[i], k == OpKind::Sigmoid ? -1 : 0)
            << opKindName(k);
    }

    Tensor xv(Shape{1, 16, 16, 64}, DType::UInt8, in_qp);
    Rng dr(61);
    xv.fillRandom(dr);
    Tensor want = ReferenceExecutor(ld.graph).run({xv})[0];

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});
    InferenceResult res = exec.infer({xv});
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(res.outputs[0].intAt(i), want.intAt(i)) << i;
}

TEST_F(RuntimeTest, TwoSubgraphsRunOnTheirOwnImages)
{
    // A conv with a fused sigmoid stays on x86 and splits the model into
    // two Ncore subgraphs. Both use requant slot 0 and weight row 0, so
    // each invoke must load its own subgraph's images, on every run.
    Rng rng(62);
    GraphBuilder gb("split");
    QuantParams in_qp = actQp(-1.0f, 1.0f);
    TensorId x = gb.input("x", Shape{1, 8, 8, 32}, DType::UInt8, in_qp);
    TensorId a = qconv(gb, rng, "a", x, 32, 3, 1, 1, ActFn::Relu);
    TensorId s = qconv(gb, rng, "s", a, 32, 1, 1, 0, ActFn::Sigmoid);
    TensorId y = qconv(gb, rng, "b", s, 32, 3, 1, 1, ActFn::None);
    gb.output(y);

    Loadable ld = compile(gb.take());
    ASSERT_EQ(ld.subgraphs.size(), 2u);

    Tensor xv(Shape{1, 8, 8, 32}, DType::UInt8, in_qp);
    Rng dr(63);
    xv.fillRandom(dr);
    Tensor want = ReferenceExecutor(ld.graph).run({xv})[0];

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});
    for (int run = 0; run < 2; ++run) {
        InferenceResult res = exec.infer({xv});
        for (int64_t i = 0; i < want.numElements(); ++i)
            ASSERT_EQ(res.outputs[0].intAt(i), want.intAt(i))
                << "run " << run << " byte " << i;
    }
}

TEST_F(RuntimeTest, SubgraphSwitchChargesImageReload)
{
    // Switching the resident subgraph rewrites its mask rows and
    // persistent weights from the host. The delegate charges those bytes
    // as an image_reload layout span just before the subgraph's device
    // span, at the host layout-write rate; a model with one subgraph
    // never switches and gets no such span.
    auto reloads = [](const InferenceResult &r) {
        std::vector<TraceSpan> out;
        for (const TraceSpan &sp : r.spans)
            if (sp.name == "image_reload")
                out.push_back(sp);
        return out;
    };
    const X86CostModel cost;

    Rng rng(62);
    GraphBuilder gb("split");
    QuantParams in_qp = actQp(-1.0f, 1.0f);
    TensorId x = gb.input("x", Shape{1, 8, 8, 32}, DType::UInt8, in_qp);
    TensorId a = qconv(gb, rng, "a", x, 32, 3, 1, 1, ActFn::Relu);
    TensorId s = qconv(gb, rng, "s", a, 32, 1, 1, 0, ActFn::Sigmoid);
    TensorId y = qconv(gb, rng, "b", s, 32, 3, 1, 1, ActFn::None);
    gb.output(y);
    Loadable ld = compile(gb.take());
    ASSERT_EQ(ld.subgraphs.size(), 2u);
    // 65 prefix-mask rows plus the persistent weight rows.
    auto image_bytes = [&](int si) {
        const CompiledSubgraph &sg = ld.subgraphs[size_t(si)];
        EXPECT_TRUE(sg.weightsPersistent);
        EXPECT_EQ(sg.persistentWeights.size() % 4096, 0u);
        return int64_t(65 * 4096 + sg.persistentWeights.size());
    };

    {
        Tensor xv(Shape{1, 8, 8, 32}, DType::UInt8, in_qp);
        Rng dr(63);
        xv.fillRandom(dr);
        NcoreRuntime rt(driver);
        rt.loadModel(ld);
        DelegateExecutor exec(rt, cost);

        // loadModel made subgraph 0 resident: the first run reloads only
        // subgraph 1, every later run both.
        InferenceResult first = exec.infer({xv});
        InferenceResult second = exec.infer({xv});
        const std::vector<TraceSpan> r1 = reloads(first);
        const std::vector<TraceSpan> r2 = reloads(second);
        ASSERT_EQ(r1.size(), 1u);
        ASSERT_EQ(r2.size(), 2u);
        EXPECT_EQ(r1[0].cat, SpanCat::Layout);
        EXPECT_DOUBLE_EQ(r1[0].dur,
                         cost.layoutConversionSeconds(image_bytes(1)));
        EXPECT_DOUBLE_EQ(r2[0].dur,
                         cost.layoutConversionSeconds(image_bytes(0)));
        EXPECT_DOUBLE_EQ(r2[1].dur,
                         cost.layoutConversionSeconds(image_bytes(1)));
        EXPECT_GT(second.timing.layoutSeconds, first.timing.layoutSeconds);
        // The reload precedes its subgraph on the timeline.
        const std::vector<TraceSpan> &sp = second.spans;
        for (size_t i = 0; i + 1 < sp.size(); ++i)
            if (sp[i].name == "image_reload") {
                EXPECT_EQ(sp[i + 1].cat, SpanCat::Ncore);
                EXPECT_DOUBLE_EQ(sp[i + 1].start, sp[i].start + sp[i].dur);
            }
    }

    Rng one_rng(45);
    Loadable one = compile(buildTestNet(one_rng));
    ASSERT_EQ(one.subgraphs.size(), 1u);
    NcoreRuntime rt1(driver);
    rt1.loadModel(one);
    DelegateExecutor exec1(rt1, cost);
    Tensor x1(Shape{1, 16, 16, 16}, DType::UInt8, actQp(-1.0f, 1.0f));
    x1.fillRandom(one_rng);
    for (int run = 0; run < 2; ++run)
        EXPECT_TRUE(reloads(exec1.infer({x1})).empty()) << "run " << run;
}

TEST_F(RuntimeTest, RepeatedInvocationsAreDeterministic)
{
    Rng rng(45);
    Graph g = buildTestNet(rng);
    Loadable ld = compile(std::move(g));

    NcoreRuntime rt(driver);
    rt.loadModel(ld);
    DelegateExecutor exec(rt, X86CostModel{});

    Tensor x(Shape{1, 16, 16, 16}, DType::UInt8, actQp(-1.0f, 1.0f));
    Rng data_rng(10);
    x.fillRandom(data_rng);

    InferenceResult a = exec.infer({x});
    InferenceResult b = exec.infer({x});
    EXPECT_EQ(maxAbsDiff(a.outputs[0], b.outputs[0]), 0.0f);
    EXPECT_EQ(a.timing.ncoreCycles, b.timing.ncoreCycles);
}

} // namespace
} // namespace ncore
