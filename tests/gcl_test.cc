/**
 * @file
 * GCL tests: optimization passes (pad fusion, dead-node elimination,
 * and the rewrites they make on the zoo), partitioning decisions, and
 * compile-time planning invariants (layouts, memory plan, weight
 * promotion vs streaming, dense rows, staged convs over halo-free
 * copies, the conv Reps the specialized engine fuses and walks in
 * closed form, and the kernels it binds for every zoo instruction).
 */

#include <algorithm>
#include <array>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "gcl/compiler.h"
#include "gcl/passes.h"
#include "models/zoo.h"
#include "ncore/exec_specialized.h"
#include "nkl/kernels.h"
#include "runtime/device.h"
#include "x86/reference.h"

namespace ncore {
namespace {

QuantParams
actQp()
{
    return chooseAsymmetricUint8(-2.0f, 2.0f);
}

/** Small quantized conv helper for graph construction. */
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
    TensorId wid = gb.constant(name + ":w", w, w_qp);
    TensorId bid = gb.constant(name + ":b", b);
    return gb.conv2d(name, in, wid, bid, stride, stride, pad, pad, pad,
                     pad, act, actQp());
}

TEST(GclPasses, FuseExplicitPadIntoConv)
{
    // The MLPerf ResNet-50 reference-graph pattern (paper V-B).
    Rng rng(2);
    GraphBuilder gb("pad");
    QuantParams qp = actQp();
    TensorId x = gb.input("x", Shape{1, 8, 8, 16}, DType::UInt8, qp);
    TensorId padded = gb.pad("p", x, 1, 1, 1, 1);
    TensorId y = qconv(gb, rng, "c", padded, 16, 3, 1, 0, ActFn::None);
    gb.output(y);
    Graph g = gb.take();

    Tensor x_val(Shape{1, 8, 8, 16}, DType::UInt8, qp);
    x_val.fillRandom(rng);
    Tensor want = ReferenceExecutor(g).run({x_val})[0];

    EXPECT_EQ(fusePads(g), 1);
    g.verify();
    EXPECT_EQ(g.nodes().size(), 1u);
    EXPECT_EQ(g.nodes()[0].attrs.padTop, 1);

    Tensor got = ReferenceExecutor(g).run({x_val})[0];
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i));
}

TEST(GclPasses, DeadNodeElimination)
{
    Rng rng(4);
    GraphBuilder gb("dead");
    QuantParams qp = actQp();
    TensorId x = gb.input("x", Shape{1, 4, 4, 8}, DType::UInt8, qp);
    TensorId live = qconv(gb, rng, "live", x, 8, 1, 1, 0, ActFn::None);
    qconv(gb, rng, "dead", x, 8, 1, 1, 0, ActFn::None);
    gb.output(live);
    Graph g = gb.take();

    EXPECT_EQ(eliminateDeadNodes(g), 1);
    EXPECT_EQ(g.nodes().size(), 1u);
    EXPECT_EQ(g.nodes()[0].name, "live");
}

TEST(GclPasses, ZooRewritesAreResNetPadsOnly)
{
    // The zoo's graphs arrive folded and fused: the only rewrites the
    // standard passes make are ResNet-50's four explicit pads.
    Graph mobilenet = buildMobileNetV1();
    EXPECT_EQ(runStandardPasses(mobilenet), 0);

    Graph resnet = buildResNet50V15();
    EXPECT_EQ(runStandardPasses(resnet), 4);
    for (const Node &n : resnet.nodes())
        EXPECT_NE(n.kind, OpKind::Pad) << "pad not fused: " << n.name;

    Graph ssd = buildSsdMobileNetV1();
    EXPECT_EQ(runStandardPasses(ssd), 0);
}

TEST(GclPartition, SoftmaxStaysOnX86)
{
    Rng rng(5);
    GraphBuilder gb("part");
    QuantParams qp = actQp();
    TensorId x = gb.input("x", Shape{1, 8, 8, 16}, DType::UInt8, qp);
    TensorId c = qconv(gb, rng, "c", x, 16, 3, 1, 1, ActFn::Relu);
    TensorId pool = gb.avgPool2d("gap", c, 8, 8, 1, 1, 0, 0, 0, 0);
    TensorId flat = gb.reshape("flat", pool, Shape{1, 16});
    Tensor w(Shape{10, 16}, DType::UInt8, QuantParams{0.02f, 128});
    w.fillRandom(rng);
    TensorId fc =
        gb.fullyConnected("fc", flat,
                          gb.constant("fw", w, QuantParams{0.02f, 128}),
                          kNoTensor, ActFn::None, actQp());
    TensorId sm = gb.softmax("sm", fc, 1.0f);
    gb.output(sm);
    Graph g = gb.take();

    Loadable ld = compile(std::move(g));
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    // conv, pool, reshape, fc on Ncore; softmax on x86.
    EXPECT_EQ(ld.nodeAssignment[0], 0);
    EXPECT_EQ(ld.nodeAssignment[1], 0);
    EXPECT_EQ(ld.nodeAssignment[2], 0);
    EXPECT_EQ(ld.nodeAssignment[3], 0);
    EXPECT_EQ(ld.nodeAssignment[4], -1);
    EXPECT_EQ(ld.subgraphs[0].outputs.size(), 1u);
    EXPECT_TRUE(ld.subgraphs[0].weightsPersistent);
    EXPECT_GT(ld.subgraphs[0].code.size(), 0u);
}

TEST(GclPartition, WindowLimitsKeepLayersOnX86)
{
    // ncoreSupports takes a conv or pool only when NKL's windowSupported
    // does: x strides of 1 or 2 (a conv's equal in y), at most 8
    // columns, at most 64 depthwise taps; average pools are unpadded.
    Rng rng(7);
    GraphBuilder gb("limits");
    const QuantParams qp = actQp(), w_qp{0.02f, 128};
    TensorId x = gb.input("x", Shape{1, 16, 16, 8}, DType::UInt8, qp);
    auto conv = [&](const std::string &name, int kh, int kw, int sh,
                    int sw) {
        Tensor w(Shape{8, kh, kw, 8}, DType::UInt8, w_qp);
        w.fillRandom(rng);
        gb.output(gb.conv2d(name, x, gb.constant(name + ":w", w, w_qp),
                            kNoTensor, sh, sw, 0, 0, 0, 0, ActFn::None,
                            qp));
    };
    auto depthwise = [&](const std::string &name, int kh, int kw) {
        Tensor w(Shape{1, kh, kw, 8}, DType::UInt8, w_qp);
        w.fillRandom(rng);
        gb.output(gb.depthwiseConv2d(
            name, x, gb.constant(name + ":w", w, w_qp), kNoTensor, 1, 1,
            0, 0, 0, 0, ActFn::None, qp));
    };
    conv("c3s2", 3, 3, 2, 2);
    conv("c1x8", 1, 8, 1, 1);
    conv("c3s3", 3, 3, 3, 3);
    conv("c1x9", 1, 9, 1, 1);
    conv("c3s12", 3, 3, 1, 2);
    depthwise("dw9x7", 9, 7);
    depthwise("dw9x8", 9, 8);
    gb.output(gb.maxPool2d("mp3s32", x, 3, 3, 3, 2, 0, 0, 0, 0));
    gb.output(gb.maxPool2d("mp3s3", x, 3, 3, 3, 3, 0, 0, 0, 0));
    gb.output(gb.avgPool2d("ap2s2", x, 2, 2, 2, 2, 0, 0, 0, 0));
    gb.output(gb.avgPool2d("ap3p1", x, 3, 3, 1, 1, 1, 1, 1, 1));
    Graph g = gb.take();

    const std::set<std::string> on_ncore = {"c3s2", "c1x8", "dw9x7",
                                            "mp3s32", "ap2s2"};
    ASSERT_EQ(g.nodes().size(), 11u);
    for (const Node &n : g.nodes())
        EXPECT_EQ(ncoreSupports(g, n), on_ncore.count(n.name) == 1)
            << n.name;
}

TEST(GclPlanning, StreamingChunksFollowTheWeightRing)
{
    // Six 3x3 512->512 images overflow the 2048-row weight RAM, so the
    // ring wraps and later images must wait for the layers they
    // overwrite. The max pool reads no weights: the ring is the whole
    // weight RAM.
    Rng rng(6);
    GraphBuilder gb("stream");
    QuantParams qp = actQp();
    TensorId x = gb.input("x", Shape{1, 4, 4, 512}, DType::UInt8, qp);
    TensorId t = gb.maxPool2d("mp", x, 3, 3, 1, 1, 1, 1, 1, 1);
    for (int i = 0; i < 6; ++i)
        t = qconv(gb, rng, "c" + std::to_string(i), t, 512, 3, 1, 1,
                  ActFn::Relu);
    t = qconv(gb, rng, "p", t, 64, 1, 1, 0, ActFn::None);
    gb.output(t);
    Graph g = gb.take();

    CompileOptions opts;
    opts.forceStreaming = true;
    Loadable ld = compile(std::move(g), opts);
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    const CompiledSubgraph &sg = ld.subgraphs[0];
    EXPECT_FALSE(sg.weightsPersistent);
    ASSERT_EQ(sg.chunks.size(), 7u);
    EXPECT_EQ(sg.streamImage.size() % 4096, 0u);

    // Every chunk lies inside the ring.
    const uint32_t ring = 2048;
    int wraps = 0;
    for (size_t k = 0; k < sg.chunks.size(); ++k) {
        EXPECT_LE(sg.chunks[k].targetRow + sg.chunks[k].rows, ring) << k;
        wraps += k > 0 && sg.chunks[k].targetRow == 0;
    }
    EXPECT_GT(wraps, 0);

    // Walk the program. Chunk k belongs to the k-th fenced layer;
    // lastRead[k] is that layer's last weight-RAM read.
    std::vector<Instruction> code;
    for (const EncodedInstruction &e : sg.code)
        code.push_back(decodeInstruction(e));
    std::vector<size_t> lastRead(sg.chunks.size(), 0);
    std::vector<size_t> kickAt;
    int fences = 0;
    int current = -1;
    for (size_t pc = 0; pc < code.size(); ++pc) {
        const Instruction &in = code[pc];
        if (in.ctrl.op == CtrlOp::DmaKick) {
            // Kicks go out in stream order, on the one stream queue.
            ASSERT_EQ(in.ctrl.imm, kickAt.size()) << pc;
            kickAt.push_back(pc);
        } else if (in.ctrl.op == CtrlOp::DmaFence) {
            EXPECT_EQ(in.ctrl.reg, CompiledSubgraph::kStreamQueue);
            // Image k is in once only the images kicked after it are
            // outstanding.
            ASSERT_LT(size_t(fences), kickAt.size()) << pc;
            EXPECT_EQ(in.ctrl.imm, kickAt.size() - 1 - size_t(fences))
                << "fence " << fences;
            current = fences++;
        } else if (in.ctrl.op == CtrlOp::Event &&
                   (in.ctrl.imm & 3) == 2) {
            current = -1;
        }
        if (in.weightRead.enable && current >= 0)
            lastRead[size_t(current)] = pc;
    }
    ASSERT_EQ(size_t(fences), sg.chunks.size());
    ASSERT_EQ(kickAt.size(), sg.chunks.size());

    // A kick comes after the last weight read of every earlier layer
    // whose rows it overwrites.
    int waits = 0;
    for (size_t j = 0; j < sg.chunks.size(); ++j)
        for (size_t i = 0; i < j; ++i) {
            const StreamChunk &a = sg.chunks[i];
            const StreamChunk &b = sg.chunks[j];
            if (a.targetRow < b.targetRow + b.rows &&
                b.targetRow < a.targetRow + a.rows) {
                EXPECT_GT(kickAt[j], lastRead[i]) << j << " over " << i;
                ++waits;
            }
        }
    EXPECT_GT(waits, 0);
}

TEST(GclPlanning, LayoutPadsMatchDirectConsumers)
{
    // Each plain tensor materializes exactly its direct consumers' conv
    // padding; downstream layout padding is absorbed as a (safe)
    // negative gather delta instead of escalating through the chain.
    // A tensor of at most 14 positions whose consumers copy what they
    // read takes dense rows, with no pads at all.
    Rng rng(7);
    GraphBuilder gb("pads");
    QuantParams qp = actQp();
    TensorId x = gb.input("x", Shape{1, 16, 16, 16}, DType::UInt8, qp);
    TensorId a = qconv(gb, rng, "a", x, 16, 3, 1, 1, ActFn::None);
    TensorId b = qconv(gb, rng, "b", a, 16, 5, 1, 2, ActFn::None);
    TensorId c = qconv(gb, rng, "c", b, 16, 3, 2, 1, ActFn::None);
    gb.output(qconv(gb, rng, "d", c, 16, 3, 1, 1, ActFn::None));
    Graph g = gb.take();

    Loadable ld = compile(std::move(g));
    const CompiledSubgraph &sg = ld.subgraphs[0];
    TensorId x_id = ld.graph.inputs()[0];
    EXPECT_EQ(sg.layouts.at(x_id).padLeft, 1);
    EXPECT_EQ(sg.layouts.at(x_id).padTop, 1);
    // The 5x5 consumer's input materializes pad 2; the stride-2 conv's
    // input pad 1.
    const TensorLayout &mid = sg.layouts.at(ld.graph.nodes()[0].outputs[0]);
    EXPECT_EQ(mid.padLeft, 2);
    EXPECT_FALSE(mid.packed() || mid.dense);
    EXPECT_EQ(sg.layouts.at(ld.graph.nodes()[1].outputs[0]).padTop, 1);
    // The 8-wide tensor feeds a staged 3x3 conv: dense, unpadded.
    const TensorLayout &small =
        sg.layouts.at(ld.graph.nodes()[2].outputs[0]);
    EXPECT_TRUE(small.dense);
    EXPECT_EQ(small.paddedW(), small.w);
    EXPECT_EQ(small.paddedH(), small.h);
    // The final output only the host reads keeps the halo-free rows
    // its staged conv writes.
    const TensorLayout &out = sg.layouts.at(ld.graph.nodes()[3].outputs[0]);
    EXPECT_TRUE(out.packed());
    EXPECT_EQ(out.padTop, 0);
    EXPECT_EQ(out.padLeft, 1);
}

TEST(GclPlanning, DataRamReuseAcrossLiveness)
{
    // A long chain must reuse rows: peak usage well below the sum of
    // all tensors.
    Rng rng(8);
    GraphBuilder gb("reuse");
    QuantParams qp = actQp();
    TensorId x = gb.input("x", Shape{1, 16, 16, 64}, DType::UInt8, qp);
    TensorId t = x;
    int64_t total_rows = 0;
    for (int i = 0; i < 8; ++i)
        t = qconv(gb, rng, "c" + std::to_string(i), t, 64, 3, 1, 1,
                  ActFn::Relu);
    gb.output(t);
    Graph g = gb.take();

    Loadable ld = compile(std::move(g));
    const CompiledSubgraph &sg = ld.subgraphs[0];
    for (const auto &kv : sg.layouts)
        total_rows += kv.second.rows();
    // dataRowsUsed includes the fixed 64-row mask table.
    EXPECT_LT(sg.dataRowsUsed - MaskTable::kRows, total_rows / 2);
}

TEST(GclPlanning, OversizedInputExhaustsDataRam)
{
    // An input too large for data RAM dies in placement, like any
    // intermediate tensor: 1024 x 112 x 64 needs 1026 padded rows x 2
    // x-tiles, while the stride-2 conv's output alone would fit.
    Rng rng(9);
    GraphBuilder gb("oversized");
    TensorId x =
        gb.input("x", Shape{1, 1024, 112, 64}, DType::UInt8, actQp());
    gb.output(qconv(gb, rng, "c", x, 64, 3, 2, 1, ActFn::Relu));
    Graph g = gb.take();
    EXPECT_DEATH(compile(std::move(g)), "data RAM exhausted");
}

std::vector<Instruction>
decodeAll(const CompiledSubgraph &sg)
{
    std::vector<Instruction> code;
    for (const EncodedInstruction &e : sg.code)
        code.push_back(decodeInstruction(e));
    return code;
}

/** The plan buildExecPlan binds for `in` at `tier`. */
ExecPlan
planAt(const Instruction &in, SimdTier tier = SimdTier::Scalar)
{
    constexpr int kRb = 4096;
    static std::vector<uint8_t> rows(14 * kRb);
    static std::vector<int32_t> acc(kRb);
    static std::array<RequantEntry, 256> rq{};
    uint8_t *next = rows.data();
    auto row = [&] { return std::exchange(next, next + kRb); };
    PlanBindings b;
    b.rb = kRb;
    b.acc = acc.data();
    for (uint8_t *&n : b.n)
        n = row();
    b.outLo = row();
    b.outHi = row();
    b.dataLo = row();
    b.dataHi = row();
    b.weightLo = row();
    b.weightHi = row();
    b.immRow = row();
    b.pred[0] = row();
    b.pred[1] = row();
    b.scratch = row();
    b.rqTable = rq.data();
    return buildExecPlan(in, b, tier);
}

/** Whether the specialized engine runs `in` as a fused conv Rep. */
bool
convRepShaped(const Instruction &in)
{
    return planAt(in).convRep != nullptr;
}

TEST(GclPlanning, EveryZooConvRepIsFused)
{
    // Every convolution's accumulation is one repMac Rep, and the
    // specialized engine fuses that shape into one GEMM. A u8 Mac Rep
    // whose weight read stays put is such a Rep, so each one must have
    // the fused shape; the K-split FC, which post-increments its weight
    // read, runs per rep.
    auto check = [](Graph g) {
        SCOPED_TRACE(g.name());
        Loadable ld = compile(std::move(g));
        int fused = 0;
        for (const CompiledSubgraph &sg : ld.subgraphs)
            for (const EncodedInstruction &e : sg.code) {
                const Instruction in = decodeInstruction(e);
                if (in.ctrl.op != CtrlOp::Rep || in.npu.op != NpuOp::Mac ||
                    in.npu.type != LaneType::U8 || in.weightRead.postInc)
                    continue;
                EXPECT_TRUE(convRepShaped(in));
                ++fused;
            }
        EXPECT_GT(fused, 0);
    };
    check(buildMobileNetV1());
    check(buildResNet50V15());
    check(buildSsdMobileNetV1());
}

TEST(GclPlanning, EveryZooConvRepWalksInClosedForm)
{
    // The fused conv Rep walks its addressing in closed form; where the
    // RAMs model ECC, both NDU slots step one register or a byte offset
    // could leave int32 (exec_specialized.h), the Rep runs per rep
    // instead. None of that happens in the zoo: the programs have no
    // loops, so one inference fuses every tap of every conv-shaped Rep.
    auto check = [](Graph g) {
        SCOPED_TRACE(g.name());
        Loadable ld = compile(std::move(g));
        uint64_t taps = 0;
        for (const CompiledSubgraph &sg : ld.subgraphs)
            for (const EncodedInstruction &e : sg.code) {
                const Instruction in = decodeInstruction(e);
                if (in.ctrl.op == CtrlOp::Rep && convRepShaped(in))
                    taps += in.ctrl.imm;
            }
        const GirTensor &in = ld.graph.tensor(ld.graph.inputs()[0]);
        Tensor x(in.shape, DType::UInt8, in.quant);
        Rng rng(5);
        x.fillRandom(rng);
        NcoreDevice dev(LoadedModel::create(ld), nullptr,
                        {ExecEngine::Specialized});
        dev.exec.infer({x});
        EXPECT_GT(taps, 0u);
        EXPECT_EQ(dev.machine.fusedConvTaps(), taps);
    };
    check(buildMobileNetV1());
    check(buildResNet50V15());
    check(buildSsdMobileNetV1());
}

TEST(GclPlanning, EveryZooInstructionBindsSpecializedKernels)
{
    // The specialized engine has kernels only for the forms NKL emits
    // (exec_specialized.h); every other form runs on the generic
    // interpreter. Every slot of the zoo's programs and of a k-segmented
    // bf16 matmul (GNMT) must bind a kernel at every tier, so that a new
    // kernel shape cannot land on the interpreter unnoticed.
    std::vector<Instruction> code;
    for (Graph g : {buildMobileNetV1(), buildResNet50V15(),
                    buildSsdMobileNetV1()}) {
        const Loadable ld = compile(std::move(g));
        for (const CompiledSubgraph &sg : ld.subgraphs)
            for (const Instruction &in : decodeAll(sg))
                code.push_back(in);
    }
    ProgramBuilder pb;
    MatmulBf16Kernel mm;
    mm.in = flatLayout(256);
    mm.out = flatLayout(4096);
    mm.out.baseRow = mm.in.rows();
    mm.k = 128;
    mm.n = 4096;
    mm.weightBase = 0;
    for (int seg = 0; seg < 2; ++seg) {
        mm.inElemOffset = seg * mm.k;
        mm.firstSegment = seg == 0;
        mm.lastSegment = seg == 1;
        emitMatmulBf16(pb, mm);
    }
    code.insert(code.end(), pb.instructions().begin(),
                pb.instructions().end());

    for (int t = int(SimdTier::Scalar); t <= int(bestSimdTier()); ++t) {
        const SimdTier tier = SimdTier(t);
        SCOPED_TRACE(simdTierName(tier));
        for (const Instruction &in : code) {
            const ExecPlan p = planAt(in, tier);
            ASSERT_TRUE((in.npu.op == NpuOp::None || p.npuKernel) &&
                        (in.out.op == OutOp::None || p.outKernel) &&
                        (in.ndu0.op == NduOp::None || p.nduKernel[0]) &&
                        (in.ndu1.op == NduOp::None || p.nduKernel[1]))
                << in.toString();
        }
    }
}

/** Node index of layer `name` in a compiled graph (-1 if none). */
int
nodeNamed(const Loadable &ld, const std::string &name)
{
    for (size_t i = 0; i < ld.graph.nodes().size(); ++i)
        if (ld.graph.nodes()[i].name == name)
            return int(i);
    return -1;
}

/** A layer's instructions: between its two event-log markers. */
std::pair<std::vector<Instruction>::const_iterator,
          std::vector<Instruction>::const_iterator>
layerCode(const std::vector<Instruction> &code, int id)
{
    auto marker = [&](uint32_t tag) {
        return std::find_if(code.begin(), code.end(),
                            [&](const Instruction &in) {
                                return in.ctrl.op == CtrlOp::Event &&
                                       in.ctrl.imm == tag;
                            });
    };
    return {marker(uint32_t(id) << 2 | 1), marker(uint32_t(id) << 2 | 2)};
}

TEST(GclPlanning, ResNetStageTransitionsRunPhaseSplit)
{
    // Stage-4/5 block1 `b` and `proj` read staged copies of their
    // input's phases and write halo-free rows, with one unpredicated
    // pass of fused conv Reps: every requant store lands in one
    // halo-free image, the temp a relayout then moves into the dense
    // rows that the 1x1 convs and adds after them read. A fallback to
    // the predicated or plain lowering fails here.
    Loadable ld = compile(buildResNet50V15());
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    const CompiledSubgraph &sg = ld.subgraphs[0];
    const std::vector<Instruction> code = decodeAll(sg);

    for (const char *name : {"stage4/block1/b", "stage4/block1/proj",
                             "stage5/block1/b", "stage5/block1/proj"}) {
        SCOPED_TRACE(name);
        const int id = nodeNamed(ld, name);
        ASSERT_GE(id, 0);
        const TensorId out_id = ld.graph.nodes()[size_t(id)].outputs[0];
        EXPECT_TRUE(sg.layouts.at(out_id).dense);
        const int staged_rows =
            haloFreeLayout(ld.graph.tensor(out_id).shape, 0).rows();

        auto [begin, end] = layerCode(code, id);
        ASSERT_TRUE(begin < end && end != code.end());
        int stores = 0, mac_reps = 0;
        std::set<int> rows;
        for (auto it = begin; it != end; ++it) {
            if (it->out.op == OutOp::Requant8) {
                ++stores;
                rows.insert(int(it->ctrl.imm));
            }
            if (it->ctrl.op == CtrlOp::Rep && it->npu.op == NpuOp::Mac) {
                ++mac_reps;
                EXPECT_TRUE(convRepShaped(*it));
                EXPECT_EQ(it->npu.pred, Pred::None);
            }
        }
        EXPECT_EQ(stores, staged_rows);
        ASSERT_EQ(int(rows.size()), staged_rows);
        EXPECT_EQ(*rows.rbegin() - *rows.begin() + 1, staged_rows);
        EXPECT_GT(mac_reps, 0);
    }
}

TEST(GclPlanning, ResNetSmallConvsReadHaloFreeCopies)
{
    // Every stage-4/5 `b` and `proj` (14- and 7-wide outputs) runs
    // staged: it copies its input into halo-free rows (no vertical halo
    // or pad slots) and issues only unpredicated fused conv Reps of one
    // tap's ncb*64 channel taps (PerTap weights). Its requant stores
    // number cout-blocks x ceil(h_out / floor(64 / (w_out + 2))), and
    // the copies fit the data RAM.
    Loadable ld = compile(buildResNet50V15());
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    const CompiledSubgraph &sg = ld.subgraphs[0];
    const std::vector<Instruction> code = decodeAll(sg);
    EXPECT_LE(sg.dataRowsUsed, chaNcoreConfig().ramRows);

    int staged = 0;
    for (size_t id = 0; id < ld.graph.nodes().size(); ++id) {
        const Node &n = ld.graph.nodes()[id];
        if (n.kind != OpKind::Conv2D ||
            !(n.name.starts_with("stage4/") ||
              n.name.starts_with("stage5/")) ||
            !(n.name.ends_with("/b") || n.name.ends_with("/proj")))
            continue;
        SCOPED_TRACE(n.name);
        ++staged;
        const Shape &out = ld.graph.tensor(n.outputs[0]).shape;
        const Shape &w = ld.graph.tensor(n.inputs[1]).shape;
        const int h = int(out.dim(1)), wd = int(out.dim(2));
        const int cin = int(w.dim(3));
        const int ncb = (cin + 63) / 64;
        const int nkb = int(out.dim(3) + 63) / 64;
        EXPECT_TRUE(yPackable(wd));

        // Its window as gcl plans it, and the form NKL picks for it.
        ConvKernel kp;
        kp.in = sg.layouts.at(n.inputs[0]);
        kp.out = sg.layouts.at(n.outputs[0]);
        kp.kh = int(w.dim(1));
        kp.kw = int(w.dim(2));
        kp.strideH = n.attrs.strideH;
        kp.strideW = n.attrs.strideW;
        kp.padTop = n.attrs.padTop;
        kp.padLeft = n.attrs.padLeft;
        kp.cin = cin;
        kp.cout = int(out.dim(3));
        const ConvPlan plan = planConv(kp);
        EXPECT_EQ(plan.form, ConvForm::Staged);
        EXPECT_EQ(plan.out.ny, 64 / (wd + 2));
        EXPECT_LE(plan.stagingRows, chaNcoreConfig().ramRows);
        const int ny = plan.out.ny;

        auto [begin, end] = layerCode(code, int(id));
        ASSERT_TRUE(begin < end && end != code.end());
        int stores = 0, mac_reps = 0;
        for (auto it = begin; it != end; ++it) {
            if (it->out.op == OutOp::Requant8)
                ++stores;
            if (it->ctrl.op == CtrlOp::Rep && it->npu.op == NpuOp::Mac) {
                ++mac_reps;
                EXPECT_TRUE(convRepShaped(*it));
                EXPECT_EQ(it->npu.pred, Pred::None);
                EXPECT_EQ(it->ctrl.imm, uint32_t(ncb * 64));
            }
            // Every data row the layer reads or writes is planned.
            if (it->ctrl.op == CtrlOp::SetAddrRow &&
                it->ctrl.reg != 3 && it->ctrl.reg != 5 &&
                it->ctrl.reg != 6) { // Weight registers.
                EXPECT_LT(int(it->ctrl.imm), sg.dataRowsUsed);
            }
        }
        const int blocks = (h + ny - 1) / ny;
        EXPECT_EQ(stores, nkb * blocks);
        EXPECT_EQ(mac_reps, blocks * nkb * kp.kh * kp.kw);
    }
    EXPECT_EQ(staged, 11);
}

TEST(GclPlanning, MobileNetPointwiseRunsOnDenseRows)
{
    // Every conv reading a 14x14 or 7x7 tensor reads dense rows: the
    // pointwise convs in place, the depthwise convs through staged
    // copies, all with fused conv Reps. The pointwise convs write dense
    // rows (their requant stores fill exactly a dense image of their
    // output; block13/pw's, which the average pool reads, then moves
    // into plain rows). The depthwise convs write halo-free rows that a
    // relayout moves into the dense rows the next pointwise conv reads.
    Loadable ld = compile(buildMobileNetV1());
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    const CompiledSubgraph &sg = ld.subgraphs[0];
    const Graph &g = ld.graph;
    const std::vector<Instruction> code = decodeAll(sg);

    int dense_pw = 0, staged_dw = 0;
    for (size_t id = 0; id < g.nodes().size(); ++id) {
        const Node &n = g.nodes()[id];
        if (n.kind != OpKind::Conv2D && n.kind != OpKind::DepthwiseConv2D)
            continue;
        SCOPED_TRACE(n.name);
        const TensorLayout &in = sg.layouts.at(n.inputs[0]);
        EXPECT_EQ(in.dense, in.w <= 14);
        if (!in.dense)
            continue;
        const Shape &w = g.tensor(n.inputs[1]).shape;
        const bool pw = n.kind == OpKind::Conv2D;
        EXPECT_EQ(sg.layouts.at(n.outputs[0]).dense,
                  n.name != "block13/pw");

        // The form NKL picks for the window as gcl plans it: its
        // requant stores fill exactly the rows the plan writes.
        ConvKernel kp;
        kp.in = in;
        kp.out = sg.layouts.at(n.outputs[0]);
        kp.kh = int(w.dim(1));
        kp.kw = int(w.dim(2));
        kp.strideH = kp.strideW = n.attrs.strideH;
        kp.padTop = n.attrs.padTop;
        kp.padLeft = n.attrs.padLeft;
        kp.cin = int(in.c);
        kp.cout = kp.out.c;
        kp.depthwise = !pw;
        const ConvPlan plan = planConv(kp);
        EXPECT_EQ(plan.form, pw ? ConvForm::Dense : ConvForm::Staged);

        auto [begin, end] = layerCode(code, int(id));
        ASSERT_TRUE(begin < end && end != code.end());
        int stores = 0;
        for (auto it = begin; it != end; ++it) {
            stores += it->out.op == OutOp::Requant8;
            if (it->ctrl.op == CtrlOp::Rep && it->npu.op == NpuOp::Mac) {
                EXPECT_TRUE(convRepShaped(*it));
            }
        }
        EXPECT_EQ(stores, plan.out.rows());
        ++(pw ? dense_pw : staged_dw);
    }
    // block6..block11 at 14x14, block12 and block13 at 7x7; the
    // depthwise convs of blocks 7 to 13.
    EXPECT_EQ(dense_pw, 8);
    EXPECT_EQ(staged_dw, 7);
}

TEST(GclPlanning, ResNetStridedConvsReadDenseRows)
{
    // Staged copies read dense rows, so stage 5's stride-2 projection
    // and `b` read the dense sum of stage 4; the 56- and 28-wide inputs
    // of stages 3 and 4 keep plain rows. Every residual add of stages 4
    // and 5 runs on dense rows but the last, whose sum the average pool
    // reads from plain rows.
    Loadable ld = compile(buildResNet50V15());
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    const CompiledSubgraph &sg = ld.subgraphs[0];
    int strided = 0, dense_adds = 0;
    for (const Node &n : ld.graph.nodes()) {
        if (n.kind == OpKind::Conv2D && n.attrs.strideH == 2 &&
            n.name != "conv1") {
            ++strided;
            const TensorLayout &in = sg.layouts.at(n.inputs[0]);
            EXPECT_EQ(in.dense, in.w <= 14) << n.name;
        }
        if (n.kind == OpKind::Add && sg.layouts.at(n.outputs[0]).dense) {
            ++dense_adds;
            EXPECT_TRUE(sg.layouts.at(n.inputs[0]).dense);
            EXPECT_TRUE(sg.layouts.at(n.inputs[1]).dense);
        }
    }
    EXPECT_EQ(strided, 6); // A proj and a `b` at each of stages 3-5.
    EXPECT_EQ(dense_adds, 8);
}

TEST(GclPlanning, StageFiveEntryIsDenseAndNoLayoutHasVerticalHalos)
{
    // ResNet's stage5/block1/a (1x1, 14x14x1024 -> 512) reads and writes
    // dense rows: its input's other reader, the stride-2 projection,
    // copies dense rows too. And no zoo tensor lives in rows with a
    // vertical halo or pad slot: every packed layout owns each position
    // in exactly one lane.
    {
        Loadable ld = compile(buildResNet50V15());
        const CompiledSubgraph &sg = ld.subgraphs[0];
        const int id = nodeNamed(ld, "stage5/block1/a");
        ASSERT_GE(id, 0);
        const Node &n = ld.graph.nodes()[size_t(id)];
        EXPECT_TRUE(sg.layouts.at(n.inputs[0]).dense);
        EXPECT_TRUE(sg.layouts.at(n.outputs[0]).dense);
    }
    int packed = 0;
    for (Graph g :
         {buildMobileNetV1(), buildResNet50V15(), buildSsdMobileNetV1()}) {
        SCOPED_TRACE(g.name());
        Loadable ld = compile(std::move(g));
        for (const CompiledSubgraph &sg : ld.subgraphs)
            for (const auto &[tensor, lay] : sg.layouts) {
                if (!lay.packed())
                    continue;
                ++packed;
                EXPECT_EQ(lay.padTop + lay.padBottom, 0) << tensor;
                std::vector<int> lanes(size_t(lay.h) * size_t(lay.w), 0);
                for (int gr = 0; gr < lay.groups(); ++gr)
                    lay.forEachLane(gr, [&](int, int y, int x) {
                        if (y >= 0 && y < lay.h && x >= 0 && x < lay.w)
                            ++lanes[size_t(y) * size_t(lay.w) + size_t(x)];
                    });
                for (int count : lanes)
                    EXPECT_EQ(count, 1) << tensor;
            }
    }
    // SSD's 1x1 box and class heads keep their staged convs' rows.
    EXPECT_GT(packed, 0);
}

TEST(GclPlanning, CompileIsDeterministic)
{
    // Nothing caches a compiled Loadable between runs, so every run
    // recompiles its model: two compiles of the same graph must agree
    // on the partition, programs, tables, placements and weight
    // images, with persistent and with streamed weights.
    auto build = [] {
        Rng rng(10);
        GraphBuilder gb("determinism");
        TensorId x =
            gb.input("x", Shape{1, 12, 12, 16}, DType::UInt8, actQp());
        TensorId t = qconv(gb, rng, "c0", x, 32, 3, 1, 1, ActFn::Relu);
        t = qconv(gb, rng, "c1", t, 32, 3, 2, 1, ActFn::Relu6);
        t = gb.maxPool2d("mp", t, 3, 3, 2, 2, 1, 1, 1, 1);
        t = gb.avgPool2d("gap", t, 3, 3, 1, 1, 0, 0, 0, 0);
        gb.output(gb.softmax("sm", gb.reshape("flat", t, Shape{1, 32}),
                             1.0f));
        return gb.take();
    };
    for (bool streaming : {false, true}) {
        SCOPED_TRACE(streaming ? "streamed weights" : "persistent");
        CompileOptions opts;
        opts.forceStreaming = streaming;
        Loadable a = compile(build(), opts);
        Loadable b = compile(build(), opts);

        EXPECT_EQ(a.graph.nodes().size(), b.graph.nodes().size());
        EXPECT_EQ(a.graph.numTensors(), b.graph.numTensors());
        EXPECT_EQ(a.nodeAssignment, b.nodeAssignment);
        ASSERT_EQ(a.subgraphs.size(), 1u);
        ASSERT_EQ(b.subgraphs.size(), 1u);
        const CompiledSubgraph &sa = a.subgraphs[0];
        const CompiledSubgraph &sb = b.subgraphs[0];
        EXPECT_EQ(sa.weightsPersistent, !streaming);
        EXPECT_EQ(sa.nodeIds, sb.nodeIds);
        EXPECT_EQ(sa.inputs, sb.inputs);
        EXPECT_EQ(sa.outputs, sb.outputs);
        EXPECT_TRUE(sa.layouts == sb.layouts);
        EXPECT_EQ(sa.masks.baseRow, sb.masks.baseRow);
        EXPECT_TRUE(sa.code == sb.code);
        EXPECT_TRUE(sa.rqTable == sb.rqTable);
        EXPECT_EQ(sa.weightsPersistent, sb.weightsPersistent);
        EXPECT_EQ(sa.persistentWeights, sb.persistentWeights);
        EXPECT_EQ(sa.streamImage, sb.streamImage);
        EXPECT_TRUE(sa.chunks == sb.chunks);
        EXPECT_EQ(sa.dataRowsUsed, sb.dataRowsUsed);
        EXPECT_EQ(sa.weightRowsUsed, sb.weightRowsUsed);
    }
}

/** 64-bit FNV-1a over everything a compiled Loadable hands the
 *  runtime: the node assignment and, per subgraph, its code, requant
 *  table, layouts in tensor-id order, weight image, stream chunks and
 *  rows used. */
uint64_t
loadableDigest(const Loadable &ld)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto bytes = [&](const void *p, size_t n) {
        for (size_t i = 0; i < n; ++i) {
            h ^= static_cast<const uint8_t *>(p)[i];
            h *= 0x100000001b3ull;
        }
    };
    auto word = [&](int64_t v) { bytes(&v, sizeof v); };
    for (int a : ld.nodeAssignment)
        word(a);
    for (const CompiledSubgraph &sg : ld.subgraphs) {
        for (const EncodedInstruction &e : sg.code) {
            word(int64_t(e.lo));
            word(int64_t(e.hi));
        }
        for (const RequantEntry &e : sg.rqTable)
            for (int64_t v : {int64_t(e.rq.multiplier), int64_t(e.rq.shift),
                              int64_t(e.rq.offset), int64_t(e.outType),
                              int64_t(e.actMin), int64_t(e.actMax),
                              int64_t(e.lutId)})
                word(v);
        std::vector<TensorId> ids;
        for (const auto &kv : sg.layouts)
            ids.push_back(kv.first);
        std::sort(ids.begin(), ids.end());
        for (TensorId id : ids) {
            const TensorLayout &l = sg.layouts.at(id);
            for (int64_t v :
                 {int64_t(id), int64_t(l.kind), int64_t(l.h), int64_t(l.w),
                  int64_t(l.c), int64_t(l.padTop), int64_t(l.padBottom),
                  int64_t(l.padLeft), int64_t(l.padRight),
                  int64_t(l.zeroByte), int64_t(l.baseRow),
                  int64_t(l.rfStride), int64_t(l.rfKw),
                  int64_t(l.rfOutTiles), int64_t(l.rfOutPadL),
                  int64_t(l.ny), int64_t(l.pitch), int64_t(l.dense)})
                word(v);
        }
        word(sg.weightsPersistent);
        bytes(sg.persistentWeights.data(), sg.persistentWeights.size());
        bytes(sg.streamImage.data(), sg.streamImage.size());
        for (const StreamChunk &c : sg.chunks) {
            word(int64_t(c.dramOffset));
            word(c.rows);
            word(c.targetRow);
        }
        word(sg.dataRowsUsed);
        word(sg.weightRowsUsed);
    }
    return h;
}

TEST(GclPlanning, ZooLoadablesArePinned)
{
    // The zoo's compiled Loadables, pinned: a change that means to leave
    // codegen alone leaves these digests alone. A change that alters
    // codegen on purpose re-pins them (the failure prints the new
    // values) and records old -> new.
    const std::pair<const char *, uint64_t> pinned[] = {
        {"mobilenet", 0xb58dbd3cea07f4dull},
        {"resnet50", 0xe9090a2a3869499full},
        {"ssd", 0xfb815943c61054a9ull},
    };
    for (const auto &[name, digest] : pinned) {
        const std::string model = name;
        Graph g = model == "mobilenet"  ? buildMobileNetV1()
                  : model == "resnet50" ? buildResNet50V15()
                                        : buildSsdMobileNetV1();
        const uint64_t got = loadableDigest(compile(std::move(g)));
        EXPECT_EQ(got, digest)
            << name << " digest is now 0x" << std::hex << got << "ull";
    }
}

} // namespace
} // namespace ncore
