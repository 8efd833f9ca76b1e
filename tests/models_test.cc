/**
 * @file
 * Model zoo tests: Table V characteristics (MACs, weights,
 * MACs/weight) for all four benchmark networks, compile-time planning
 * properties the paper calls out (MobileNet weight promotion, ResNet
 * pad fusion, SSD's x86-resident NMS tail), full MobileNet-V1,
 * ResNet-50 and SSD end-to-end Ncore-vs-reference inferences, and
 * golden per-model device totals (any cycle change must update these
 * deliberately).
 */

#include <gtest/gtest.h>

#include "gcl/compiler.h"
#include "mlperf/profiles.h"
#include "models/gnmt.h"
#include "models/zoo.h"
#include "runtime/device.h"
#include "x86/reference.h"

namespace ncore {
namespace {

double
gmacs(const Graph &g)
{
    return double(g.totalMacs()) / 1e9;
}

double
mweights(const Graph &g)
{
    return double(g.totalWeights()) / 1e6;
}

TEST(ModelCharacteristics, MobileNetV1MatchesTableV)
{
    Graph g = buildMobileNetV1();
    EXPECT_NEAR(gmacs(g), 0.57, 0.03);
    EXPECT_NEAR(mweights(g), 4.2, 0.15);
    double mpw = double(g.totalMacs()) / double(g.totalWeights());
    EXPECT_NEAR(mpw, 136, 8);
}

TEST(ModelCharacteristics, ResNet50MatchesTableV)
{
    Graph g = buildResNet50V15();
    EXPECT_NEAR(gmacs(g), 4.1, 0.2);
    EXPECT_NEAR(mweights(g), 26.0, 1.0);
    double mpw = double(g.totalMacs()) / double(g.totalWeights());
    EXPECT_NEAR(mpw, 158, 10);
}

TEST(ModelCharacteristics, SsdMobileNetMatchesTableV)
{
    Graph g = buildSsdMobileNetV1();
    EXPECT_NEAR(gmacs(g), 1.2, 0.12);
    EXPECT_NEAR(mweights(g), 6.8, 0.5);
    double mpw = double(g.totalMacs()) / double(g.totalWeights());
    EXPECT_NEAR(mpw, 176, 20);
}

TEST(ModelCharacteristics, GnmtMatchesTableV)
{
    Gnmt gnmt;
    EXPECT_NEAR(double(gnmt.weightCount()) / 1e6, 131.0, 3.0);
    double g = double(gnmt.macCount(25, 25)) / 1e9;
    // The paper reports 3.9 GMACs at 25-word sentences; our
    // reconstruction (4+4 layers, beam 2) lands within ~15%.
    EXPECT_NEAR(g, 3.9, 0.6);
    double mpw = double(gnmt.macCount(25, 25)) /
                 double(gnmt.weightCount());
    EXPECT_NEAR(mpw, 30, 5);
}

TEST(ModelCompile, MobileNetWeightsPromotedToPersistent)
{
    // Paper V-B: "In the case of MobileNetV1, the GCL determines that
    // all the model's weights fit in on-chip SRAM, and promotes the
    // weight buffers to become persistent."
    Loadable ld = compile(buildMobileNetV1());
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    EXPECT_TRUE(ld.subgraphs[0].weightsPersistent);
    // Everything except the final softmax runs on Ncore.
    int x86_nodes = 0;
    for (int a : ld.nodeAssignment)
        if (a < 0)
            ++x86_nodes;
    EXPECT_EQ(x86_nodes, 1);
}

TEST(ModelCompile, ResNetPadsFusedAndWeightsStreamed)
{
    Loadable ld = compile(buildResNet50V15());
    for (const Node &n : ld.graph.nodes())
        EXPECT_NE(n.kind, OpKind::Pad) << "pad not fused: " << n.name;
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    EXPECT_FALSE(ld.subgraphs[0].weightsPersistent);
    EXPECT_GT(ld.subgraphs[0].chunks.size(), 40u);
    // The images fill one ring, the whole 2048-row weight RAM, in
    // stream order: each follows the previous one or wraps to row 0,
    // and the ring wraps at least once.
    const std::vector<StreamChunk> &chunks = ld.subgraphs[0].chunks;
    int wraps = 0;
    for (size_t k = 1; k < chunks.size(); ++k) {
        uint32_t end = chunks[k - 1].targetRow + chunks[k - 1].rows;
        if (chunks[k].targetRow == 0)
            ++wraps;
        else
            EXPECT_EQ(chunks[k].targetRow, end) << k;
        EXPECT_LE(chunks[k].targetRow + chunks[k].rows, 2048u) << k;
    }
    EXPECT_GT(wraps, 0);
}

TEST(ModelCompile, SsdUsesStemLayoutAndX86Nms)
{
    Loadable ld = compile(buildSsdMobileNetV1());
    ASSERT_EQ(ld.subgraphs.size(), 1u);
    // The GroupedRf stem layout keeps even the 300x300 input fully
    // resident.
    TensorId in0 = ld.graph.inputs()[0];
    EXPECT_EQ(ld.subgraphs[0].layouts.at(in0).kind,
              LayoutKind::GroupedRf);
    bool nms_on_x86 = false;
    for (size_t i = 0; i < ld.graph.nodes().size(); ++i)
        if (ld.graph.nodes()[i].kind == OpKind::NonMaxSuppression)
            nms_on_x86 = ld.nodeAssignment[i] < 0;
    EXPECT_TRUE(nms_on_x86);
    // All convs (backbone + extras + heads) on Ncore.
    for (size_t i = 0; i < ld.graph.nodes().size(); ++i) {
        OpKind k = ld.graph.nodes()[i].kind;
        if (k == OpKind::Conv2D || k == OpKind::DepthwiseConv2D) {
            EXPECT_GE(ld.nodeAssignment[i], 0)
                << ld.graph.nodes()[i].name;
        }
    }
}

/**
 * One sample through compile + NcoreDevice: every model output, and
 * every Ncore subgraph output (logits before an x86 softmax or NMS,
 * which can hide wrong codes), must match the x86 reference bit for
 * bit.
 */
InferenceResult
expectNcoreMatchesReference(Graph g, uint64_t seed)
{
    Loadable ld = compile(std::move(g));
    const GirTensor &in = ld.graph.tensor(ld.graph.inputs()[0]);
    Tensor x(in.shape, DType::UInt8, in.quant);
    Rng rng(seed);
    x.fillRandom(rng);

    ReferenceExecutor ref(ld.graph);
    std::vector<Tensor> want = ref.run({x});

    NcoreDevice dev(LoadedModel::create(ld));
    InferenceResult res = dev.exec.infer({x});
    EXPECT_EQ(res.outputs.size(), want.size());
    for (size_t i = 0; i < want.size() && i < res.outputs.size(); ++i)
        EXPECT_EQ(maxAbsDiff(res.outputs[i], want[i]), 0.0f)
            << "model output " << i;

    for (size_t s = 0; s < ld.subgraphs.size(); ++s) {
        const CompiledSubgraph &sg = ld.subgraphs[s];
        std::vector<Tensor> ins;
        for (TensorId t : sg.inputs)
            ins.push_back(ref.valueOf(t));
        std::vector<Tensor> outs = dev.runtime.invoke(int(s), ins);
        for (size_t k = 0; k < sg.outputs.size(); ++k)
            EXPECT_EQ(maxAbsDiff(outs[k], ref.valueOf(sg.outputs[k])),
                      0.0f)
                << ld.graph.tensor(sg.outputs[k]).name;
    }
    return res;
}

TEST(ModelEndToEnd, MobileNetNcoreMatchesReference)
{
    InferenceResult res =
        expectNcoreMatchesReference(buildMobileNetV1(), 123);

    // Sanity on the measured compute: MobileNet is 0.57 GMACs; with
    // tiling overheads the machine executes somewhat more lane-MACs.
    EXPECT_GT(res.timing.ncoreMacs, 550ull * 1000 * 1000);
    EXPECT_GT(res.timing.ncoreCycles, 100000u);
}

// Staged convs (ResNet's stage-4/5 b and proj over halo-free copies,
// SSD's extra layers over phase copies) run on Ncore; one sample each
// (the reference takes about 10 s per ResNet-50 sample).
TEST(ModelEndToEnd, ResNet50NcoreMatchesReference)
{
    expectNcoreMatchesReference(buildResNet50V15(), 7);
}

TEST(ModelEndToEnd, SsdMobileNetNcoreMatchesReference)
{
    expectNcoreMatchesReference(buildSsdMobileNetV1(), 11);
}

TEST(ModelGnmt, TranslateIsDeterministic)
{
    Gnmt gnmt;
    std::vector<int> src = {5, 99, 1234, 7};
    auto a = gnmt.translate(src, 4);
    auto b = gnmt.translate(src, 4);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
    for (int tok : a) {
        EXPECT_GE(tok, 0);
        EXPECT_LT(tok, 22016);
    }
}

TEST(ModelGnmt, EncoderCellIsBounded)
{
    Gnmt gnmt;
    std::vector<float> x(1024, 0.5f), h(1024, 0.0f), c(1024, 0.0f);
    gnmt.encCellReference(0, x, h, c);
    for (float v : h) {
        EXPECT_LE(std::fabs(v), 1.0f); // h = o * tanh(c) is in [-1,1].
    }
}

TEST(ModelGnmt, NcoreRunStreamsWeights)
{
    Gnmt gnmt;
    Machine m(chaNcoreConfig(), chaSocConfig());
    Gnmt::RunStats stats = gnmt.runOnNcore(m, 2, 1);

    EXPECT_GT(stats.cycles, 100000u);
    EXPECT_GT(stats.x86Seconds, 0.0);
    // MACs executed on the machine at least match the analytic count
    // (lane padding only adds).
    EXPECT_GE(stats.macOps + 4096, uint64_t(gnmt.macCount(2, 1)) / 2);
    // The weight traffic dominates: at least the encoder+decoder
    // matrices crossed the DMA once.
    EXPECT_GT(stats.dmaBytes, 100ull << 20);
}

// ---------------- Golden device totals ----------------
//
// Exact simulated totals per model. A compiler, NKL or simulator change
// that moves any of them must update the golden here (and
// EXPERIMENTS.md) on purpose.

struct DeviceTotals
{
    uint64_t cycles;
    uint64_t instructions;
    uint64_t dmaBytesRead;
    uint64_t laneMacs;
    uint64_t dmaFenceStall;
};

void
expectDeviceTotals(Workload w, const DeviceTotals &golden)
{
    const ProfileCounters t = profileWorkloadReport(w).totals;
    EXPECT_EQ(t.cycles(), golden.cycles) << workloadName(w);
    EXPECT_EQ(t.instructions, golden.instructions) << workloadName(w);
    EXPECT_EQ(t.dmaBytesRead, golden.dmaBytesRead) << workloadName(w);
    EXPECT_EQ(t.macOps, golden.laneMacs) << workloadName(w);
    EXPECT_EQ(t.buckets[size_t(CycleBucket::DmaFenceStall)],
              golden.dmaFenceStall)
        << workloadName(w);
}

TEST(ModelDeviceTotals, MobileNetV1)
{
    expectDeviceTotals(Workload::MobileNetV1,
                       {244091, 244091, 0, 891404288, 0});
}

TEST(ModelDeviceTotals, ResNet50)
{
    expectDeviceTotals(Workload::ResNet50,
                       {1635037, 1581869, 27258880, 6286147584, 53168});
}

TEST(ModelDeviceTotals, SsdMobileNet)
{
    expectDeviceTotals(Workload::SsdMobileNet,
                       {827842, 827842, 0, 3209674752, 0});
}

/// (1,1) GNMT sentence. The digest was taken with the byte-at-a-time
/// SystemMemory copy loop, so it pins the page-span copies to it.
constexpr uint64_t kGnmtCycles = 9854306;
constexpr uint64_t kGnmtDmaBytes = 360710144;
constexpr uint64_t kGnmtMacOps = 180355072;
constexpr uint64_t kGnmtDigest = 0xa73e81c27115b0dcull;

TEST(ModelDeviceTotals, GnmtOnTwoMachines)
{
    // One Gnmt stages its weight images into each machine's own DRAM:
    // the second machine must not read addresses only the first wrote.
    Gnmt gnmt;
    Machine m1(chaNcoreConfig(), chaSocConfig());
    Machine m2(chaNcoreConfig(), chaSocConfig());
    Gnmt::RunStats a = gnmt.runOnNcore(m1, 1, 1);
    Gnmt::RunStats b = gnmt.runOnNcore(m2, 1, 1);
    EXPECT_EQ(a.cycles, kGnmtCycles);
    EXPECT_EQ(a.dmaBytes, kGnmtDmaBytes);
    EXPECT_EQ(a.macOps, kGnmtMacOps);
    EXPECT_EQ(a.outputDigest, kGnmtDigest)
        << std::hex << "0x" << a.outputDigest;
    EXPECT_EQ(b.cycles, a.cycles);
    EXPECT_EQ(b.macOps, a.macOps);
    EXPECT_EQ(b.dmaBytes, a.dmaBytes);
    EXPECT_EQ(b.x86Seconds, a.x86Seconds);
    EXPECT_EQ(b.outputDigest, kGnmtDigest);
    // A repeat on the first machine reuses its staged images.
    uint64_t allocated = m1.sysmem().bytesAllocated();
    EXPECT_EQ(gnmt.runOnNcore(m1, 1, 1).outputDigest, kGnmtDigest);
    EXPECT_EQ(m1.sysmem().bytesAllocated(), allocated);
    // A reset memory holds nothing, so the images are staged again.
    m1.sysmem().reset();
    EXPECT_EQ(gnmt.runOnNcore(m1, 1, 1).outputDigest, kGnmtDigest);
    EXPECT_EQ(m1.sysmem().bytesAllocated(), allocated);
}

} // namespace
} // namespace ncore
