/**
 * @file
 * NKL kernels beyond convs vs the x86 reference: pooling (max/avg,
 * strided; emitConv runs pools as depthwise windows) and quantized
 * residual add; GNMT's bf16 matmul vs an in-test float
 * accumulation. Also checks the edge-patch pass by chaining two kernels.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "gir/graph.h"
#include "nkl_test_util.h"
#include "x86/reference.h"

namespace ncore {
namespace {

/** A k x k pool with `pad` on every side, run through emitConv. */
struct PoolCase
{
    NpuOp op = NpuOp::Max; ///< Max or Add (average).
    int h = 0, w = 0, c = 64;
    int k = 3, stride = 2, pad = 1;
    int outPad = 0; ///< Materialized pads of the output layout.
    uint64_t seed = 31;
    float lo = -1.0f, hi = 3.0f; ///< Input and output range.
    /// Every input code below the zero point: a pad lane that took
    /// part in a max would win it.
    bool belowZero = false;
};

class NklOpsTest : public ::testing::Test
{
  protected:
    NklOpsTest() : m(chaNcoreConfig(), chaSocConfig())
    {
        masks.baseRow = 0;
        testutil::writeMaskTable(m, masks);
    }

    void runPool(const PoolCase &pc);

    Machine m;
    MaskTable masks;
};

// A single-tile input runs one unpredicated pass.
TEST_F(NklOpsTest, MaxPoolStride2MatchesReference)
{
    runPool({.h = 12, .w = 12});
}

// Multi-tile inputs run two predicated passes; the padded multi-tile
// output repairs the first lanes of its second tile.
TEST_F(NklOpsTest, MaxPoolStride2MultiTileMatchesReference)
{
    runPool({.h = 6, .w = 150, .outPad = 1});
}

// Padding must not win the max even where every real code lies below
// the zero point the pad lanes hold: the pool reads its min-code copy.
TEST_F(NklOpsTest, PaddedMaxPoolBelowZeroPointMatchesReference)
{
    runPool({.h = 12, .w = 12, .belowZero = true});
}

TEST_F(NklOpsTest, GlobalAvgPoolMatchesReference)
{
    runPool({.op = NpuOp::Add, .h = 7, .w = 7, .c = 256, .k = 7,
             .stride = 1, .pad = 0, .seed = 32, .lo = -2.0f, .hi = 2.0f});
}

// Add in two predicated passes over a multi-tile input.
TEST_F(NklOpsTest, AvgPoolStride2MultiTileMatchesReference)
{
    runPool({.op = NpuOp::Add, .h = 8, .w = 150, .k = 2, .pad = 0,
             .outPad = 1, .seed = 34});
}

void
NklOpsTest::runPool(const PoolCase &pc)
{
    const bool max = pc.op == NpuOp::Max;
    QuantParams qp = chooseAsymmetricUint8(pc.lo, pc.hi);
    Rng rng(pc.seed);

    GraphBuilder gb("pool");
    TensorId x =
        gb.input("x", Shape{1, pc.h, pc.w, pc.c}, DType::UInt8, qp);
    TensorId y = max ? gb.maxPool2d("mp", x, pc.k, pc.k, pc.stride,
                                    pc.stride, pc.pad, pc.pad, pc.pad,
                                    pc.pad)
                     : gb.avgPool2d("ap", x, pc.k, pc.k, pc.stride,
                                    pc.stride, pc.pad, pc.pad, pc.pad,
                                    pc.pad);
    gb.output(y);
    Graph g = gb.take();

    Tensor x_val(Shape{1, pc.h, pc.w, pc.c}, DType::UInt8, qp);
    x_val.fillRandom(rng);
    if (pc.belowZero) {
        ASSERT_GT(qp.zeroPoint, 0);
        for (int64_t i = 0; i < x_val.numElements(); ++i)
            x_val.setIntAt(i, int32_t(rng.nextRange(0, qp.zeroPoint - 1)));
    }
    ReferenceExecutor ref(g);
    Tensor want = ref.run({x_val})[0];

    TensorLayout li = interleavedLayout(x_val.shape(), pc.pad, pc.pad,
                                        pc.pad, pc.pad,
                                        uint8_t(qp.zeroPoint));
    li.baseRow = MaskTable::kRows; // Past the mask table.
    TensorLayout lo =
        interleavedLayout(want.shape(), pc.outPad, pc.outPad, pc.outPad,
                          pc.outPad, uint8_t(qp.zeroPoint));
    lo.baseRow = li.baseRow + li.rows() + 4;
    testutil::loadInterleaved(m, x_val, li);

    // Max pools reduce raw codes; average pools divide the zero-offset
    // sum by the window.
    RequantEntry e;
    e.rq = max ? computeRequant(1.0f, 0)
               : computeRequant(1.0f / float(pc.k * pc.k), qp.zeroPoint);
    e.outType = DType::UInt8;
    e.actMin = 0;
    e.actMax = 255;
    m.writeRequantEntry(2, e);

    ConvKernel p;
    p.in = li;
    p.out = lo;
    p.kh = p.kw = pc.k;
    p.strideH = p.strideW = pc.stride;
    p.padTop = p.padLeft = pc.pad;
    p.cin = p.cout = pc.c;
    p.depthwise = true;
    p.op = pc.op;
    p.rqIndex = 2;
    p.dataZero = uint8_t(qp.zeroPoint);
    p.masks = masks;
    p.stageBase = lo.baseRow + lo.rows() + 4;
    const ConvPlan plan = planConv(p);
    ASSERT_EQ(plan.form, ConvForm::Rows);
    ASSERT_EQ(plan.stagingRows, max && pc.pad > 0 ? li.rows() : 0);
    ASSERT_LE(p.stageBase + plan.stagingRows, 2048);

    ProgramBuilder pb;
    emitConv(pb, p);
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    Tensor got(want.shape(), DType::UInt8, qp);
    testutil::readInterleaved(m, got, lo);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

TEST_F(NklOpsTest, ResidualAddMatchesReference)
{
    const int h = 9, w = 70, c = 96;
    QuantParams a_qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    QuantParams b_qp = chooseAsymmetricUint8(-2.0f, 2.0f);
    QuantParams o_qp = chooseAsymmetricUint8(-3.0f, 3.0f);
    Rng rng(33);

    GraphBuilder gb("addg");
    TensorId a = gb.input("a", Shape{1, h, w, c}, DType::UInt8, a_qp);
    TensorId b = gb.input("b", Shape{1, h, w, c}, DType::UInt8, b_qp);
    TensorId y = gb.add("add", a, b, ActFn::Relu, o_qp);
    gb.output(y);
    Graph g = gb.take();

    Tensor a_val(Shape{1, h, w, c}, DType::UInt8, a_qp);
    Tensor b_val(Shape{1, h, w, c}, DType::UInt8, b_qp);
    a_val.fillRandom(rng);
    b_val.fillRandom(rng);
    ReferenceExecutor ref(g);
    Tensor want = ref.run({a_val, b_val})[0];

    TensorLayout la = interleavedLayout(a_val.shape(), 0, 0, 0, 0,
                                        uint8_t(a_qp.zeroPoint));
    la.baseRow = MaskTable::kRows; // Past the mask table.
    TensorLayout lb = la;
    lb.zeroByte = uint8_t(b_qp.zeroPoint);
    lb.baseRow = la.baseRow + la.rows();
    TensorLayout lo = la;
    lo.zeroByte = uint8_t(o_qp.zeroPoint);
    lo.baseRow = lb.baseRow + lb.rows();
    testutil::loadInterleaved(m, a_val, la);
    testutil::loadInterleaved(m, b_val, lb);

    AddQuantPlan plan =
        makeAddPlan(a_qp, b_qp, o_qp, DType::UInt8, ActFn::Relu);
    m.writeRequantEntry(4, plan.entry);

    AddKernel p;
    p.a = la;
    p.b = lb;
    p.out = lo;
    p.ka = plan.ka;
    p.kb = plan.kb;
    p.zeroA = uint8_t(a_qp.zeroPoint);
    p.zeroB = uint8_t(b_qp.zeroPoint);
    p.rqIndex = 4;

    ProgramBuilder pb;
    emitAdd(pb, p);
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    Tensor got(want.shape(), DType::UInt8, o_qp);
    testutil::readInterleaved(m, got, lo);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

TEST_F(NklOpsTest, MatmulBf16MatchesReferenceBitExact)
{
    const int k = 512, n = 2000;
    Rng rng(36);

    Tensor w_val(Shape{k, n}, DType::BFloat16);
    w_val.fillGaussian(rng, 0.05f);
    Tensor a_val(Shape{1, k}, DType::BFloat16);
    a_val.fillGaussian(rng, 0.5f);

    // Oracle: float accumulation of the bf16 products in ascending k
    // (the NPU accumulates them in full float precision, one k per
    // step), rounded to bf16 once.
    Tensor want(Shape{1, n}, DType::BFloat16);
    for (int j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (int kk = 0; kk < k; ++kk)
            acc += a_val.floatAt(kk) * w_val.floatAt(int64_t(kk) * n + j);
        want.setFloatAt(j, acc);
    }

    TensorLayout li = flatLayout(k);
    li.baseRow = MaskTable::kRows; // Past the mask table.
    TensorLayout lo = flatLayout(n);
    lo.baseRow = li.baseRow + li.rows();
    testutil::loadFlat(m, a_val, li);

    auto img = packMatmulBf16Weights(w_val);
    testutil::loadWeights(m, img, 0);

    MatmulBf16Kernel p;
    p.in = li;
    p.out = lo;
    p.k = k;
    p.n = n;
    p.weightBase = 0;

    ProgramBuilder pb;
    emitMatmulBf16(pb, p);
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    Tensor got(Shape{1, n}, DType::BFloat16, {});
    testutil::readFlat(m, got, lo);
    for (int64_t i = 0; i < n; ++i) {
        uint16_t bits_got, bits_want;
        std::memcpy(&bits_got, got.raw() + 2 * i, 2);
        std::memcpy(&bits_want, want.raw() + 2 * i, 2);
        ASSERT_EQ(bits_got, bits_want)
            << i << ": got " << got.floatAt(i) << ", want "
            << want.floatAt(i);
    }
}

TEST(NklLayout, PackMatmulBf16WeightsMatchesPerByteLoop)
{
    // N = 22016 (GNMT's vocabulary) leaves a partial last chunk.
    const int64_t k = 3, n = 22016, row = 4096;
    Tensor w(Shape{k, n}, DType::BFloat16);
    Rng rng(37);
    w.fillGaussian(rng, 0.05f);

    // The per-byte reference loop.
    std::vector<uint8_t> want(size_t(matmulBf16WeightRows(k, n)) * row, 0);
    for (int64_t ch = 0; ch < (n + row - 1) / row; ++ch)
    for (int64_t kk = 0; kk < k; ++kk) {
        uint8_t *lo = want.data() + size_t((ch * k + kk) * 2) * row;
        uint8_t *hi = lo + row;
        for (int64_t j = 0; j < row; ++j) {
            int64_t col = ch * row + j;
            if (col >= n)
                break;
            lo[j] = w.raw()[(kk * n + col) * 2];
            hi[j] = w.raw()[(kk * n + col) * 2 + 1];
        }
    }
    EXPECT_EQ(packMatmulBf16Weights(w), want);
}

TEST_F(NklOpsTest, ChainedConvsExerciseHaloPatch)
{
    // Two chained 3x3 convolutions across a 3-tile-wide tensor: the
    // second conv consumes the first's halo lanes, so a bit-exact match
    // proves the edge-patch pass writes correct halos and pad lanes.
    const int h = 6, w = 150, c = 64;
    QuantParams qp0 = chooseAsymmetricUint8(-1.0f, 1.0f);
    QuantParams w_qp{0.03f, 128};
    QuantParams qp1 = chooseAsymmetricUint8(-2.0f, 2.0f);
    QuantParams qp2 = chooseAsymmetricUint8(-4.0f, 4.0f);
    Rng rng(37);

    GraphBuilder gb("chain");
    TensorId x = gb.input("x", Shape{1, h, w, c}, DType::UInt8, qp0);
    Tensor w1(Shape{c, 3, 3, c}, DType::UInt8, w_qp);
    w1.fillRandom(rng);
    Tensor w2(Shape{c, 3, 3, c}, DType::UInt8, w_qp);
    w2.fillRandom(rng);
    TensorId t1 = gb.conv2d("c1", x, gb.constant("w1", w1, w_qp),
                            kNoTensor, 1, 1, 1, 1, 1, 1, ActFn::Relu,
                            qp1);
    TensorId t2 = gb.conv2d("c2", t1, gb.constant("w2", w2, w_qp),
                            kNoTensor, 1, 1, 1, 1, 1, 1, ActFn::None,
                            qp2);
    gb.output(t2);
    Graph g = gb.take();

    Tensor x_val(Shape{1, h, w, c}, DType::UInt8, qp0);
    x_val.fillRandom(rng);
    ReferenceExecutor ref(g);
    Tensor want = ref.run({x_val})[0];

    // The input's materialized left pad covers conv1's pad (1) plus
    // the layout pad of conv1's output (1) — the layout-propagation
    // rule the GCL implements.
    TensorLayout l0 = interleavedLayout(x_val.shape(), 1, 1, 2, 2,
                                        uint8_t(qp0.zeroPoint));
    l0.baseRow = MaskTable::kRows; // Past the mask table.
    TensorLayout l1 =
        interleavedLayout(g.tensor(t1).shape, 1, 1, 1, 1,
                          uint8_t(qp1.zeroPoint));
    l1.baseRow = l0.baseRow + l0.rows() + 2;
    TensorLayout l2 =
        interleavedLayout(g.tensor(t2).shape, 0, 0, 0, 0,
                          uint8_t(qp2.zeroPoint));
    l2.baseRow = l1.baseRow + l1.rows() + 2;
    ASSERT_LE(l2.baseRow + l2.rows(), 2048);
    testutil::loadInterleaved(m, x_val, l0);

    m.writeRequantEntry(
        1, makeRequantEntry(qp0.scale * w_qp.scale / qp1.scale, qp1,
                            DType::UInt8, ActFn::Relu));
    m.writeRequantEntry(
        2, makeRequantEntry(qp1.scale * w_qp.scale / qp2.scale, qp2,
                            DType::UInt8, ActFn::None));

    ProgramBuilder pb;
    ConvKernel k1;
    k1.in = l0;
    k1.out = l1;
    k1.kh = k1.kw = 3;
    k1.padTop = k1.padLeft = 1;
    k1.cin = k1.cout = c;
    k1.weightBase = 0;
    k1.rqIndex = 1;
    k1.dataZero = uint8_t(qp0.zeroPoint);
    k1.weightZero = uint8_t(w_qp.zeroPoint);
    k1.masks = masks;
    emitConv(pb, k1);

    ConvKernel k2 = k1;
    k2.in = l1;
    k2.out = l2;
    const auto img1 =
        packWindowWeights(k1, w1, nullptr, uint8_t(w_qp.zeroPoint));
    k2.weightBase = int(img1.size() / 4096);
    k2.rqIndex = 2;
    k2.dataZero = uint8_t(qp1.zeroPoint);
    emitConv(pb, k2);
    testutil::loadWeights(m, img1, 0);
    testutil::loadWeights(
        m, packWindowWeights(k2, w2, nullptr, uint8_t(w_qp.zeroPoint)),
        k2.weightBase);

    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    Tensor got(want.shape(), DType::UInt8, qp2);
    testutil::readInterleaved(m, got, l2);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

} // namespace
} // namespace ncore
