/**
 * @file
 * Packed-row kernel tests: halo-free host pack/unpack round-trips,
 * on-chip relayouts into and out of halo-free rows, staged convolutions
 * (standard and depthwise, stride 1 and 2, from plain single-tile,
 * packed and dense sources) and residual adds over packed rows — all
 * bit-exact against the x86 reference.
 */

#include <gtest/gtest.h>

#include <string>

#include "gir/graph.h"
#include "nkl_test_util.h"
#include "x86/reference.h"

namespace ncore {
namespace {

class NklPackedTest : public ::testing::Test
{
  protected:
    NklPackedTest() : m(chaNcoreConfig(), chaSocConfig())
    {
        masks.baseRow = 0;
        testutil::writeMaskTable(m, masks);
    }

    Machine m;
    MaskTable masks;
};

TEST_F(NklPackedTest, HostPackUnpackRoundTrip)
{
    QuantParams qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    Rng rng(3);
    Tensor t(Shape{1, 14, 14, 96}, DType::UInt8, qp);
    t.fillRandom(rng);

    TensorLayout lay = haloFreeLayout(t.shape(), uint8_t(qp.zeroPoint));
    EXPECT_EQ(lay.pitch, 16);
    EXPECT_EQ(lay.ny, 4);
    EXPECT_EQ(lay.blocks(), 4);
    lay.baseRow = 100;

    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    packActivation(t, 0, lay, img.data());
    Tensor back(t.shape(), DType::UInt8, qp);
    unpackActivation(img.data(), lay, back, 0);
    for (int64_t i = 0; i < t.numElements(); ++i)
        ASSERT_EQ(back.intAt(i), t.intAt(i)) << i;
}

TEST_F(NklPackedTest, OnChipRepackMatchesHostPack)
{
    QuantParams qp = chooseAsymmetricUint8(-2.0f, 2.0f);
    Rng rng(4);
    Tensor t(Shape{1, 7, 7, 128}, DType::UInt8, qp);
    t.fillRandom(rng);

    // Plain layout with uniform pads 1.
    TensorLayout plain = interleavedLayout(t.shape(), 1, 1, 1, 1,
                                           uint8_t(qp.zeroPoint));
    plain.baseRow = 80;
    TensorLayout packed = haloFreeLayout(t.shape(),
                                         uint8_t(qp.zeroPoint));
    packed.baseRow = plain.baseRow + plain.rows() + 2;
    testutil::loadInterleaved(m, t, plain);

    ProgramBuilder pb;
    emitRelayout(pb, plain, packed, masks);
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    // The on-chip rows must match the host packer bit-for-bit
    // (including the pad lanes and the dead tail).
    std::vector<uint8_t> want(size_t(packed.rows()) * 4096);
    packActivation(t, 0, packed, want.data());
    std::vector<uint8_t> got(4096);
    for (int r = 0; r < packed.rows(); ++r) {
        m.hostReadRow(false, packed.baseRow + r, got.data());
        for (int i = 0; i < 4096; ++i)
            ASSERT_EQ(got[size_t(i)], want[size_t(r) * 4096 + i])
                << "row " << r << " byte " << i;
    }
}

/** Rows a staged conv's source lives in, and where its output goes. */
enum class Rows {
    Plain,  ///< Plain single-tile rows (as a source, with conv pads).
    Packed, ///< Halo-free rows: the rows the conv itself writes.
    Dense,  ///< Dense rows (sources only).
    Temp,   ///< The conv's halo-free temp, relayouted into dense rows.
};

struct PackedConvCase
{
    int h, w, cin, cout;
    int k;
    int stride;
    int pad;
    bool depthwise;
    Rows out = Rows::Packed;
    Rows in = Rows::Packed;
};

/** Test name, e.g. h14w14_c64_k64_3x3_s2_p1_packed_to_plain. */
std::string
packedConvName(const ::testing::TestParamInfo<PackedConvCase> &info)
{
    const PackedConvCase &c = info.param;
    const char *rows[] = {"plain", "packed", "dense", "temp"};
    return "h" + std::to_string(c.h) + "w" + std::to_string(c.w) +
           "_c" + std::to_string(c.cin) + "_k" + std::to_string(c.cout) +
           "_" + std::to_string(c.k) + "x" + std::to_string(c.k) +
           "_s" + std::to_string(c.stride) + "_p" +
           std::to_string(c.pad) + (c.depthwise ? "_dw" : "") + "_" +
           rows[int(c.in)] + "_to_" + rows[int(c.out)];
}

class PackedConvTest : public ::testing::TestWithParam<PackedConvCase>
{
};

TEST_P(PackedConvTest, MatchesQuantizedReference)
{
    const PackedConvCase cc = GetParam();
    Machine m(chaNcoreConfig(), chaSocConfig());
    MaskTable masks;
    masks.baseRow = 0;
    testutil::writeMaskTable(m, masks);

    Rng rng(uint64_t(cc.h * 7 + cc.w + cc.cin + cc.cout + cc.k +
                     cc.stride * 11 + (cc.depthwise ? 100 : 0)));
    QuantParams in_qp = chooseAsymmetricUint8(-1.5f, 1.5f);
    QuantParams w_qp{0.02f, 128};
    QuantParams out_qp = chooseAsymmetricUint8(-3.0f, 3.0f);

    GraphBuilder gb("pc");
    TensorId x = gb.input("x", Shape{1, cc.h, cc.w, cc.cin},
                          DType::UInt8, in_qp);
    int64_t k_out = cc.depthwise ? cc.cin : cc.cout;
    Shape w_shape = cc.depthwise
                        ? Shape{1, cc.k, cc.k, cc.cin}
                        : Shape{int64_t(cc.cout), cc.k, cc.k, cc.cin};
    Tensor w_val(w_shape, DType::UInt8, w_qp);
    w_val.fillRandom(rng);
    Tensor b_val(Shape{k_out}, DType::Int32);
    for (int64_t i = 0; i < k_out; ++i)
        b_val.setIntAt(i, int32_t(rng.nextRange(-1500, 1500)));
    TensorId w = gb.constant("w", w_val, w_qp);
    TensorId b = gb.constant("b", b_val);
    TensorId y =
        cc.depthwise
            ? gb.depthwiseConv2d("dw", x, w, b, cc.stride, cc.stride,
                                 cc.pad, cc.pad, cc.pad, cc.pad,
                                 ActFn::Relu, out_qp)
            : gb.conv2d("c", x, w, b, cc.stride, cc.stride, cc.pad,
                        cc.pad, cc.pad, cc.pad, ActFn::Relu, out_qp);
    gb.output(y);
    Graph g = gb.take();
    Tensor x_val(Shape{1, cc.h, cc.w, cc.cin}, DType::UInt8, in_qp);
    x_val.fillRandom(rng);
    Tensor want = ReferenceExecutor(g).run({x_val})[0];

    // Device setup: the source rows, the halo-free rows the conv
    // writes, then its staging scratch.
    const uint8_t in_zp = uint8_t(in_qp.zeroPoint);
    const uint8_t out_zp = uint8_t(out_qp.zeroPoint);
    TensorLayout li =
        cc.in == Rows::Packed  ? haloFreeLayout(x_val.shape(), in_zp)
        : cc.in == Rows::Dense ? denseLayout(x_val.shape(), in_zp)
                               : interleavedLayout(x_val.shape(), cc.pad,
                                                   cc.pad, cc.pad, cc.pad,
                                                   in_zp);
    li.baseRow = 80;
    testutil::loadInterleaved(m, x_val, li);

    ConvKernel kp;
    kp.in = li;
    kp.out = interleavedLayout(want.shape(), 0, 0, 0, 0, out_zp);
    kp.kh = kp.kw = cc.k;
    kp.strideH = kp.strideW = cc.stride;
    kp.padTop = kp.padLeft = cc.pad;
    kp.cin = cc.cin;
    kp.cout = int(k_out);
    kp.depthwise = cc.depthwise;
    kp.weightBase = 0;
    kp.rqIndex = 1;
    kp.dataZero = in_zp;
    kp.weightZero = uint8_t(w_qp.zeroPoint);
    kp.masks = masks;
    // The form and rows NKL picks: staged, writing halo-free rows.
    kp.out.baseRow = li.baseRow + li.rows() + 2;
    const ConvPlan plan = planConv(kp);
    ASSERT_EQ(plan.form, ConvForm::Staged);
    const TensorLayout lo = kp.out = plan.out;
    ASSERT_TRUE(lo.packed());
    kp.stageBase = lo.baseRow + lo.rows() + 2;
    ASSERT_LE(kp.stageBase + plan.stagingRows, 2048);
    testutil::loadWeights(
        m, packWindowWeights(kp, w_val, &b_val, uint8_t(w_qp.zeroPoint)),
        0);

    float mreal = in_qp.scale * w_qp.scale / out_qp.scale;
    m.writeRequantEntry(1, makeRequantEntry(mreal, out_qp,
                                            DType::UInt8,
                                            ActFn::Relu));

    ProgramBuilder pb;
    emitConv(pb, kp);
    // Plain and dense homes take the rows the way gcl moves them.
    TensorLayout home = lo;
    if (cc.out != Rows::Packed) {
        home = cc.out == Rows::Plain
                   ? interleavedLayout(want.shape(), 1, 1, 1, 1, out_zp)
                   : denseLayout(want.shape(), out_zp);
        home.baseRow = kp.stageBase;
        emitRelayout(pb, lo, home, masks);
    }
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    Tensor got(want.shape(), DType::UInt8, out_qp);
    testutil::readInterleaved(m, got, home);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

INSTANTIATE_TEST_SUITE_P(
    PackedToPacked, PackedConvTest,
    ::testing::Values(
        PackedConvCase{14, 14, 64, 64, 1, 1, 0, false},
        PackedConvCase{14, 14, 128, 64, 3, 1, 1, false},
        PackedConvCase{7, 7, 64, 128, 3, 1, 1, false},
        PackedConvCase{7, 7, 256, 64, 1, 1, 0, false},
        PackedConvCase{14, 14, 96, 96, 3, 1, 1, true},
        PackedConvCase{7, 7, 64, 64, 3, 1, 1, true},
        PackedConvCase{9, 12, 64, 64, 3, 1, 1, false}),
    packedConvName);

// Staged convs whose output lives in plain rows (the tensor also feeds
// a pool, say): a relayout moves the halo-free rows there.
INSTANTIATE_TEST_SUITE_P(
    PackedToPlain, PackedConvTest,
    ::testing::Values(
        PackedConvCase{14, 14, 64, 64, 3, 2, 1, false, Rows::Plain},
        PackedConvCase{14, 14, 64, 64, 1, 2, 0, false, Rows::Plain},
        PackedConvCase{14, 14, 64, 64, 3, 2, 1, true, Rows::Plain},
        PackedConvCase{7, 7, 128, 64, 3, 1, 1, false, Rows::Plain},
        PackedConvCase{13, 13, 64, 64, 3, 2, 1, false, Rows::Plain}),
    packedConvName);

// Stride-2 standard convs read one copy per kernel row and column
// phase: plain single-tile inputs (ResNet stage 4's 28-wide input) and
// packed ones, odd widths and heights, cin of one to three channel
// blocks.
INSTANTIATE_TEST_SUITE_P(
    PhaseSplit, PackedConvTest,
    ::testing::Values(
        PackedConvCase{28, 28, 64, 64, 3, 2, 1, false, Rows::Packed,
                       Rows::Plain},
        PackedConvCase{28, 28, 128, 64, 1, 2, 0, false, Rows::Packed,
                       Rows::Plain},
        PackedConvCase{28, 28, 192, 128, 3, 2, 1, false, Rows::Packed,
                       Rows::Plain},
        PackedConvCase{27, 27, 64, 64, 3, 2, 1, false, Rows::Packed,
                       Rows::Plain},
        PackedConvCase{27, 25, 64, 64, 1, 2, 0, false, Rows::Packed,
                       Rows::Plain},
        PackedConvCase{14, 14, 64, 64, 3, 2, 1, false},
        PackedConvCase{14, 14, 128, 128, 1, 2, 0, false},
        PackedConvCase{14, 14, 192, 64, 3, 2, 1, false},
        PackedConvCase{13, 13, 64, 64, 3, 2, 1, false},
        PackedConvCase{10, 10, 64, 64, 3, 2, 1, false},
        PackedConvCase{5, 5, 64, 64, 3, 2, 1, false},
        PackedConvCase{3, 3, 64, 32, 3, 2, 1, false},
        PackedConvCase{14, 14, 48, 64, 2, 2, 0, false},
        PackedConvCase{14, 14, 64, 64, 3, 2, 0, false}),
    packedConvName);

// Standard convs whose output lives in dense rows (only 1x1 convs,
// adds and staged convs read it): stride 1 and 2 over packed, plain
// single-tile (ResNet's 28-wide stage-4 inputs) and dense sources
// (ResNet's stage-4/5 blocks, SSD's extra layers), cin of one to three
// channel blocks and a partial one, pads 0 and 1.
INSTANTIATE_TEST_SUITE_P(
    StagedHaloFree, PackedConvTest,
    ::testing::Values(
        PackedConvCase{14, 14, 64, 64, 3, 1, 1, false, Rows::Temp},
        PackedConvCase{13, 13, 96, 64, 3, 1, 1, false, Rows::Temp},
        PackedConvCase{10, 10, 192, 64, 3, 1, 1, false, Rows::Temp},
        PackedConvCase{7, 7, 64, 128, 3, 1, 1, false, Rows::Temp},
        PackedConvCase{6, 6, 96, 96, 3, 1, 1, false, Rows::Temp},
        PackedConvCase{14, 14, 192, 64, 1, 1, 0, false, Rows::Temp},
        PackedConvCase{28, 28, 64, 64, 3, 2, 1, false, Rows::Temp,
                       Rows::Plain},
        PackedConvCase{28, 28, 96, 128, 1, 2, 0, false, Rows::Temp,
                       Rows::Plain},
        PackedConvCase{15, 15, 64, 64, 3, 2, 0, false, Rows::Temp,
                       Rows::Plain},
        PackedConvCase{14, 14, 192, 64, 3, 2, 1, false, Rows::Temp},
        PackedConvCase{14, 14, 64, 64, 1, 2, 0, false, Rows::Temp},
        PackedConvCase{14, 14, 64, 64, 3, 2, 0, false, Rows::Temp},
        PackedConvCase{13, 13, 96, 64, 3, 2, 1, false, Rows::Temp},
        PackedConvCase{13, 13, 64, 192, 1, 2, 0, false, Rows::Temp},
        PackedConvCase{10, 10, 64, 64, 3, 2, 1, false, Rows::Temp},
        PackedConvCase{14, 14, 96, 64, 3, 1, 1, false, Rows::Temp,
                       Rows::Dense},
        PackedConvCase{14, 14, 64, 128, 3, 2, 1, false, Rows::Temp,
                       Rows::Dense},
        PackedConvCase{14, 14, 160, 64, 1, 2, 0, false, Rows::Temp,
                       Rows::Dense},
        PackedConvCase{5, 5, 64, 64, 3, 2, 1, false, Rows::Packed,
                       Rows::Dense},
        PackedConvCase{2, 2, 64, 128, 3, 2, 1, false, Rows::Plain,
                       Rows::Dense}),
    packedConvName);

// Depthwise convs read one copy per kernel row: stride 1 at the zoo's
// widths (MobileNet's 14 and 7, SSD's 10, 5 and 3), stride 2 from 14 to
// 7 (MobileNet block12) and from 19 to 10 (SSD block12), over dense,
// plain single-tile and packed sources, with whole and partial channel
// blocks.
INSTANTIATE_TEST_SUITE_P(
    StagedDepthwise, PackedConvTest,
    ::testing::Values(
        PackedConvCase{14, 14, 96, 96, 3, 1, 1, true, Rows::Temp,
                       Rows::Dense},
        PackedConvCase{10, 10, 128, 128, 3, 1, 1, true, Rows::Packed,
                       Rows::Plain},
        PackedConvCase{7, 7, 160, 160, 3, 1, 1, true, Rows::Temp},
        PackedConvCase{5, 5, 64, 64, 3, 1, 1, true, Rows::Plain,
                       Rows::Dense},
        PackedConvCase{3, 3, 96, 96, 3, 1, 1, true, Rows::Packed,
                       Rows::Dense},
        PackedConvCase{14, 14, 96, 96, 3, 2, 1, true, Rows::Temp,
                       Rows::Dense},
        PackedConvCase{14, 14, 64, 64, 3, 2, 0, true, Rows::Packed},
        PackedConvCase{19, 19, 64, 64, 3, 2, 1, true, Rows::Temp,
                       Rows::Plain},
        PackedConvCase{19, 19, 96, 96, 3, 2, 1, true, Rows::Plain,
                       Rows::Plain},
        PackedConvCase{28, 28, 64, 64, 3, 2, 1, true, Rows::Temp,
                       Rows::Plain}),
    packedConvName);

TEST(StagedRule, StagedConvsWriteHaloFreeRows)
{
    // Halo-free rows hold 64/(w+2) ys: 4 for w = 14, 7 for w = 7.
    const TensorLayout l14 = haloFreeLayout(Shape{1, 14, 14, 256}, 0);
    EXPECT_EQ(l14.pitch, 16);
    EXPECT_EQ(l14.ny, 4);
    EXPECT_EQ(l14.blocks(), 4);
    EXPECT_EQ(l14.rows(), 16);
    const TensorLayout l7 = haloFreeLayout(Shape{1, 7, 7, 512}, 0);
    EXPECT_EQ(l7.ny, 7);
    EXPECT_EQ(l7.blocks(), 1);

    // planConv picks the form of each window from its input rows. A
    // stride-2 depthwise conv's copies hold two output pitches of input
    // columns per slot, so its rows hold half the ys.
    auto plan = [](TensorLayout in, int out_hw, int k, int stride, int pad,
                   bool depthwise, NpuOp op = NpuOp::Mac) {
        ConvKernel p;
        p.in = in;
        p.out = interleavedLayout(Shape{1, out_hw, out_hw, 64}, 0, 0, 0, 0,
                                  0);
        p.kh = p.kw = k;
        p.strideH = p.strideW = stride;
        p.padTop = p.padLeft = pad;
        p.cin = p.cout = 64;
        p.depthwise = depthwise;
        p.op = op;
        return planConv(p);
    };
    const Shape s14{1, 14, 14, 64};
    const TensorLayout d14 = denseLayout(s14, 0);
    EXPECT_EQ(plan(d14, 7, 3, 1, 1, true).out.ny, 7);
    EXPECT_EQ(plan(d14, 7, 3, 2, 1, false).out.ny, 7);
    const ConvPlan dw7 = plan(d14, 7, 3, 2, 1, true);
    EXPECT_EQ(dw7.form, ConvForm::Staged);
    EXPECT_EQ(dw7.out.pitch, 9);
    EXPECT_EQ(dw7.out.ny, 3);
    EXPECT_EQ(plan(interleavedLayout(Shape{1, 19, 19, 64}, 1, 1, 1, 1, 0),
                   10, 3, 2, 1, true)
                  .out.ny,
              2);

    // Copies read single-tile plain, packed and dense sources, but not
    // multi-tile rows or taps two positions out; a stride-1 1x1 conv
    // over dense rows runs dense, and pools run over plain rows.
    EXPECT_EQ(plan(d14, 7, 3, 2, 1, false).form, ConvForm::Staged);
    EXPECT_EQ(plan(haloFreeLayout(s14, 0), 14, 3, 1, 1, false).form,
              ConvForm::Staged);
    EXPECT_EQ(plan(interleavedLayout(Shape{1, 28, 28, 64}, 1, 1, 1, 1, 0),
                   14, 3, 2, 1, false)
                  .form,
              ConvForm::Staged);
    EXPECT_EQ(plan(interleavedLayout(Shape{1, 56, 56, 64}, 1, 1, 1, 1, 0),
                   14, 3, 2, 1, false)
                  .form,
              ConvForm::Rows);
    EXPECT_EQ(plan(d14, 14, 5, 1, 2, false).form, ConvForm::Rows);
    EXPECT_EQ(plan(d14, 5, 3, 3, 1, false).form, ConvForm::Rows);
    EXPECT_EQ(plan(d14, 14, 1, 1, 0, false).form, ConvForm::Dense);
    EXPECT_EQ(plan(d14, 14, 1, 1, 0, false).out.dense, true);
    EXPECT_EQ(plan(interleavedLayout(s14, 1, 1, 1, 1, 0), 7, 3, 2, 1, true,
                   NpuOp::Max)
                  .form,
              ConvForm::Rows);
}

TEST_F(NklPackedTest, OnChipHaloFreeRowsMatchHostPack)
{
    // The relayouts into and out of halo-free rows (plain rows to a
    // staged conv's geometry, and a staged conv's output to the dense
    // rows of its consumers) write exactly what the host packers write,
    // every pad and unused lane included.
    QuantParams qp = chooseAsymmetricUint8(-2.0f, 2.0f);
    Rng rng(12);
    for (int hw : {14, 7}) {
        SCOPED_TRACE(hw);
        Tensor t(Shape{1, hw, hw, 96}, DType::UInt8, qp);
        t.fillRandom(rng);
        const uint8_t zp = uint8_t(qp.zeroPoint);
        TensorLayout plain = interleavedLayout(t.shape(), 1, 1, 1, 1, zp);
        plain.baseRow = 80;
        TensorLayout free = haloFreeLayout(t.shape(), zp);
        free.baseRow = plain.baseRow + plain.rows() + 2;
        TensorLayout dense = denseLayout(t.shape(), zp);
        dense.baseRow = free.baseRow + free.rows() + 2;
        testutil::loadInterleaved(m, t, plain);

        ProgramBuilder pb;
        emitRelayout(pb, plain, free, masks);
        emitRelayout(pb, free, dense, masks);
        ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
                  StopReason::Halted);

        for (const TensorLayout *lay : {&free, &dense}) {
            std::vector<uint8_t> want(size_t(lay->rows()) * 4096);
            packActivation(t, 0, *lay, want.data());
            std::vector<uint8_t> got(4096);
            for (int r = 0; r < lay->rows(); ++r) {
                m.hostReadRow(false, lay->baseRow + r, got.data());
                for (int i = 0; i < 4096; ++i)
                    ASSERT_EQ(got[size_t(i)],
                              want[size_t(r) * 4096 + size_t(i)])
                        << (lay->dense ? "dense" : "halo-free")
                        << " row " << r << " byte " << i;
            }
        }
    }
}

TEST_F(NklPackedTest, ResidualAddOverPackedRows)
{
    // emitAdd is lane-aligned, so it runs over halo-free rows as over
    // any one geometry; only the owned lanes are read back.
    QuantParams a_qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    QuantParams b_qp = chooseAsymmetricUint8(-2.0f, 2.0f);
    QuantParams o_qp = chooseAsymmetricUint8(-3.0f, 3.0f);
    Rng rng(10);
    const Shape shape{1, 14, 14, 128};

    GraphBuilder gb("padd");
    TensorId a = gb.input("a", shape, DType::UInt8, a_qp);
    TensorId b = gb.input("b", shape, DType::UInt8, b_qp);
    TensorId y = gb.add("add", a, b, ActFn::Relu, o_qp);
    gb.output(y);
    Graph g = gb.take();
    Tensor a_val(shape, DType::UInt8, a_qp);
    Tensor b_val(shape, DType::UInt8, b_qp);
    a_val.fillRandom(rng);
    b_val.fillRandom(rng);
    Tensor want = ReferenceExecutor(g).run({a_val, b_val})[0];

    TensorLayout la = haloFreeLayout(shape, uint8_t(a_qp.zeroPoint));
    la.baseRow = 80;
    TensorLayout lb = haloFreeLayout(shape, uint8_t(b_qp.zeroPoint));
    lb.baseRow = la.baseRow + la.rows();
    TensorLayout lo = haloFreeLayout(shape, uint8_t(o_qp.zeroPoint));
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

    Tensor got(shape, DType::UInt8, o_qp);
    testutil::readInterleaved(m, got, lo);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

} // namespace
} // namespace ncore
