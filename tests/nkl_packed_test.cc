/**
 * @file
 * Y-packed layout kernel tests: host pack/unpack round-trips, on-chip
 * relayout from plain rows, packed->packed and packed->plain
 * convolutions (standard + depthwise, stride 1 and 2), staged
 * convolutions (stride-2 phase copies writing packed rows, and per-row
 * copies writing halo-free rows), pooling from
 * packed inputs, and residual adds over packed rows — all bit-exact
 * against the x86 reference.
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

    /** Write a layout's content-mask row and return its index. */
    int
    writeContentMask(const TensorLayout &lay, int row)
    {
        auto mask = yPackedContentMask(lay);
        m.hostWriteRow(false, row, mask.data());
        return row;
    }

    void
    loadPacked(const Tensor &t, const TensorLayout &lay)
    {
        std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
        packActivation(t, 0, lay, img.data());
        for (int r = 0; r < lay.rows(); ++r)
            m.hostWriteRow(false, lay.baseRow + r,
                           img.data() + size_t(r) * 4096);
    }

    Tensor
    readPacked(const Shape &shape, const QuantParams &qp,
               const TensorLayout &lay)
    {
        Tensor t(shape, DType::UInt8, qp);
        std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
        for (int r = 0; r < lay.rows(); ++r)
            m.hostReadRow(false, lay.baseRow + r,
                          img.data() + size_t(r) * 4096);
        unpackActivation(img.data(), lay, t, 0);
        return t;
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

    TensorLayout lay = yPackedLayout(t.shape(), uint8_t(qp.zeroPoint));
    EXPECT_EQ(lay.pitch, 16);
    EXPECT_EQ(lay.ny, 2);
    EXPECT_EQ(lay.blocks(), 8);
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
    TensorLayout packed = yPackedLayout(t.shape(),
                                        uint8_t(qp.zeroPoint));
    packed.baseRow = plain.baseRow + plain.rows() + 2;
    testutil::loadInterleaved(m, t, plain);

    ProgramBuilder pb;
    emitRelayout(pb, plain, packed, masks);
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    // The on-chip rows must match the host packer bit-for-bit
    // (including materialized halos, pads and the dead tail).
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

struct PackedConvCase
{
    int h, w, cin, cout;
    int k;
    int stride;
    int pad;
    bool depthwise;
    bool outPacked;
    bool inPacked = true; ///< Else a plain single-tile input.
    /// The output is a relayout temp, as for a tensor only 1x1 convs
    /// read: halo-free rows where the geometry rule picks them.
    bool viaTemp = false;
};

/** Test name, e.g. h14w14_c64_k64_3x3_s2_p1_packed_to_plain. */
std::string
packedConvName(const ::testing::TestParamInfo<PackedConvCase> &info)
{
    const PackedConvCase &c = info.param;
    return "h" + std::to_string(c.h) + "w" + std::to_string(c.w) +
           "_c" + std::to_string(c.cin) + "_k" + std::to_string(c.cout) +
           "_" + std::to_string(c.k) + "x" + std::to_string(c.k) +
           "_s" + std::to_string(c.stride) + "_p" +
           std::to_string(c.pad) + (c.depthwise ? "_dw" : "") +
           (c.inPacked ? "_packed" : "_plain") +
           (c.viaTemp ? "_to_temp"
                      : c.outPacked ? "_to_packed" : "_to_plain");
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

    // Device setup.
    const uint8_t in_zp = uint8_t(in_qp.zeroPoint);
    TensorLayout li =
        cc.inPacked ? yPackedLayout(x_val.shape(), in_zp)
                    : interleavedLayout(x_val.shape(), cc.pad, cc.pad,
                                        cc.pad, cc.pad, in_zp);
    li.baseRow = 80;
    // The geometry rule gcl applies to a conv writing a y-packed temp.
    const bool halo_free =
        cc.viaTemp && !cc.depthwise &&
        stagedCopiesFit(li, cc.stride, cc.k, cc.k, cc.pad, cc.pad) &&
        haloFreePays(want.shape().dim(1), want.shape().dim(2));
    TensorLayout lo;
    if (halo_free) {
        lo = haloFreeLayout(want.shape(), uint8_t(out_qp.zeroPoint));
    } else if (cc.outPacked) {
        lo = yPackedLayout(want.shape(), uint8_t(out_qp.zeroPoint));
    } else {
        lo = interleavedLayout(want.shape(), 0, 0, 0, 0,
                               uint8_t(out_qp.zeroPoint));
    }
    lo.baseRow = li.baseRow + li.rows() + 2;

    // Content mask for y-packed outputs.
    int cm_row = 70;
    if (cc.outPacked && !halo_free) {
        auto mask = yPackedContentMask(lo);
        m.hostWriteRow(false, cm_row, mask.data());
    }

    testutil::loadInterleaved(m, x_val, li);

    ConvKernel kp;
    kp.in = li;
    kp.out = lo;
    kp.kh = kp.kw = cc.k;
    kp.strideH = kp.strideW = cc.stride;
    kp.padTop = kp.padLeft = cc.pad;
    kp.cin = cc.cin;
    kp.cout = int(k_out);
    kp.depthwise = cc.depthwise;
    kp.weightBase = 0;
    kp.rqIndex = 1;
    kp.dataZero = uint8_t(in_qp.zeroPoint);
    kp.weightZero = uint8_t(w_qp.zeroPoint);
    kp.masks = masks;
    kp.contentMaskRow = cm_row;
    kp.patchOutput = !cc.viaTemp;
    const bool staged = usesStagedCopies(kp);
    if (staged) {
        kp.stageBase = lo.baseRow + lo.rows() + 2;
        ASSERT_LE(kp.stageBase + stagedCopyRows(kp), 2048);
    }
    EXPECT_EQ(staged, !cc.depthwise &&
                          (halo_free || (cc.stride == 2 && cc.outPacked)));

    auto w_img = cc.depthwise
                     ? packDepthwiseWeights(w_val, &b_val,
                                            uint8_t(w_qp.zeroPoint))
                     : packConvWeights(w_val, &b_val,
                                       uint8_t(w_qp.zeroPoint),
                                       staged
                                           ? ConvTapOrder::PerTap
                                           : ConvTapOrder::RowMajor);
    testutil::loadWeights(m, w_img, 0);

    float mreal = in_qp.scale * w_qp.scale / out_qp.scale;
    m.writeRequantEntry(1, makeRequantEntry(mreal, out_qp,
                                            DType::UInt8,
                                            ActFn::Relu));

    ProgramBuilder pb;
    emitConv(pb, kp);
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    Tensor got(want.shape(), DType::UInt8, out_qp);
    testutil::readInterleaved(m, got, lo);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

INSTANTIATE_TEST_SUITE_P(
    PackedToPacked, PackedConvTest,
    ::testing::Values(
        PackedConvCase{14, 14, 64, 64, 1, 1, 0, false, true},
        PackedConvCase{14, 14, 128, 64, 3, 1, 1, false, true},
        PackedConvCase{7, 7, 64, 128, 3, 1, 1, false, true},
        PackedConvCase{7, 7, 256, 64, 1, 1, 0, false, true},
        PackedConvCase{14, 14, 96, 96, 3, 1, 1, true, true},
        PackedConvCase{7, 7, 64, 64, 3, 1, 1, true, true},
        PackedConvCase{9, 12, 64, 64, 3, 1, 1, false, true}),
    packedConvName);

INSTANTIATE_TEST_SUITE_P(
    PackedToPlain, PackedConvTest,
    ::testing::Values(
        PackedConvCase{14, 14, 64, 64, 3, 2, 1, false, false},
        PackedConvCase{14, 14, 64, 64, 1, 2, 0, false, false},
        PackedConvCase{14, 14, 64, 64, 3, 2, 1, true, false},
        PackedConvCase{7, 7, 128, 64, 3, 1, 1, false, false},
        PackedConvCase{13, 13, 64, 64, 3, 2, 1, false, false}),
    packedConvName);

// Stride-2 standard convs writing packed rows read phase copies: plain
// single-tile inputs (ResNet stage 4's 28-wide input) and packed ones
// (stage 5's 14-wide input, SSD's extra layers), odd widths and
// heights, cin of one to three channel blocks.
INSTANTIATE_TEST_SUITE_P(
    PhaseSplit, PackedConvTest,
    ::testing::Values(
        PackedConvCase{28, 28, 64, 64, 3, 2, 1, false, true, false},
        PackedConvCase{28, 28, 128, 64, 1, 2, 0, false, true, false},
        PackedConvCase{28, 28, 192, 128, 3, 2, 1, false, true, false},
        PackedConvCase{27, 27, 64, 64, 3, 2, 1, false, true, false},
        PackedConvCase{27, 25, 64, 64, 1, 2, 0, false, true, false},
        PackedConvCase{14, 14, 64, 64, 3, 2, 1, false, true},
        PackedConvCase{14, 14, 128, 128, 1, 2, 0, false, true},
        PackedConvCase{14, 14, 192, 64, 3, 2, 1, false, true},
        PackedConvCase{13, 13, 64, 64, 3, 2, 1, false, true},
        PackedConvCase{10, 10, 64, 64, 3, 2, 1, false, true},
        PackedConvCase{5, 5, 64, 64, 3, 2, 1, false, true},
        PackedConvCase{3, 3, 64, 32, 3, 2, 1, false, true},
        PackedConvCase{14, 14, 48, 64, 2, 2, 0, false, true},
        PackedConvCase{14, 14, 64, 64, 3, 2, 0, false, true}),
    packedConvName);

// Standard convs writing a relayout temp (outputs only 1x1 convs read)
// write halo-free rows wherever those take fewer blocks than y-packed
// ones: stride 1 over y-packed inputs, stride 2 over plain single-tile
// (ResNet's 28-wide stage-4 inputs) and y-packed ones, cin of one to
// three channel blocks and a partial one, pads 0 and 1. A 5x5 output
// takes one block either way, so the rule declines and the y-packed
// phase copies run.
INSTANTIATE_TEST_SUITE_P(
    StagedHaloFree, PackedConvTest,
    ::testing::Values(
        PackedConvCase{14, 14, 64, 64, 3, 1, 1, false, true, true, true},
        PackedConvCase{13, 13, 96, 64, 3, 1, 1, false, true, true, true},
        PackedConvCase{10, 10, 192, 64, 3, 1, 1, false, true, true, true},
        PackedConvCase{7, 7, 64, 128, 3, 1, 1, false, true, true, true},
        PackedConvCase{6, 6, 96, 96, 3, 1, 1, false, true, true, true},
        PackedConvCase{14, 14, 192, 64, 1, 1, 0, false, true, true, true},
        PackedConvCase{28, 28, 64, 64, 3, 2, 1, false, true, false, true},
        PackedConvCase{28, 28, 96, 128, 1, 2, 0, false, true, false, true},
        PackedConvCase{15, 15, 64, 64, 3, 2, 0, false, true, false, true},
        PackedConvCase{14, 14, 192, 64, 3, 2, 1, false, true, true, true},
        PackedConvCase{14, 14, 64, 64, 1, 2, 0, false, true, true, true},
        PackedConvCase{14, 14, 64, 64, 3, 2, 0, false, true, true, true},
        PackedConvCase{13, 13, 96, 64, 3, 2, 1, false, true, true, true},
        PackedConvCase{13, 13, 64, 192, 1, 2, 0, false, true, true, true},
        PackedConvCase{10, 10, 64, 64, 3, 2, 1, false, true, true, true}),
    packedConvName);

TEST(StagedRule, HaloFreeRowsWhereTheyTakeFewerBlocks)
{
    // Halo-free rows hold 64/(w+2) owned ys: 4 for w = 14, 7 for w = 7.
    const TensorLayout l14 = haloFreeLayout(Shape{1, 14, 14, 256}, 0);
    EXPECT_EQ(l14.pitch, 16);
    EXPECT_EQ(l14.ny, 4);
    EXPECT_EQ(l14.slots(), 4);
    EXPECT_EQ(l14.blocks(), 4);
    EXPECT_EQ(l14.rows(), 16);
    const TensorLayout l7 = haloFreeLayout(Shape{1, 7, 7, 512}, 0);
    EXPECT_EQ(l7.ny, 7);
    EXPECT_EQ(l7.blocks(), 1);

    // y-packed rows take 8, 8, 4, 2 and 2 blocks here.
    for (int hw : {14, 13, 10, 7, 6})
        EXPECT_TRUE(haloFreePays(hw, hw)) << hw;
    // One block either way, and widths y-packing does not take.
    for (int hw : {5, 3, 2, 1, 15, 28})
        EXPECT_FALSE(haloFreePays(hw, hw)) << hw;
}

TEST_F(NklPackedTest, OnChipHaloFreeRowsMatchHostPack)
{
    // The relayouts into and out of halo-free rows (y-packed input to a
    // staged conv's geometry, and a staged conv's temp to the dense
    // rows of its 1x1 consumers) write exactly what the host packers
    // write, every pad and unused lane included.
    QuantParams qp = chooseAsymmetricUint8(-2.0f, 2.0f);
    Rng rng(12);
    for (int hw : {14, 7}) {
        SCOPED_TRACE(hw);
        Tensor t(Shape{1, hw, hw, 96}, DType::UInt8, qp);
        t.fillRandom(rng);
        const uint8_t zp = uint8_t(qp.zeroPoint);
        TensorLayout packed = yPackedLayout(t.shape(), zp);
        packed.baseRow = 80;
        TensorLayout free = haloFreeLayout(t.shape(), zp);
        free.baseRow = packed.baseRow + packed.rows() + 2;
        TensorLayout dense = denseLayout(t.shape(), zp);
        dense.baseRow = free.baseRow + free.rows() + 2;
        loadPacked(t, packed);

        ProgramBuilder pb;
        emitRelayout(pb, packed, free, masks);
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

TEST_F(NklPackedTest, GlobalAvgPoolFromPackedInput)
{
    QuantParams qp = chooseAsymmetricUint8(-2.0f, 2.0f);
    Rng rng(9);
    GraphBuilder gb("gap");
    TensorId x = gb.input("x", Shape{1, 7, 7, 256}, DType::UInt8, qp);
    TensorId y = gb.avgPool2d("gap", x, 7, 7, 1, 1, 0, 0, 0, 0);
    gb.output(y);
    Graph g = gb.take();
    Tensor x_val(Shape{1, 7, 7, 256}, DType::UInt8, qp);
    x_val.fillRandom(rng);
    Tensor want = ReferenceExecutor(g).run({x_val})[0];

    TensorLayout li = yPackedLayout(x_val.shape(),
                                    uint8_t(qp.zeroPoint));
    li.baseRow = 80;
    TensorLayout lo = interleavedLayout(want.shape(), 0, 0, 0, 0,
                                        uint8_t(qp.zeroPoint));
    lo.baseRow = li.baseRow + li.rows() + 2;
    loadPacked(x_val, li);

    RequantEntry e;
    e.rq = computeRequant(1.0f / 49.0f, qp.zeroPoint);
    e.outType = DType::UInt8;
    e.actMin = 0;
    e.actMax = 255;
    m.writeRequantEntry(2, e);

    PoolKernel p;
    p.in = li;
    p.out = lo;
    p.kh = p.kw = 7;
    p.c = 256;
    p.isMax = false;
    p.rqIndex = 2;
    p.dataZero = uint8_t(qp.zeroPoint);
    p.masks = masks;

    ProgramBuilder pb;
    emitPool(pb, p);
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    Tensor got(want.shape(), DType::UInt8, qp);
    testutil::readInterleaved(m, got, lo);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

TEST_F(NklPackedTest, ResidualAddOverPackedRows)
{
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

    TensorLayout la = yPackedLayout(shape, uint8_t(a_qp.zeroPoint));
    la.baseRow = 80;
    TensorLayout lb = yPackedLayout(shape, uint8_t(b_qp.zeroPoint));
    lb.baseRow = la.baseRow + la.rows();
    TensorLayout lo = yPackedLayout(shape, uint8_t(o_qp.zeroPoint));
    lo.baseRow = lb.baseRow + lb.rows();
    loadPacked(a_val, la);
    loadPacked(b_val, lb);

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

    Tensor got = readPacked(shape, o_qp, lo);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

} // namespace
} // namespace ncore
