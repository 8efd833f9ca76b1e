/**
 * @file
 * Dense-row kernel tests: stride-1 1x1 convolutions over dense rows
 * (h*w positions flattened, 64 per row) and the K-split FC, bit-exact
 * against the x86 reference; on-chip relayouts between dense, packed
 * and plain rows, which must reproduce the host packers byte for byte,
 * and the resampled relayouts that fill staged convs' copies.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "gir/graph.h"
#include "nkl_test_util.h"
#include "x86/reference.h"

namespace ncore {
namespace {

/** Host-load any activation layout into data RAM at lay.baseRow. */
void
loadActivation(Machine &m, const Tensor &t, const TensorLayout &lay)
{
    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    packActivation(t, 0, lay, img.data());
    for (int r = 0; r < lay.rows(); ++r)
        m.hostWriteRow(false, lay.baseRow + r, img.data() + size_t(r) * 4096);
}

/** Read an activation layout back out of data RAM. */
Tensor
readActivation(Machine &m, const Shape &shape, const QuantParams &qp,
               const TensorLayout &lay)
{
    Tensor t(shape, DType::UInt8, qp);
    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    for (int r = 0; r < lay.rows(); ++r)
        m.hostReadRow(false, lay.baseRow + r, img.data() + size_t(r) * 4096);
    unpackActivation(img.data(), lay, t, 0);
    return t;
}

struct DenseConvCase
{
    int h, w, cin, cout;
};

std::string
denseConvName(const ::testing::TestParamInfo<DenseConvCase> &info)
{
    const DenseConvCase &c = info.param;
    return "h" + std::to_string(c.h) + "w" + std::to_string(c.w) + "_c" +
           std::to_string(c.cin) + "_k" + std::to_string(c.cout);
}

class NklDenseConv : public ::testing::TestWithParam<DenseConvCase>
{
};

TEST_P(NklDenseConv, MatchesQuantizedReference)
{
    const DenseConvCase cc = GetParam();
    Machine m(chaNcoreConfig(), chaSocConfig());
    Rng rng(uint64_t(cc.h * 31 + cc.w * 7 + cc.cin + cc.cout));
    QuantParams in_qp = chooseAsymmetricUint8(-1.5f, 1.5f);
    QuantParams w_qp{0.02f, 128};
    QuantParams out_qp = chooseAsymmetricUint8(-3.0f, 3.0f);

    GraphBuilder gb("dense");
    TensorId x = gb.input("x", Shape{1, cc.h, cc.w, cc.cin}, DType::UInt8,
                          in_qp);
    Tensor w_val(Shape{cc.cout, 1, 1, cc.cin}, DType::UInt8, w_qp);
    w_val.fillRandom(rng);
    Tensor b_val(Shape{cc.cout}, DType::Int32);
    for (int i = 0; i < cc.cout; ++i)
        b_val.setIntAt(i, int32_t(rng.nextRange(-1500, 1500)));
    gb.output(gb.conv2d("c", x, gb.constant("w", w_val, w_qp),
                        gb.constant("b", b_val), 1, 1, 0, 0, 0, 0,
                        ActFn::Relu6, out_qp));
    Graph g = gb.take();
    Tensor x_val(Shape{1, cc.h, cc.w, cc.cin}, DType::UInt8, in_qp);
    x_val.fillRandom(rng);
    Tensor want = ReferenceExecutor(g).run({x_val})[0];

    ConvKernel kp;
    kp.in = denseLayout(x_val.shape(), uint8_t(in_qp.zeroPoint));
    kp.in.baseRow = 80;
    kp.out = denseLayout(want.shape(), uint8_t(out_qp.zeroPoint));
    kp.out.baseRow = kp.in.baseRow + kp.in.rows() + 3;
    kp.cin = cc.cin;
    kp.cout = cc.cout;
    kp.weightBase = 0;
    kp.rqIndex = 1;
    kp.dataZero = uint8_t(in_qp.zeroPoint);
    kp.weightZero = uint8_t(w_qp.zeroPoint);
    loadActivation(m, x_val, kp.in);
    ASSERT_EQ(planConv(kp).form, ConvForm::Dense);
    testutil::loadWeights(
        m, packWindowWeights(kp, w_val, &b_val, uint8_t(w_qp.zeroPoint)),
        0);
    m.writeRequantEntry(1, makeRequantEntry(in_qp.scale * w_qp.scale /
                                                out_qp.scale,
                                            out_qp, DType::UInt8,
                                            ActFn::Relu6));

    ProgramBuilder pb;
    emitConv(pb, kp);
    // One fused-path Rep per (position block, output channel block).
    int reps = 0;
    for (const Instruction &in : pb.instructions())
        reps += in.ctrl.op == CtrlOp::Rep && in.npu.op == NpuOp::Mac;
    EXPECT_EQ(reps, kp.out.blocks() * ((cc.cout + 63) / 64));
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);

    Tensor got = readActivation(m, want.shape(), out_qp, kp.out);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

// H*W not a multiple of 64, so the last row block is partial; cin of
// one partial, two and eight channel blocks.
INSTANTIATE_TEST_SUITE_P(
    Shapes, NklDenseConv,
    ::testing::Values(DenseConvCase{3, 5, 32, 64},
                      DenseConvCase{7, 7, 96, 160},
                      DenseConvCase{7, 7, 512, 64},
                      DenseConvCase{14, 14, 32, 96},
                      DenseConvCase{14, 14, 512, 512},
                      DenseConvCase{28, 28, 96, 32},
                      DenseConvCase{28, 28, 512, 128}),
    denseConvName);

/** Rows of `dst` after an on-chip relayout, resampled by `rs`, of `t`
 *  host-packed into `src`. */
std::vector<uint8_t>
relayoutOnChip(const Tensor &t, TensorLayout src, TensorLayout dst,
               Resample rs = {})
{
    Machine m(chaNcoreConfig(), chaSocConfig());
    MaskTable masks;
    masks.baseRow = 0;
    testutil::writeMaskTable(m, masks);
    src.baseRow = 80;
    dst.baseRow = src.baseRow + src.rows() + 1;
    loadActivation(m, t, src);

    ProgramBuilder pb;
    emitRelayout(pb, src, dst, masks, rs);
    EXPECT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);
    std::vector<uint8_t> rows(size_t(dst.rows()) * 4096);
    for (int r = 0; r < dst.rows(); ++r)
        m.hostReadRow(false, dst.baseRow + r, rows.data() + size_t(r) * 4096);
    return rows;
}

void
expectRows(const std::vector<uint8_t> &got, const std::vector<uint8_t> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "row " << i / 4096 << " byte "
                                   << i % 4096;
}

/** Relayout src -> dst on chip; dst must equal the host packer's rows
 *  in every byte, pads, halos and dead lanes included. */
void
checkRelayout(const Tensor &t, const TensorLayout &src,
              const TensorLayout &dst)
{
    std::vector<uint8_t> want(size_t(dst.rows()) * 4096);
    packActivation(t, 0, dst, want.data());
    expectRows(relayoutOnChip(t, src, dst), want);
}

enum class Rows { Plain, HaloFree, Dense };

TensorLayout
rowsLayout(Rows kind, const Shape &shape, uint8_t zp)
{
    switch (kind) {
      case Rows::Plain:
        return interleavedLayout(shape, 1, 1, 1, 1, zp);
      case Rows::HaloFree:
        return haloFreeLayout(shape, zp);
      case Rows::Dense:
        break;
    }
    return denseLayout(shape, zp);
}

std::string
rowsName(Rows kind)
{
    const char *names[] = {"plain", "halofree", "dense"};
    return names[int(kind)];
}

class NklRelayoutPairs
    : public ::testing::TestWithParam<std::tuple<Rows, Rows>>
{
};

TEST_P(NklRelayoutPairs, MatchesHostPack)
{
    const auto [from, to] = GetParam();
    QuantParams qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    const uint8_t zp = uint8_t(qp.zeroPoint);
    // Halo-free rows of 4 and 7 ys, a partial dense block, and a width
    // that leaves lanes past the last slot.
    for (Shape shape : {Shape{1, 14, 14, 96}, Shape{1, 7, 7, 160},
                        Shape{1, 6, 13, 64}}) {
        SCOPED_TRACE(shape.toString());
        Rng rng(uint64_t(shape.dim(1) * 100 + shape.dim(2)));
        Tensor t(shape, DType::UInt8, qp);
        t.fillRandom(rng);
        checkRelayout(t, rowsLayout(from, shape, zp),
                      rowsLayout(to, shape, zp));
        if (HasFatalFailure())
            return;
    }
}

const Rows kAllRows[] = {Rows::Plain, Rows::HaloFree, Rows::Dense};

INSTANTIATE_TEST_SUITE_P(
    Pairs, NklRelayoutPairs,
    ::testing::Combine(::testing::ValuesIn(kAllRows),
                       ::testing::ValuesIn(kAllRows)),
    [](const ::testing::TestParamInfo<std::tuple<Rows, Rows>> &info) {
        return rowsName(std::get<0>(info.param)) + "_to_" +
               rowsName(std::get<1>(info.param));
    });

/**
 * Relayout `t` from `src` into `dst` resampled by `rs`: every lane of
 * dst's padded extent takes source (sy*y + oy, sx*x + ox), pad lanes
 * included, and the zero point where that lies outside the source.
 * Returns the destination lanes that took a source column at or past
 * dst.w (the right pad column).
 */
int
expectResampled(const Tensor &t, const TensorLayout &src,
                const TensorLayout &dst, Resample rs)
{
    const Shape &shape = t.shape();
    const int c = int(shape.dim(3));
    std::vector<uint8_t> want(size_t(dst.rows()) * 4096, dst.zeroByte);
    int right_pad = 0;
    for (int g = 0; g < dst.groups(); ++g)
        dst.forEachLane(g, [&](int lane, int y, int x) {
            const int ys = rs.sy * y + rs.oy, xs = rs.sx * x + rs.ox;
            if (ys < 0 || ys >= shape.dim(1) || xs < 0 ||
                xs >= shape.dim(2))
                return;
            right_pad += x >= dst.w;
            for (int ch = 0; ch < c; ++ch)
                want[size_t(dst.groupRow(g, ch / 64)) * 4096 +
                     size_t(lane * 64 + ch % 64)] =
                    uint8_t(t.intAt((ys * shape.dim(2) + xs) * c + ch));
        });
    expectRows(relayoutOnChip(t, src, dst, rs), want);
    return right_pad;
}

TEST(NklDenseRelayout, StrideTwoPhaseCopies)
{
    // A staged standard conv's copies: destination (y, x) takes source
    // (2y + oy, 2x + ox). The 15-wide source with a 7-wide copy (a 3x3
    // stride-2 conv with pad 0) puts source x = 14 in the copy's right
    // pad column.
    QuantParams qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    const uint8_t zp = uint8_t(qp.zeroPoint);
    const Shape s15{1, 15, 15, 96}, s14{1, 14, 14, 96};
    for (const TensorLayout &src :
         {interleavedLayout(s15, 0, 0, 0, 0, zp),
          interleavedLayout(s14, 1, 1, 1, 1, zp), haloFreeLayout(s14, zp)}) {
        Rng rng(uint64_t(src.w + src.ny));
        Tensor t(src.w == 15 ? s15 : s14, DType::UInt8, qp);
        t.fillRandom(rng);
        const TensorLayout dst = haloFreeLayout(Shape{1, 7, 7, 96}, zp);
        for (int oy = -1; oy <= 2; ++oy)
            for (int ox = 0; ox <= 1; ++ox) {
                SCOPED_TRACE(testing::Message()
                             << src.w << (src.packed() ? " halofree"
                                                       : " plain")
                             << " phase " << oy << "," << ox);
                EXPECT_EQ(expectResampled(t, src, dst, {2, oy, 2, ox}) > 0,
                          src.w == 15 && ox == 0);
                if (HasFatalFailure())
                    return;
            }
    }
}

TEST(NklRelayoutResampled, DenseToHaloFree)
{
    // Staged convs copy dense rows too: stride 1 and 2, kernel-row
    // offsets -1, 0 and +1, both column phases, a partial channel block,
    // and the double-width copies of a stride-2 depthwise conv (every
    // input column, two output pitches per slot).
    QuantParams qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    const uint8_t zp = uint8_t(qp.zeroPoint);
    for (Shape shape : {Shape{1, 14, 14, 96}, Shape{1, 7, 7, 160},
                        Shape{1, 10, 10, 64}}) {
        Rng rng(uint64_t(shape.dim(1) * 10 + shape.dim(3)));
        Tensor t(shape, DType::UInt8, qp);
        t.fillRandom(rng);
        const TensorLayout src = denseLayout(shape, zp);
        const int h = int(shape.dim(1)), w = int(shape.dim(2));
        const int c = int(shape.dim(3));
        for (int s : {1, 2}) {
            const int ho = (h + s - 1) / s, wo = (w + s - 1) / s;
            for (int oy = -1; oy <= 1; ++oy) {
                SCOPED_TRACE(testing::Message()
                             << shape.toString() << " stride " << s
                             << " row offset " << oy);
                for (int ox = 0; ox < s; ++ox)
                    expectResampled(t, src,
                                    haloFreeLayout(Shape{1, ho, wo, c}, zp),
                                    {s, oy, s, ox});
                expectResampled(
                    t, src,
                    haloFreeLayout(Shape{1, ho, s * (wo + 2) - 2, c}, zp),
                    {s, oy, 1, 0});
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(NklDenseRelayout, MultiTilePlainRows)
{
    // Plain rows of two and three x-tiles, whose halo lanes copy the
    // next tile's first positions, to and from dense rows.
    QuantParams qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    const uint8_t zp = uint8_t(qp.zeroPoint);
    for (Shape shape : {Shape{1, 3, 60, 96}, Shape{1, 2, 120, 64}}) {
        SCOPED_TRACE(shape.toString());
        Rng rng(uint64_t(shape.dim(2)));
        Tensor t(shape, DType::UInt8, qp);
        t.fillRandom(rng);
        const TensorLayout plain = interleavedLayout(shape, 1, 1, 1, 1, zp);
        ASSERT_GE(plain.xtiles(), 2);
        checkRelayout(t, plain, denseLayout(shape, zp));
        checkRelayout(t, denseLayout(shape, zp), plain);
        if (HasFatalFailure())
            return;
    }
}

TEST(NklDenseRelayout, RoundTripsThroughPackedAndPlainRows)
{
    QuantParams qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    const uint8_t zp = uint8_t(qp.zeroPoint);
    struct Shape4
    {
        int h, w, c;
    };
    for (Shape4 s : {Shape4{14, 14, 96}, Shape4{7, 7, 160},
                     Shape4{3, 5, 64}, Shape4{10, 10, 32}}) {
        SCOPED_TRACE(testing::Message()
                     << s.h << "x" << s.w << "x" << s.c);
        Rng rng(uint64_t(s.h * 100 + s.w + s.c));
        Shape shape{1, s.h, s.w, s.c};
        Tensor t(shape, DType::UInt8, qp);
        t.fillRandom(rng);
        const TensorLayout dense = denseLayout(shape, zp);
        const TensorLayout packed = haloFreeLayout(shape, zp);
        const TensorLayout plain = interleavedLayout(shape, 1, 1, 1, 1, zp);
        const TensorLayout bare = interleavedLayout(shape, 0, 0, 0, 0, zp);
        checkRelayout(t, dense, packed);
        checkRelayout(t, packed, dense);
        checkRelayout(t, dense, plain);
        checkRelayout(t, plain, dense);
        checkRelayout(t, bare, dense);
        checkRelayout(t, dense, bare);
        if (HasFatalFailure())
            return;
    }
}

TEST(NklDenseRelayout, HostPackUnpackRoundTrip)
{
    QuantParams qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    Rng rng(5);
    Tensor t(Shape{1, 13, 11, 72}, DType::UInt8, qp);
    t.fillRandom(rng);
    TensorLayout lay = denseLayout(t.shape(), uint8_t(qp.zeroPoint));
    EXPECT_EQ(lay.blocks(), 3); // 143 positions.
    EXPECT_EQ(lay.rows(), 3 * 2);
    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    packActivation(t, 0, lay, img.data());
    Tensor back(t.shape(), DType::UInt8, qp);
    unpackActivation(img.data(), lay, back, 0);
    for (int64_t i = 0; i < t.numElements(); ++i)
        ASSERT_EQ(back.intAt(i), t.intAt(i)) << i;
    // Position 100 (y 9, x 1), channel 70: row block 1, channel block
    // 1, lane 36, byte 6.
    EXPECT_EQ(img[size_t(lay.rowOfPacked(1, 1)) * 4096 + 36 * 64 + 6],
              uint8_t(t.intAt((9 * 11 + 1) * 72 + 70)));
}

struct FcCase
{
    int cin, cout;
};

std::string
fcName(const ::testing::TestParamInfo<FcCase> &info)
{
    return "c" + std::to_string(info.param.cin) + "_k" +
           std::to_string(info.param.cout);
}

class NklDenseFc : public ::testing::TestWithParam<FcCase>
{
};

TEST_P(NklDenseFc, MatchesQuantizedReference)
{
    const FcCase fc = GetParam();
    Machine m(chaNcoreConfig(), chaSocConfig());
    MaskTable masks;
    masks.baseRow = 0;
    testutil::writeMaskTable(m, masks);
    Rng rng(uint64_t(fc.cin * 3 + fc.cout));
    QuantParams in_qp = chooseAsymmetricUint8(-4.0f, 4.0f);
    QuantParams w_qp{0.01f, 120};
    QuantParams out_qp = chooseAsymmetricUint8(-10.0f, 10.0f);

    GraphBuilder gb("fc");
    TensorId x = gb.input("x", Shape{1, fc.cin}, DType::UInt8, in_qp);
    Tensor w(Shape{fc.cout, fc.cin}, DType::UInt8, w_qp);
    w.fillRandom(rng);
    Tensor b(Shape{fc.cout}, DType::Int32);
    for (int i = 0; i < fc.cout; ++i)
        b.setIntAt(i, int32_t(rng.nextRange(-5000, 5000)));
    gb.output(gb.fullyConnected("fc", x, gb.constant("w", w, w_qp),
                                gb.constant("b", b), ActFn::None, out_qp));
    Graph g = gb.take();
    Tensor xv(Shape{1, fc.cin}, DType::UInt8, in_qp);
    xv.fillRandom(rng);
    Tensor want = ReferenceExecutor(g).run({xv})[0];
    ASSERT_TRUE(fcSplitExact(fc.cin, 5000));

    FcKernel kp;
    kp.in = interleavedLayout(Shape{1, 1, 1, fc.cin}, 0, 0, 0, 0,
                              uint8_t(in_qp.zeroPoint));
    kp.in.baseRow = 80;
    kp.out = interleavedLayout(Shape{1, 1, 1, fc.cout}, 0, 0, 0, 0,
                               uint8_t(out_qp.zeroPoint));
    kp.out.baseRow = kp.in.baseRow + kp.in.rows() + 1;
    kp.scratchBase = kp.out.baseRow + kp.out.rows() + 1;
    kp.cin = fc.cin;
    kp.cout = fc.cout;
    kp.rqIndex = 1;
    kp.dataZero = uint8_t(in_qp.zeroPoint);
    kp.weightZero = uint8_t(w_qp.zeroPoint);
    kp.masks = masks;
    Tensor x4(Shape{1, 1, 1, fc.cin}, DType::UInt8, in_qp);
    std::memcpy(x4.raw(), xv.raw(), size_t(fc.cin));
    loadActivation(m, x4, kp.in);
    const auto img = packFcWeights(w, &b, uint8_t(w_qp.zeroPoint));
    ASSERT_EQ(img.size(), size_t(fcWeightRows(fc.cin, fc.cout)) * 4096);
    testutil::loadWeights(m, img, 0);
    m.writeRequantEntry(1, makeRequantEntry(in_qp.scale * w_qp.scale /
                                                out_qp.scale,
                                            out_qp, DType::UInt8,
                                            ActFn::None));

    ProgramBuilder pb;
    emitFc(pb, kp);
    ASSERT_EQ(testutil::runStreamed(m, pb.instructions()).reason,
              StopReason::Halted);
    // One MAC step per four input channels (rounded up to 256) and
    // 1024 outputs.
    EXPECT_LT(m.perf().cycles, uint64_t(fcSplitDepth(fc.cin) *
                                            ((fc.cout + 1023) / 1024)) +
                                   200);

    Tensor got = readActivation(m, Shape{1, 1, 1, fc.cout}, out_qp, kp.out);
    for (int64_t i = 0; i < want.numElements(); ++i)
        ASSERT_EQ(got.intAt(i), want.intAt(i)) << i;
}

// cin 1000 and 300 are not multiples of 256: quarters end mid-block
// or hold no channels at all; cout 2100 needs three 1024-output chunks.
INSTANTIATE_TEST_SUITE_P(
    Shapes, NklDenseFc,
    ::testing::Values(FcCase{1024, 1001}, FcCase{1024, 1000},
                      FcCase{2048, 1001}, FcCase{2048, 1000},
                      FcCase{1000, 1001}, FcCase{300, 64},
                      FcCase{200, 2100}),
    fcName);

TEST(NklDenseFcSplit, ExactOnlyWhileNoPartialSumSaturates)
{
    EXPECT_TRUE(fcSplitExact(2048, 1 << 20));
    EXPECT_TRUE(fcSplitExact(1, INT32_MAX - 255 * 255));
    EXPECT_FALSE(fcSplitExact(1, INT32_MAX - 255 * 255 + 1));
    EXPECT_FALSE(fcSplitExact(40000, 0));
}

} // namespace
} // namespace ncore
