/**
 * @file
 * NKL convolution kernels vs the x86 reference executor: standard and
 * depthwise convolutions across strides, paddings, kernel sizes,
 * channel counts and output paddings must match the quantized
 * reference bit-for-bit. Each case runs in the form planConv picks
 * (staged into halo-free rows when the output is at most 14 wide and
 * the copies serve its taps, plain rows otherwise) over the weight
 * image packWindowWeights packs for it.
 */

#include <string>

#include <gtest/gtest.h>

#include "gir/graph.h"
#include "nkl_test_util.h"
#include "x86/reference.h"

namespace ncore {
namespace {

struct ConvCase
{
    int h, w, cin, cout;
    int kh, kw;
    int stride;
    int pad; // Same pad on all sides.
    bool depthwise;
    ActFn act;
    /// Materialized x/y pad of the output layout: its gathers shift by
    /// -stride * outPad, which later x-tiles repair from their left
    /// neighbor's halo.
    int outPad = 0;
};

/** Test name, e.g. h8w8_c64_k64_3x3_s2_p1 (_dw, _op1 for outPad). */
std::string
convCaseName(const ::testing::TestParamInfo<ConvCase> &info)
{
    const ConvCase &c = info.param;
    std::string name = "h" + std::to_string(c.h) + "w" +
                       std::to_string(c.w) + "_c" +
                       std::to_string(c.cin) + "_k" +
                       std::to_string(c.cout) + "_" +
                       std::to_string(c.kh) + "x" +
                       std::to_string(c.kw) + "_s" +
                       std::to_string(c.stride) + "_p" +
                       std::to_string(c.pad);
    if (c.depthwise)
        name += "_dw";
    if (c.outPad > 0)
        name += "_op" + std::to_string(c.outPad);
    return name;
}

class NklConvTest : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(NklConvTest, MatchesQuantizedReference)
{
    const ConvCase cc = GetParam();
    Rng rng(uint64_t(cc.h * 131 + cc.w * 17 + cc.cin + cc.cout * 3 +
                     cc.kh + cc.stride * 7 + (cc.depthwise ? 1000 : 0)));

    // Quantization setup.
    QuantParams in_qp = chooseAsymmetricUint8(-1.2f, 1.8f);
    QuantParams w_qp;
    w_qp.scale = 0.02f;
    w_qp.zeroPoint = 128;
    QuantParams out_qp = chooseAsymmetricUint8(-2.0f, 2.5f);

    // Build the GIR node + reference execution.
    GraphBuilder gb("conv_case");
    TensorId x = gb.input("x", Shape{1, cc.h, cc.w, cc.cin},
                          DType::UInt8, in_qp);

    int64_t k_out = cc.depthwise ? cc.cin : cc.cout;
    Shape w_shape = cc.depthwise
                        ? Shape{1, cc.kh, cc.kw, cc.cin}
                        : Shape{int64_t(cc.cout), cc.kh, cc.kw, cc.cin};
    Tensor w_val(w_shape, DType::UInt8, w_qp);
    w_val.fillRandom(rng);
    TensorId w = gb.constant("w", w_val, w_qp);

    Tensor b_val(Shape{k_out}, DType::Int32);
    for (int64_t i = 0; i < k_out; ++i)
        b_val.setIntAt(i, int32_t(rng.nextRange(-2000, 2000)));
    TensorId b = gb.constant("b", b_val);

    TensorId y;
    if (cc.depthwise) {
        y = gb.depthwiseConv2d("dw", x, w, b, cc.stride, cc.stride,
                               cc.pad, cc.pad, cc.pad, cc.pad, cc.act,
                               out_qp);
    } else {
        y = gb.conv2d("conv", x, w, b, cc.stride, cc.stride, cc.pad,
                      cc.pad, cc.pad, cc.pad, cc.act, out_qp);
    }
    gb.output(y);
    Graph g = gb.take();
    g.verify();

    Tensor x_val(Shape{1, cc.h, cc.w, cc.cin}, DType::UInt8, in_qp);
    x_val.fillRandom(rng);

    ReferenceExecutor ref(g);
    std::vector<Tensor> ref_out = ref.run({x_val});

    // --- Ncore execution --------------------------------------------
    Machine m(chaNcoreConfig(), chaSocConfig());

    MaskTable masks;
    masks.baseRow = 0;
    testutil::writeMaskTable(m, masks);

    const GirTensor &out_desc = g.tensor(y);
    TensorLayout li = interleavedLayout(x_val.shape(), cc.pad, cc.pad,
                                        cc.pad, cc.pad,
                                        uint8_t(in_qp.zeroPoint));
    li.baseRow = MaskTable::kRows; // Past the mask table.
    testutil::loadInterleaved(m, x_val, li);

    ConvKernel kp;
    kp.in = li;
    kp.out = interleavedLayout(out_desc.shape, cc.outPad, cc.outPad,
                               cc.outPad, cc.outPad,
                               uint8_t(out_qp.zeroPoint));
    kp.out.baseRow = li.baseRow + li.rows() + 8;
    kp.kh = cc.kh;
    kp.kw = cc.kw;
    kp.strideH = cc.stride;
    kp.strideW = cc.stride;
    kp.padTop = cc.pad;
    kp.padLeft = cc.pad;
    kp.cin = cc.cin;
    kp.cout = int(k_out);
    kp.depthwise = cc.depthwise;
    kp.weightBase = 0;
    kp.rqIndex = 1;
    kp.dataZero = uint8_t(in_qp.zeroPoint);
    kp.weightZero = uint8_t(w_qp.zeroPoint);
    kp.masks = masks;
    // The form NKL picks: outputs at most 14 wide whose taps fit the
    // staged copies run staged into halo-free rows, the rest over
    // plain rows (with the output pads asked for).
    const ConvPlan plan = planConv(kp);
    const TensorLayout lo = kp.out = plan.out;
    kp.stageBase = lo.baseRow + lo.rows() + 8;
    ASSERT_LE(kp.stageBase + plan.stagingRows, 2048);
    testutil::loadWeights(
        m, packWindowWeights(kp, w_val, &b_val, uint8_t(w_qp.zeroPoint)),
        0);

    float mreal = in_qp.scale * w_qp.scale / out_qp.scale;
    m.writeRequantEntry(
        1, makeRequantEntry(mreal, out_qp, DType::UInt8, cc.act));

    ProgramBuilder pb;
    emitConv(pb, kp);
    RunResult res = testutil::runStreamed(m, pb.instructions());
    ASSERT_EQ(res.reason, StopReason::Halted);

    Tensor got(out_desc.shape, DType::UInt8, out_qp);
    testutil::readInterleaved(m, got, lo);

    const Tensor &want = ref_out[0];
    int mismatches = 0;
    for (int64_t i = 0; i < want.numElements() && mismatches < 10; ++i) {
        if (got.intAt(i) != want.intAt(i)) {
            ADD_FAILURE() << "elem " << i << ": got " << got.intAt(i)
                          << " want " << want.intAt(i);
            ++mismatches;
        }
    }
    ASSERT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(
    StandardConv, NklConvTest,
    ::testing::Values(
        ConvCase{8, 8, 64, 64, 1, 1, 1, 0, false, ActFn::None},
        ConvCase{8, 8, 64, 64, 3, 3, 1, 1, false, ActFn::Relu},
        ConvCase{6, 6, 128, 64, 3, 3, 1, 1, false, ActFn::None},
        ConvCase{8, 8, 64, 128, 1, 1, 1, 0, false, ActFn::Relu6},
        ConvCase{8, 8, 3, 64, 3, 3, 1, 1, false, ActFn::None},
        ConvCase{14, 14, 64, 64, 3, 3, 1, 1, false, ActFn::Relu},
        ConvCase{9, 7, 64, 64, 3, 3, 1, 1, false, ActFn::None},
        ConvCase{8, 60, 64, 64, 3, 3, 1, 1, false, ActFn::None},
        ConvCase{6, 120, 64, 64, 3, 3, 1, 1, false, ActFn::Relu},
        ConvCase{8, 8, 64, 64, 5, 5, 1, 2, false, ActFn::None},
        ConvCase{10, 10, 32, 48, 3, 3, 1, 1, false, ActFn::None}),
    convCaseName);

INSTANTIATE_TEST_SUITE_P(
    StridedConv, NklConvTest,
    ::testing::Values(
        ConvCase{8, 8, 64, 64, 3, 3, 2, 1, false, ActFn::Relu},
        ConvCase{8, 8, 64, 64, 1, 1, 2, 0, false, ActFn::None},
        ConvCase{14, 14, 64, 64, 3, 3, 2, 1, false, ActFn::None},
        ConvCase{12, 60, 64, 64, 3, 3, 2, 1, false, ActFn::None},
        ConvCase{16, 16, 3, 32, 3, 3, 2, 1, false, ActFn::Relu6},
        ConvCase{12, 12, 64, 64, 7, 7, 2, 3, false, ActFn::Relu},
        // Single-tile inputs run one unpredicated pass.
        ConvCase{28, 28, 64, 64, 3, 3, 2, 1, false, ActFn::Relu},
        ConvCase{27, 27, 128, 64, 1, 1, 2, 0, false, ActFn::None},
        ConvCase{28, 28, 192, 64, 3, 3, 2, 1, false, ActFn::None},
        ConvCase{56, 53, 64, 64, 3, 3, 2, 1, false, ActFn::None}),
    convCaseName);

INSTANTIATE_TEST_SUITE_P(
    DepthwiseConv, NklConvTest,
    ::testing::Values(
        ConvCase{8, 8, 64, 64, 3, 3, 1, 1, true, ActFn::Relu6},
        ConvCase{8, 8, 128, 128, 3, 3, 1, 1, true, ActFn::None},
        ConvCase{8, 60, 64, 64, 3, 3, 1, 1, true, ActFn::None},
        ConvCase{8, 8, 64, 64, 3, 3, 2, 1, true, ActFn::Relu6},
        ConvCase{14, 14, 96, 96, 3, 3, 2, 1, true, ActFn::None},
        ConvCase{7, 7, 32, 32, 3, 3, 1, 1, true, ActFn::Relu},
        ConvCase{28, 28, 64, 64, 3, 3, 2, 1, true, ActFn::Relu6},
        ConvCase{27, 27, 64, 64, 3, 3, 2, 1, true, ActFn::None}),
    convCaseName);

// Padded multi-tile outputs: negative gather shifts, whose first lanes
// of every later x-tile come from the previous tile's halo.
INSTANTIATE_TEST_SUITE_P(
    PaddedOutput, NklConvTest,
    ::testing::Values(
        ConvCase{4, 120, 64, 64, 1, 1, 1, 0, false, ActFn::None, 1},
        ConvCase{4, 150, 32, 64, 1, 1, 1, 0, false, ActFn::Relu6, 1},
        ConvCase{4, 120, 64, 64, 3, 3, 1, 1, false, ActFn::None, 1},
        ConvCase{4, 120, 64, 64, 3, 3, 1, 1, true, ActFn::Relu, 1},
        ConvCase{6, 150, 64, 64, 3, 3, 2, 1, true, ActFn::Relu6, 1},
        ConvCase{6, 240, 64, 64, 3, 3, 2, 1, false, ActFn::None, 1},
        ConvCase{8, 8, 64, 64, 3, 3, 2, 1, false, ActFn::None, 1}),
    convCaseName);

} // namespace
} // namespace ncore
