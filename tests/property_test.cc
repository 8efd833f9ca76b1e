/**
 * @file
 * Property-based tests over randomized inputs (parameterized sweeps):
 * NDU dataflow algebra (rotation composition/inversion, gather
 * consistency), requantization monotonicity and bounds, add-plan
 * accuracy across random quantization ranges, layout pack/unpack
 * round-trips for every layout kind, and random-program robustness of
 * the machine (decode-execute without tripping internal invariants).
 */

#include <gtest/gtest.h>

#include "common/lut.h"
#include "common/machine.h"
#include "ncore/machine.h"
#include "nkl/layout.h"

namespace ncore {
namespace {

std::vector<EncodedInstruction>
enc(const std::vector<Instruction> &prog)
{
    std::vector<EncodedInstruction> out;
    for (const Instruction &in : prog)
        out.push_back(encodeInstruction(in));
    return out;
}

class NduAlgebraTest : public ::testing::TestWithParam<int>
{
  protected:
    NduAlgebraTest() : m(chaNcoreConfig(), chaSocConfig()) {}

    std::vector<uint8_t>
    rotate(const std::vector<uint8_t> &src, int amount)
    {
        m.hostWriteRow(false, 0, src.data());
        Instruction setr;
        setr.ctrl.op = CtrlOp::SetAddrRow;
        setr.ctrl.reg = 0;
        Instruction setb;
        setb.ctrl.op = CtrlOp::SetAddrByte;
        setb.ctrl.reg = 1;
        setb.ctrl.imm = uint32_t(((amount % 4096) + 4096) % 4096);
        Instruction rot;
        rot.dataRead.enable = true;
        rot.ndu0.op = NduOp::Rotate;
        rot.ndu0.srcA = RowSrc::DataRead;
        rot.ndu0.dst = 0;
        rot.ndu0.addrReg = 1;
        Instruction setw;
        setw.ctrl.op = CtrlOp::SetAddrRow;
        setw.ctrl.reg = 2;
        setw.ctrl.imm = 1;
        Instruction st;
        st.write.enable = true;
        st.write.addrReg = 2;
        st.write.src = RowSrc::N0;
        Instruction halt;
        halt.ctrl.op = CtrlOp::Halt;
        m.writeIram(0, enc({setr, setb, rot, setw, st, halt}));
        m.start(0);
        EXPECT_EQ(m.run().reason, StopReason::Halted);
        std::vector<uint8_t> out(4096);
        m.hostReadRow(false, 1, out.data());
        return out;
    }

    Machine m;
};

TEST_P(NduAlgebraTest, RotateInverseComposesToIdentity)
{
    int amount = GetParam();
    Rng rng(uint64_t(amount) + 17);
    std::vector<uint8_t> src(4096);
    for (auto &b : src)
        b = uint8_t(rng.next64());
    auto once = rotate(src, amount);
    auto back = rotate(once, -amount);
    EXPECT_EQ(back, src);
}

TEST_P(NduAlgebraTest, RotateMatchesReferenceShift)
{
    int amount = GetParam();
    Rng rng(uint64_t(amount) * 31 + 5);
    std::vector<uint8_t> src(4096);
    for (auto &b : src)
        b = uint8_t(rng.next64());
    auto got = rotate(src, amount);
    int norm = ((amount % 4096) + 4096) % 4096;
    for (int i = 0; i < 4096; ++i)
        ASSERT_EQ(got[size_t(i)], src[size_t((i + norm) % 4096)]);
}

INSTANTIATE_TEST_SUITE_P(Amounts, NduAlgebraTest,
                         ::testing::Values(1, 7, 63, 64, -1, -64, 0));

class RequantPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RequantPropertyTest, MonotoneAndBounded)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    float mult = 0.001f + rng.nextFloat() * 3.0f;
    int32_t zp = int32_t(rng.nextRange(0, 255));
    Requant rq = computeRequant(mult, zp);

    int32_t prev = rq.apply(-100000);
    for (int32_t acc = -100000; acc <= 100000; acc += 997) {
        int32_t v = rq.apply(acc);
        EXPECT_GE(v, prev) << "acc " << acc; // Monotone.
        EXPECT_NEAR(double(v), double(acc) * mult + zp, 2.0);
        prev = v;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RequantPropertyTest,
                         ::testing::Range(1, 17));

class AddPlanPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(AddPlanPropertyTest, QuantizedAddTracksRealSum)
{
    Rng rng(uint64_t(GetParam()) * 1313);
    QuantParams a = chooseAsymmetricUint8(
        -rng.nextFloat() * 4 - 0.1f, rng.nextFloat() * 4 + 0.1f);
    QuantParams b = chooseAsymmetricUint8(
        -rng.nextFloat() * 4 - 0.1f, rng.nextFloat() * 4 + 0.1f);
    QuantParams o = chooseAsymmetricUint8(-8.0f, 8.0f);
    AddQuantPlan plan = makeAddPlan(a, b, o, DType::UInt8,
                                    ActFn::None);

    for (int i = 0; i < 200; ++i) {
        int32_t ca = int32_t(rng.nextRange(0, 255));
        int32_t cb = int32_t(rng.nextRange(0, 255));
        int32_t acc = (ca - a.zeroPoint) * plan.ka +
                      (cb - b.zeroPoint) * plan.kb;
        int32_t v = std::clamp(plan.entry.rq.apply(acc),
                               plan.entry.actMin, plan.entry.actMax);
        float real = a.dequantize(ca) + b.dequantize(cb);
        float got = o.dequantize(v);
        if (real > o.dequantize(255) || real < o.dequantize(0))
            continue; // Saturated by design.
        // Error bound: the 7-bit coefficient rounding plus half an
        // output step.
        EXPECT_NEAR(got, real, o.scale + 0.02f * std::fabs(real))
            << ca << "+" << cb;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddPlanPropertyTest,
                         ::testing::Range(1, 13));

class LayoutRoundTripTest : public ::testing::TestWithParam<int>
{
};

/**
 * Pack `t` into `lay` with packActivation and check the image against
 * the lane map: every lane forEachLane reports for a position inside
 * the tensor, halo lanes included, holds that position's value, and
 * every other byte holds the zero point. placeOf must name one of the
 * lanes that report a position, and unpackActivation must give `t`
 * back.
 */
void
checkPackUnpack(const Tensor &t, const TensorLayout &lay)
{
    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    packActivation(t, 0, lay, img.data());

    std::vector<uint8_t> want(img.size(), lay.zeroByte);
    std::vector<int> owners(size_t(lay.h) * size_t(lay.w), 0);
    for (int g = 0; g < lay.groups(); ++g)
        lay.forEachLane(g, [&](int lane, int y, int x) {
            if (y < 0 || y >= lay.h || x < 0 || x >= lay.w)
                return;
            const TensorLayout::Place at = lay.placeOf(y, x);
            owners[size_t(y) * size_t(lay.w) + size_t(x)] +=
                at.group == g && at.lane == lane;
            for (int c = 0; c < lay.c; ++c)
                want[size_t(lay.groupRow(g, c / kCBlock)) * 4096 +
                     size_t(lane * kCBlock + c % kCBlock)] =
                    uint8_t(t.intAt((int64_t(y) * lay.w + x) * lay.c + c));
        });
    for (size_t i = 0; i < owners.size(); ++i)
        ASSERT_EQ(owners[i], 1) << "position " << i;
    for (size_t i = 0; i < img.size(); ++i)
        ASSERT_EQ(img[i], want[i]) << "row " << i / 4096 << " byte "
                                   << i % 4096;

    Tensor back(t.shape(), DType::UInt8, t.quant());
    unpackActivation(img.data(), lay, back, 0);
    for (int64_t i = 0; i < t.numElements(); ++i)
        ASSERT_EQ(back.intAt(i), t.intAt(i)) << i;
}

TEST_P(LayoutRoundTripTest, InterleavedPackUnpack)
{
    Rng rng(uint64_t(GetParam()) * 99 + 1);
    int h = 1 + int(rng.nextBelow(30));
    int w = 1 + int(rng.nextBelow(120));
    int c = 1 + int(rng.nextBelow(140));
    int pad = int(rng.nextBelow(3));
    Tensor t(Shape{1, h, w, c}, DType::UInt8,
             chooseAsymmetricUint8(-1, 1));
    t.fillRandom(rng);
    checkPackUnpack(t, interleavedLayout(t.shape(), pad, pad, pad, pad,
                                         uint8_t(128)));

    // At least two x-tiles, with uneven pads: halo lanes duplicate the
    // next tile's first positions.
    Tensor wide(Shape{1, h, 55 + int(rng.nextBelow(100)), c},
                DType::UInt8, t.quant());
    wide.fillRandom(rng);
    const TensorLayout lay =
        interleavedLayout(wide.shape(), pad, 1, 2 - pad, pad, uint8_t(3));
    ASSERT_GE(lay.xtiles(), 2);
    checkPackUnpack(wide, lay);
}

// Packed rows fold several ys into a row; the only packed layout is the
// halo-free one.
TEST_P(LayoutRoundTripTest, YPackedPackUnpack)
{
    Rng rng(uint64_t(GetParam()) * 77 + 3);
    int w = 2 + int(rng.nextBelow(13)); // Packable widths.
    if (!yPackable(w))
        w = 14;
    int h = 1 + int(rng.nextBelow(20));
    int c = 1 + int(rng.nextBelow(300));
    Tensor t(Shape{1, h, w, c}, DType::UInt8,
             chooseAsymmetricUint8(-1, 1));
    t.fillRandom(rng);
    checkPackUnpack(t, haloFreeLayout(t.shape(), 91));
}

TEST_P(LayoutRoundTripTest, DensePackUnpack)
{
    Rng rng(uint64_t(GetParam()) * 31 + 7);
    int h = 1 + int(rng.nextBelow(20));
    int w = 1 + int(rng.nextBelow(40));
    int c = 1 + int(rng.nextBelow(200));
    Tensor t(Shape{1, h, w, c}, DType::UInt8,
             chooseAsymmetricUint8(-1, 1));
    t.fillRandom(rng);
    checkPackUnpack(t, denseLayout(t.shape(), 5));
}

TEST_P(LayoutRoundTripTest, FlatPackUnpack)
{
    Rng rng(uint64_t(GetParam()) * 55 + 9);
    int n = 1 + int(rng.nextBelow(9000));
    Tensor t(Shape{1, n}, DType::BFloat16);
    t.fillRandom(rng);
    TensorLayout lay = flatLayout(n);
    std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
    packFlat(t, 0, lay, img.data());
    Tensor back(t.shape(), t.dtype());
    unpackFlat(img.data(), lay, back, 0);
    for (size_t i = 0; i < t.byteSize(); ++i)
        ASSERT_EQ(back.raw()[i], t.raw()[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutRoundTripTest,
                         ::testing::Range(1, 13));

TEST(LutProperty, MonotoneFunctionsYieldMonotoneTables)
{
    QuantParams in_qp = chooseAsymmetricUint8(-6, 6);
    QuantParams out_qp{1.0f / 256.0f, 0};
    auto lut = buildActLut(ActFn::Sigmoid, in_qp, out_qp,
                           DType::UInt8);
    for (int i = 1; i < 256; ++i)
        EXPECT_GE(lut[size_t(i)], lut[size_t(i - 1)]);
    auto tanh_lut =
        buildActLut(ActFn::Tanh, in_qp, chooseAsymmetricUint8(-1, 1),
                    DType::UInt8);
    for (int i = 1; i < 256; ++i)
        EXPECT_GE(tanh_lut[size_t(i)], tanh_lut[size_t(i - 1)]);
}

} // namespace
} // namespace ncore
