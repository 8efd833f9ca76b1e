/**
 * @file
 * Unit and property tests for the common substrate: bfloat16 conversion,
 * quantization and requantization semantics, saturating arithmetic,
 * deterministic RNG, tensors and sample statistics.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bf16.h"
#include "common/gaussian_fill.h"
#include "common/quant.h"
#include "common/rng.h"
#include "common/saturate.h"
#include "common/simd_tier.h"
#include "common/stats.h"
#include "common/tensor.h"

namespace ncore {
namespace {

TEST(BFloat16, RoundTripExactValues)
{
    // Values with <= 8 mantissa bits survive the round trip exactly.
    for (float f : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.25f, 65280.0f}) {
        EXPECT_EQ(BFloat16::fromFloat(f).toFloat(), f) << f;
    }
}

TEST(BFloat16, RoundToNearestEven)
{
    // Low 16 bits = 0x8000 is exactly halfway between bf16(1.0) and the
    // next representable value; ties round to even (stay at 1.0).
    float halfway = std::bit_cast<float>(0x3f808000u);
    EXPECT_EQ(BFloat16::fromFloat(halfway).toFloat(), 1.0f);
    // Just above the halfway point rounds up.
    float above = std::bit_cast<float>(0x3f808001u);
    EXPECT_GT(BFloat16::fromFloat(above).toFloat(), 1.0f);
    // Halfway with an odd truncated mantissa rounds up to even.
    float odd_half = std::bit_cast<float>(0x3f818000u);
    EXPECT_EQ(BFloat16::fromFloat(odd_half).bits, 0x3f82);
}

TEST(BFloat16, RelativeErrorBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        float f = (rng.nextFloat() - 0.5f) * 100.0f;
        if (f == 0.0f)
            continue;
        float g = BFloat16::fromFloat(f).toFloat();
        EXPECT_LE(std::fabs(g - f) / std::fabs(f), 1.0f / 128.0f);
    }
}

TEST(BFloat16, NanStaysNan)
{
    float nan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_TRUE(std::isnan(BFloat16::fromFloat(nan).toFloat()));
}

TEST(Saturate, Bounds)
{
    EXPECT_EQ(satAdd32(std::numeric_limits<int32_t>::max(), 1),
              std::numeric_limits<int32_t>::max());
    EXPECT_EQ(satAdd32(std::numeric_limits<int32_t>::min(), -1),
              std::numeric_limits<int32_t>::min());
    EXPECT_EQ(satAdd32(5, 7), 12);
    EXPECT_EQ(satNarrow8(1000), 127);
    EXPECT_EQ(satNarrow8(-1000), -128);
    EXPECT_EQ(satNarrowU8(-3), 0);
    EXPECT_EQ(satNarrowU8(300), 255);
    EXPECT_EQ(satNarrow16(40000), 32767);
}

TEST(Quant, QuantizeDequantizeRoundTrip)
{
    QuantParams qp = chooseAsymmetricUint8(-2.0f, 6.0f);
    // Zero must be exactly representable.
    EXPECT_EQ(qp.dequantize(qp.zeroPoint), 0.0f);
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        float real = rng.nextFloat() * 8.0f - 2.0f;
        int32_t q = qp.quantize(real, DType::UInt8);
        float back = qp.dequantize(q);
        EXPECT_NEAR(back, real, qp.scale * 0.51f);
    }
}

TEST(Quant, SymmetricInt8)
{
    QuantParams qp = chooseSymmetricInt8(3.5f);
    EXPECT_EQ(qp.zeroPoint, 0);
    EXPECT_EQ(qp.quantize(3.5f, DType::Int8), 127);
    EXPECT_EQ(qp.quantize(-3.5f, DType::Int8), -127);
}

TEST(Requant, MatchesRealMultiplication)
{
    Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        float m = 0.0001f + rng.nextFloat() * 0.9f;
        int32_t zp = int32_t(rng.nextRange(0, 255));
        Requant rq = computeRequant(m, zp);
        for (int i = 0; i < 50; ++i) {
            int32_t acc = int32_t(rng.nextRange(-2000000, 2000000));
            int32_t got = rq.apply(acc);
            double want = double(acc) * double(m) + zp;
            EXPECT_NEAR(double(got), want, 1.5)
                << "m=" << m << " acc=" << acc;
        }
    }
}

TEST(Requant, LeftShiftForMultipliersAboveOne)
{
    Requant rq = computeRequant(4.0f, 0);
    EXPECT_EQ(rq.apply(100), 400);
    EXPECT_EQ(rq.apply(-7), -28);
}

TEST(Requant, RoundsToNearest)
{
    Requant rq = computeRequant(0.5f, 0);
    EXPECT_EQ(rq.apply(5), 3);  // 2.5 rounds away from .5 upward
    EXPECT_EQ(rq.apply(4), 2);
    EXPECT_EQ(rq.apply(3), 2);  // 1.5 -> 2
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, RangeBounds)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.nextRange(-5, 9);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(99);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, DiscardMatchesStepping)
{
    const uint64_t ns[] = {0, 1, 63, 64, 65, 12 * (uint64_t(1) << 20) + 7,
                           100000007};
    for (uint64_t n : ns) {
        Rng jumped(7), stepped(7);
        jumped.discard(n);
        for (uint64_t i = 0; i < n; ++i)
            stepped.next64();
        for (int i = 0; i < 16; ++i)
            ASSERT_EQ(jumped.next64(), stepped.next64()) << "n=" << n;
    }
}

/** The fills as one sequential pass over the stream. */
void
sequentialFill(Tensor &t, Rng &rng, float sigma)
{
    for (int64_t i = 0; i < t.numElements(); ++i) {
        switch (t.dtype()) {
          case DType::Int8:
            t.setIntAt(i, int32_t(rng.nextRange(-127, 127)));
            break;
          case DType::UInt8:
            t.setIntAt(i, int32_t(rng.nextRange(0, 255)));
            break;
          case DType::Int16:
            t.setIntAt(i, int32_t(rng.nextRange(-1024, 1024)));
            break;
          case DType::Int32:
            t.setIntAt(i, int32_t(rng.nextRange(-100000, 100000)));
            break;
          case DType::Float32:
          case DType::BFloat16:
            t.setFloatAt(i, rng.nextGaussian() * sigma);
            break;
        }
    }
}

TEST(Tensor, ChunkedFillMatchesSequential)
{
    const int64_t c = Tensor::kFillChunk;
    const int64_t sizes[] = {0, 1, c - 1, c, c + 1, 2 * c, 3 * c + 5};
    const DType dtypes[] = {DType::Int8,     DType::UInt8, DType::Int16,
                            DType::BFloat16, DType::Int32, DType::Float32};
    uint64_t seed = 1;
    for (DType dt : dtypes) {
        const bool is_float = dt == DType::Float32 || dt == DType::BFloat16;
        for (int64_t n : sizes) {
            // sigma 1 is fillRandom (every dtype); the floats also get
            // a fillGaussian.
            for (float sigma : is_float ? std::vector<float>{1.0f, 0.03f}
                                        : std::vector<float>{1.0f}) {
                Tensor got(Shape{n}, dt), want(Shape{n}, dt);
                Rng a(seed), b(seed);
                ++seed;
                if (sigma == 1.0f)
                    got.fillRandom(a);
                else
                    got.fillGaussian(a, sigma);
                sequentialFill(want, b, sigma);
                ASSERT_TRUE(std::equal(got.raw(), got.raw() + got.byteSize(),
                                       want.raw()))
                    << dtypeName(dt) << " n=" << n << " sigma=" << sigma;
                ASSERT_EQ(a.next64(), b.next64())
                    << dtypeName(dt) << " n=" << n << " sigma=" << sigma;
            }
        }
    }
}

TEST(Tensor, LaneFillMatchesScalarAtEveryTier)
{
    // fillGaussians(tier, ...) is what each fill piece runs. At every
    // tier the host supports it must store the bytes of the scalar
    // loop and leave the Rng where that loop does, whatever n % lanes.
    const int64_t c = Tensor::kFillChunk;
    const int64_t sizes[] = {0, 1, 7, 9, 4095, c - 1, c + 1, 3 * c + 5};
    // 1e-40f makes every product a binary32 subnormal, which bf16
    // rounds to a subnormal or to ±0.
    const float sigmas[] = {1.0f, 0.03f, 1e-40f};
    // Bit patterns, so a -0 for +0 counts as a difference.
    auto sameBits = [](float x, float y) {
        return std::bit_cast<uint32_t>(x) == std::bit_cast<uint32_t>(y);
    };
    uint64_t seed = 1;
    for (int64_t n : sizes) {
        for (float sigma : sigmas) {
            Rng start(seed++);
            start.discard(7); // Start off any lane or draw boundary.
            Rng ref = start;
            std::vector<float> want_f32(size_t(n), 0.0f);
            std::vector<uint16_t> want_bf16(size_t(n), 0);
            for (int64_t i = 0; i < n; ++i) {
                want_f32[size_t(i)] = ref.nextGaussian() * sigma;
                want_bf16[size_t(i)] =
                    BFloat16::fromFloat(want_f32[size_t(i)]).bits;
            }
            for (int t = int(SimdTier::Scalar); t <= int(bestSimdTier());
                 ++t) {
                const SimdTier tier = SimdTier(t);
                std::vector<float> got_f32(size_t(n), 0.0f);
                std::vector<uint16_t> got_bf16(size_t(n), 0);
                Rng a = start, b = start;
                fillGaussians(tier, a, got_f32.data(), n, sigma);
                fillGaussians(tier, b, got_bf16.data(), n, sigma);
                const std::string where = std::string(simdTierName(tier)) +
                                          " n=" + std::to_string(n) +
                                          " sigma=" + std::to_string(sigma);
                ASSERT_TRUE(std::equal(got_f32.begin(), got_f32.end(),
                                       want_f32.begin(), sameBits))
                    << "f32 " << where;
                ASSERT_EQ(got_bf16, want_bf16) << "bf16 " << where;
                EXPECT_EQ(a.state(), ref.state()) << "f32 " << where;
                EXPECT_EQ(b.state(), ref.state()) << "bf16 " << where;
            }
            if (sigma == 1e-40f && n > 0) {
                EXPECT_LT(std::fabs(want_f32[0]),
                          std::numeric_limits<float>::min());
            }
        }
    }
}

TEST(Tensor, GnmtEmbeddingFillGolden)
{
    // GNMT's embedding (the first tensor its constructor fills), whose
    // bytes no ModelDeviceTotals digest covers. Pinned from the
    // sequential fill that predates chunking.
    Tensor t(Shape{22016, 1024}, DType::BFloat16);
    Rng rng(4);
    t.fillGaussian(rng, 0.08f);
    uint64_t h = 0xcbf29ce484222325ull; // 64-bit FNV-1a.
    for (size_t i = 0; i < t.byteSize(); ++i) {
        h ^= t.raw()[i];
        h *= 0x100000001b3ull;
    }
    EXPECT_EQ(h, 0x265af4794d9e34acull);
    EXPECT_EQ(rng.next64(), 0x6aaf9955b9726d1bull);
}

TEST(Tensor, NhwcIndexing)
{
    Tensor t(Shape{1, 4, 5, 3}, DType::UInt8);
    EXPECT_EQ(t.numElements(), 60);
    t.setIntAt(t.nhwc(0, 2, 3, 1), 77);
    EXPECT_EQ(t.intAt(((2 * 5) + 3) * 3 + 1), 77);
}

TEST(Tensor, IntSaturationOnStore)
{
    Tensor t(Shape{4}, DType::Int8);
    t.setIntAt(0, 200);
    t.setIntAt(1, -200);
    EXPECT_EQ(t.intAt(0), 127);
    EXPECT_EQ(t.intAt(1), -128);
}

TEST(Tensor, RealAtDequantizes)
{
    QuantParams qp{0.5f, 10};
    Tensor t(Shape{2}, DType::UInt8, qp);
    t.setIntAt(0, 14);
    EXPECT_FLOAT_EQ(t.realAt(0), 2.0f);
}

TEST(Tensor, Bf16Storage)
{
    Tensor t(Shape{3}, DType::BFloat16);
    t.setFloatAt(0, 1.5f);
    t.setFloatAt(1, -0.25f);
    EXPECT_EQ(t.floatAt(0), 1.5f);
    EXPECT_EQ(t.floatAt(1), -0.25f);
}

TEST(Stats, Percentiles)
{
    SampleStats s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.percentile(0.90), 90.1, 0.2);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Shape, ToString)
{
    EXPECT_EQ(Shape({1, 224, 224, 3}).toString(), "1x224x224x3");
}

} // namespace
} // namespace ncore
