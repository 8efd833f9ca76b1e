#include "tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/gaussian_fill.h"
#include "common/saturate.h"

namespace ncore {

std::string
Shape::toString() const
{
    std::string s;
    for (size_t i = 0; i < dims_.size(); ++i) {
        if (i)
            s += "x";
        s += std::to_string(dims_[i]);
    }
    return s.empty() ? "scalar" : s;
}

int32_t
Tensor::intAt(int64_t i) const
{
    const uint8_t *p = data_.data() +
        static_cast<size_t>(i) * dtypeSize(dtype_);
    switch (dtype_) {
      case DType::Int8:
        return *reinterpret_cast<const int8_t *>(p);
      case DType::UInt8:
        return *p;
      case DType::Int16: {
        int16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case DType::Int32: {
        int32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      default:
        panic("intAt() on non-integer tensor (%s)", dtypeName(dtype_));
    }
}

void
Tensor::setIntAt(int64_t i, int32_t v)
{
    uint8_t *p = data_.data() + static_cast<size_t>(i) * dtypeSize(dtype_);
    switch (dtype_) {
      case DType::Int8: {
        int8_t n = satNarrow8(v);
        std::memcpy(p, &n, 1);
        break;
      }
      case DType::UInt8: {
        uint8_t n = satNarrowU8(v);
        std::memcpy(p, &n, 1);
        break;
      }
      case DType::Int16: {
        int16_t n = satNarrow16(v);
        std::memcpy(p, &n, 2);
        break;
      }
      case DType::Int32:
        std::memcpy(p, &v, 4);
        break;
      default:
        panic("setIntAt() on non-integer tensor (%s)", dtypeName(dtype_));
    }
}

float
Tensor::realAt(int64_t i) const
{
    switch (dtype_) {
      case DType::Float32:
      case DType::BFloat16:
        return floatAt(i);
      default:
        return quant_.dequantize(intAt(i));
    }
}

float
Tensor::floatAt(int64_t i) const
{
    const uint8_t *p = data_.data() +
        static_cast<size_t>(i) * dtypeSize(dtype_);
    switch (dtype_) {
      case DType::Float32: {
        float v;
        std::memcpy(&v, p, 4);
        return v;
      }
      case DType::BFloat16: {
        uint16_t b;
        std::memcpy(&b, p, 2);
        return BFloat16::fromBits(b).toFloat();
      }
      default:
        panic("floatAt() on integer tensor (%s)", dtypeName(dtype_));
    }
}

void
Tensor::setFloatAt(int64_t i, float v)
{
    uint8_t *p = data_.data() + static_cast<size_t>(i) * dtypeSize(dtype_);
    switch (dtype_) {
      case DType::Float32:
        std::memcpy(p, &v, 4);
        break;
      case DType::BFloat16: {
        uint16_t b = BFloat16::fromFloat(v).bits;
        std::memcpy(p, &b, 2);
        break;
      }
      default:
        panic("setFloatAt() on integer tensor (%s)", dtypeName(dtype_));
    }
}

namespace {

/**
 * Fill every element of `t` with `fill(r, out, count)`, which stores
 * `count` elements from `out` on and takes `draws` outputs of the
 * stream per element. The elements are split into Tensor::kFillChunk
 * pieces filled on up to hardware_concurrency() threads; each piece
 * starts from a copy of `rng` advanced by the draws of the elements
 * before it, so the result is that of one sequential pass whatever the
 * thread count. `rng` ends advanced by all the draws. Fills under two
 * pieces run inline.
 */
template <typename T, typename Fill>
void
fillTyped(Tensor &t, Rng &rng, uint64_t draws, Fill fill)
{
    T *out = t.typed<T>();
    const int64_t n = t.numElements();
    const int64_t chunk = Tensor::kFillChunk;
    const int64_t chunks = (n + chunk - 1) / chunk;
    if (chunks < 2) {
        fill(rng, out, n);
        return;
    }
    std::atomic<int64_t> next{0};
    auto worker = [&] {
        for (int64_t c; (c = next.fetch_add(1)) < chunks;) {
            Rng r = rng;
            r.discard(uint64_t(c * chunk) * draws);
            fill(r, out + c * chunk, std::min(n - c * chunk, chunk));
        }
    };
    const int64_t threads = std::min<int64_t>(
        chunks, std::max(1u, std::thread::hardware_concurrency()));
    {
        std::vector<std::jthread> pool; // Joined at scope exit.
        for (int64_t i = 1; i < threads; ++i)
            pool.emplace_back(worker);
        worker();
    }
    rng.discard(uint64_t(n) * draws);
}

/**
 * Store `sigma`-scaled gaussians into a Float32 or BFloat16 tensor,
 * each piece in the SIMD lanes of the host's tier (gaussian_fill.h).
 * sigma 1 gives fillRandom's unscaled values: x * 1.0f is exactly x.
 */
void
fillFloat(Tensor &t, Rng &rng, float sigma)
{
    const SimdTier tier = resolveSimdTier(SimdTier::Auto);
    auto pieces = [=](Rng &r, auto *out, int64_t count) {
        fillGaussians(tier, r, out, count, sigma);
    };
    if (t.dtype() == DType::Float32)
        fillTyped<float>(t, rng, Rng::kGaussianDraws, pieces);
    else
        fillTyped<uint16_t>(t, rng, Rng::kGaussianDraws, pieces);
}

/** Store rng.nextRange(lo, hi) as a T into every element of `t`. */
template <typename T>
void
fillRange(Tensor &t, Rng &rng, int64_t lo, int64_t hi)
{
    fillTyped<T>(t, rng, 1, [=](Rng &r, T *out, int64_t count) {
        for (int64_t i = 0; i < count; ++i)
            out[i] = static_cast<T>(r.nextRange(lo, hi));
    });
}

} // namespace

void
Tensor::fillRandom(Rng &rng)
{
    switch (dtype_) {
      case DType::Int8:
        fillRange<int8_t>(*this, rng, -127, 127);
        break;
      case DType::UInt8:
        fillRange<uint8_t>(*this, rng, 0, 255);
        break;
      case DType::Int16:
        fillRange<int16_t>(*this, rng, -1024, 1024);
        break;
      case DType::Int32:
        fillRange<int32_t>(*this, rng, -100000, 100000);
        break;
      case DType::Float32:
      case DType::BFloat16:
        fillFloat(*this, rng, 1.0f);
        break;
    }
}

void
Tensor::fillGaussian(Rng &rng, float sigma)
{
    panic_if(dtype_ != DType::Float32 && dtype_ != DType::BFloat16,
             "fillGaussian() needs a float tensor");
    fillFloat(*this, rng, sigma);
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    panic_if(a.numElements() != b.numElements(),
             "maxAbsDiff over mismatched tensors (%lld vs %lld elems)",
             static_cast<long long>(a.numElements()),
             static_cast<long long>(b.numElements()));
    float worst = 0.0f;
    for (int64_t i = 0; i < a.numElements(); ++i)
        worst = std::max(worst, std::fabs(a.realAt(i) - b.realAt(i)));
    return worst;
}

} // namespace ncore
