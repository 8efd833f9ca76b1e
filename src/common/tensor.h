/**
 * @file
 * Dense host-side tensors. These are the values flowing through the GIR,
 * the x86 reference executor and the test harnesses. Layout is row-major
 * over the logical dimensions; DL tensors use NHWC order as TFLite does.
 */

#ifndef NCORE_COMMON_TENSOR_H
#define NCORE_COMMON_TENSOR_H

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/bf16.h"
#include "common/dtype.h"
#include "common/logging.h"
#include "common/quant.h"
#include "common/rng.h"

namespace ncore {

/** Tensor shape: up to 6 logical dimensions, row-major. */
class Shape
{
  public:
    Shape() = default;
    Shape(std::initializer_list<int64_t> dims) : dims_(dims) {}
    explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {}

    int rank() const { return static_cast<int>(dims_.size()); }

    int64_t
    dim(int i) const
    {
        panic_if(i < 0 || i >= rank(), "shape dim %d out of range", i);
        return dims_[static_cast<size_t>(i)];
    }

    /** Total element count. */
    int64_t
    numElements() const
    {
        int64_t n = 1;
        for (int64_t d : dims_)
            n *= d;
        return n;
    }

    const std::vector<int64_t> &dims() const { return dims_; }

    bool operator==(const Shape &) const = default;

    /** "1x224x224x3"-style rendering. */
    std::string toString() const;

  private:
    std::vector<int64_t> dims_;
};

/**
 * Allocator of zeroed bytes: storage comes from calloc, and
 * value-initializing an element does nothing, so a new vector of n
 * elements is all zero without a serial memset. calloc gets a large
 * block as fresh pages from the OS, which are already zero, and the
 * first fill that writes them (on every core, for the weight fills)
 * faults them in. A vector that shrank and regrew in place would show
 * stale bytes, so Tensor never resizes its storage.
 */
template <typename T>
struct ZeroedAllocator
{
    using value_type = T;

    ZeroedAllocator() = default;
    template <typename U>
    ZeroedAllocator(const ZeroedAllocator<U> &) noexcept
    {
    }

    T *
    allocate(size_t n)
    {
        void *p = std::calloc(n, sizeof(T));
        if (!p && n)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void deallocate(T *p, size_t) noexcept { std::free(p); }

    /// Value-initialization leaves calloc's zeros in place.
    template <typename U>
    void
    construct(U *)
    {
    }
    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <typename U>
    bool
    operator==(const ZeroedAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A dense tensor value: shape + dtype + quantization + storage. */
class Tensor
{
  public:
    Tensor() = default;
    Tensor(Shape shape, DType dtype, QuantParams qp = {})
        : shape_(std::move(shape)), dtype_(dtype), quant_(qp),
          data_(static_cast<size_t>(shape_.numElements()) * dtypeSize(dtype))
    {}

    // A vector with a custom allocator copies element by element, so
    // copies take the bytes in one memcpy instead.
    Tensor(const Tensor &o)
        : shape_(o.shape_), dtype_(o.dtype_), quant_(o.quant_),
          data_(o.data_.size())
    {
        if (!data_.empty())
            std::memcpy(data_.data(), o.data_.data(), data_.size());
    }
    Tensor(Tensor &&) = default;
    Tensor &
    operator=(const Tensor &o)
    {
        if (this != &o)
            *this = Tensor(o);
        return *this;
    }
    Tensor &operator=(Tensor &&) = default;

    const Shape &shape() const { return shape_; }
    DType dtype() const { return dtype_; }
    const QuantParams &quant() const { return quant_; }
    void setQuant(const QuantParams &qp) { quant_ = qp; }

    int64_t numElements() const { return shape_.numElements(); }
    size_t byteSize() const { return data_.size(); }

    uint8_t *raw() { return data_.data(); }
    const uint8_t *raw() const { return data_.data(); }

    /** Typed element access helpers (no bounds checks in release path). */
    template <typename T>
    T *
    typed()
    {
        panic_if(sizeof(T) != dtypeSize(dtype_),
                 "typed() width mismatch for %s", dtypeName(dtype_));
        return reinterpret_cast<T *>(data_.data());
    }

    template <typename T>
    const T *
    typed() const
    {
        panic_if(sizeof(T) != dtypeSize(dtype_),
                 "typed() width mismatch for %s", dtypeName(dtype_));
        return reinterpret_cast<const T *>(data_.data());
    }

    /** Read element i as a widened integer (int/uint8/16/32 dtypes). */
    int32_t intAt(int64_t i) const;

    /** Write element i from a widened integer, saturating to the dtype. */
    void setIntAt(int64_t i, int32_t v);

    /** Read element i as float (any dtype; integers are dequantized). */
    float realAt(int64_t i) const;

    /** Raw float read for Float32/BFloat16 tensors. */
    float floatAt(int64_t i) const;
    void setFloatAt(int64_t i, float v);

    /** NHWC convenience index. */
    int64_t
    nhwc(int64_t n, int64_t y, int64_t x, int64_t c) const
    {
        return ((n * shape_.dim(1) + y) * shape_.dim(2) + x) *
                   shape_.dim(3) + c;
    }

    /**
     * Elements per piece of a fill. The pieces run on up to
     * hardware_concurrency() threads, each from its own jump-ahead of
     * the stream (Rng::discard), so the bytes and the Rng state after a
     * fill equal one sequential pass's. The size is a constant, so the
     * bytes never depend on the host's thread count.
     */
    static constexpr int64_t kFillChunk = int64_t(1) << 20;

    /** Fill with a deterministic pseudo-random pattern for the dtype. */
    void fillRandom(Rng &rng);

    /** Fill a float tensor with gaussian noise scaled by sigma. */
    void fillGaussian(Rng &rng, float sigma);

    /** Zero all storage. */
    void zero() { std::memset(data_.data(), 0, data_.size()); }

  private:
    Shape shape_;
    DType dtype_ = DType::Float32;
    QuantParams quant_;
    std::vector<uint8_t, ZeroedAllocator<uint8_t>> data_;
};

/** Max absolute elementwise difference between two float tensors. */
float maxAbsDiff(const Tensor &a, const Tensor &b);

} // namespace ncore

#endif // NCORE_COMMON_TENSOR_H
