#include "layout.h"

#include <cstring>

namespace ncore {

namespace {
constexpr int kRowBytes = 4096;
}

TensorLayout
interleavedLayout(const Shape &shape, int pad_top, int pad_bottom,
                  int pad_left, int pad_right, uint8_t zero_byte)
{
    fatal_if(shape.rank() != 4, "interleaved layout needs NHWC");
    TensorLayout lay;
    lay.kind = LayoutKind::Interleaved;
    lay.h = int(shape.dim(1));
    lay.w = int(shape.dim(2));
    lay.c = int(shape.dim(3));
    lay.padTop = pad_top;
    lay.padBottom = pad_bottom;
    lay.padLeft = pad_left;
    lay.padRight = pad_right;
    lay.zeroByte = zero_byte;
    return lay;
}

TensorLayout
flatLayout(int64_t elems)
{
    TensorLayout lay;
    lay.kind = LayoutKind::Flat;
    lay.h = 1;
    lay.w = 1;
    lay.c = int(elems);
    return lay;
}

TensorLayout
haloFreeLayout(const Shape &shape, uint8_t zero_byte)
{
    TensorLayout lay = interleavedLayout(shape, 0, 0, 1, 1, zero_byte);
    lay.pitch = int(shape.dim(2)) + 2;
    lay.ny = 64 / lay.pitch;
    fatal_if(lay.ny < 1, "width %lld too wide for halo-free rows",
             (long long)shape.dim(2));
    return lay;
}

TensorLayout
denseLayout(const Shape &shape, uint8_t zero_byte)
{
    TensorLayout lay = interleavedLayout(shape, 0, 0, 0, 0, zero_byte);
    lay.dense = true;
    return lay;
}

void
packActivation(const Tensor &t, int64_t n, const TensorLayout &lay,
               uint8_t *dst)
{
    if (lay.kind == LayoutKind::GroupedRf) {
        packGroupedRf(t, n, lay, dst);
        return;
    }
    panic_if(lay.kind != LayoutKind::Interleaved ||
                 (t.dtype() != DType::UInt8 && t.dtype() != DType::Int8),
             "packActivation packs 8-bit interleaved-family layouts");
    const int ncb = lay.cblocks();
    const uint8_t *src = t.raw() + n * lay.h * lay.w * lay.c;

    std::memset(dst, lay.zeroByte, size_t(lay.rows()) * kRowBytes);
    for (int g = 0; g < lay.groups(); ++g)
        lay.forEachLane(g, [&](int lane, int y, int x) {
            if (y < 0 || y >= lay.h || x < 0 || x >= lay.w)
                return; // Pads keep the zero point.
            for (int cb = 0; cb < ncb; ++cb)
                std::memcpy(dst + size_t(lay.groupRow(g, cb)) * kRowBytes +
                                lane * kCBlock,
                            src + (int64_t(y) * lay.w + x) * lay.c +
                                cb * kCBlock,
                            size_t(std::min(kCBlock, lay.c - cb * kCBlock)));
        });
}

void
unpackActivation(const uint8_t *src, const TensorLayout &lay, Tensor &t,
                 int64_t n)
{
    panic_if(lay.kind != LayoutKind::Interleaved,
             "unpackActivation reads interleaved-family layouts");
    const int ncb = lay.cblocks();
    uint8_t *dst = t.raw() + n * lay.h * lay.w * lay.c;

    for (int y = 0; y < lay.h; ++y)
        for (int x = 0; x < lay.w; ++x) {
            const TensorLayout::Place at = lay.placeOf(y, x);
            for (int cb = 0; cb < ncb; ++cb)
                std::memcpy(dst + (int64_t(y) * lay.w + x) * lay.c +
                                cb * kCBlock,
                            src +
                                size_t(lay.groupRow(at.group, cb)) *
                                    kRowBytes +
                                at.lane * kCBlock,
                            size_t(std::min(kCBlock, lay.c - cb * kCBlock)));
        }
}

void
packGroupedRf(const Tensor &t, int64_t n, const TensorLayout &lay,
              uint8_t *dst)
{
    panic_if(t.dtype() != DType::UInt8, "packGroupedRf needs uint8");
    panic_if(lay.rfKw * lay.c > 64, "receptive-field row exceeds 64B");
    const int nt = lay.xtiles();
    const uint8_t *src = t.raw();
    const int64_t hw_c = int64_t(lay.w) * lay.c;

    std::memset(dst, lay.zeroByte, size_t(lay.rows()) * kRowBytes);

    for (int y = 0; y < lay.h; ++y) { // Pad rows stay zero-point.
        int yp = y + lay.padTop;
        for (int tile = 0; tile < nt; ++tile) {
            uint8_t *row =
                dst + size_t(lay.rowOf(yp, 0, tile)) * kRowBytes;
            for (int g = 0; g < kRowPos; ++g) {
                int out_x = tile * kOwnW + g - lay.rfOutPadL;
                for (int dx = 0; dx < lay.rfKw; ++dx) {
                    int x = out_x * lay.rfStride + dx - lay.padLeft;
                    if (x < 0 || x >= lay.w)
                        continue;
                    const uint8_t *px = src + (n * lay.h + y) * hw_c +
                                        int64_t(x) * lay.c;
                    std::memcpy(row + g * 64 + dx * lay.c, px,
                                size_t(lay.c));
                }
            }
        }
    }
}

void
packFlat(const Tensor &t, int64_t n, const TensorLayout &lay, uint8_t *dst)
{
    panic_if(t.dtype() != DType::BFloat16, "packFlat needs bf16");
    int64_t elems = lay.c;
    std::memset(dst, lay.zeroByte, size_t(lay.rows()) * kRowBytes);
    const uint8_t *src = t.raw() + n * elems * 2;
    for (int64_t i = 0; i < elems; ++i) {
        int64_t pair = i / kRowBytes;
        int64_t off = i % kRowBytes;
        dst[(2 * pair) * kRowBytes + off] = src[2 * i];
        dst[(2 * pair + 1) * kRowBytes + off] = src[2 * i + 1];
    }
}

void
unpackFlat(const uint8_t *src, const TensorLayout &lay, Tensor &t,
           int64_t n)
{
    panic_if(t.dtype() != DType::BFloat16, "unpackFlat needs bf16");
    int64_t elems = lay.c;
    uint8_t *dst = t.raw() + n * elems * 2;
    for (int64_t i = 0; i < elems; ++i) {
        int64_t pair = i / kRowBytes;
        int64_t off = i % kRowBytes;
        dst[2 * i] = src[(2 * pair) * kRowBytes + off];
        dst[2 * i + 1] = src[(2 * pair + 1) * kRowBytes + off];
    }
}

// ---------------------------------------------------------------------
// Weight images
// ---------------------------------------------------------------------

int
fcWeightRows(int64_t cin, int64_t cout)
{
    const int64_t chunks = (cout + kFcChunk - 1) / kFcChunk;
    return int(chunks * (1 + fcSplitDepth(cin)));
}

std::vector<uint8_t>
packFcWeights(const Tensor &w, const Tensor *bias, uint8_t zero_byte)
{
    const int64_t cout = w.shape().dim(0), cin = w.shape().dim(1);
    const int64_t depth = fcSplitDepth(cin);
    const int64_t chunks = (cout + kFcChunk - 1) / kFcChunk;
    std::vector<uint8_t> img(size_t(fcWeightRows(cin, cout)) * kRowBytes,
                             zero_byte);
    const uint8_t *pw = w.raw();

    for (int64_t ch = 0; ch < chunks; ++ch) {
        uint8_t *brow = img.data() + size_t(ch * (1 + depth)) * kRowBytes;
        std::memset(brow, 0, kRowBytes);
        for (int64_t o = 0; o < kFcChunk && ch * kFcChunk + o < cout;
             ++o) {
            int32_t b = bias ? bias->intAt(ch * kFcChunk + o) : 0;
            std::memcpy(brow + o * 4, &b, 4);
        }
        for (int64_t k = 0; k < depth; ++k) {
            uint8_t *row = brow + size_t(1 + k) * kRowBytes;
            for (int64_t q = 0; q < 4; ++q) {
                const int64_t c = q * depth + k;
                if (c >= cin)
                    continue;
                for (int64_t o = 0;
                     o < kFcChunk && ch * kFcChunk + o < cout; ++o)
                    row[q * kFcChunk + o] =
                        pw[(ch * kFcChunk + o) * cin + c];
            }
        }
    }
    return img;
}

int
matmulBf16WeightRows(int64_t k, int64_t n)
{
    int64_t chunks = (n + kRowBytes - 1) / kRowBytes;
    return int(chunks * 2 * k);
}

namespace {

/** Split `cols` bf16 values at `src` into their lo and hi byte planes. */
inline void
splitBf16(uint8_t *__restrict lo, uint8_t *__restrict hi,
          const uint8_t *__restrict src, int64_t cols)
{
    for (int64_t j = 0; j < cols; ++j) {
        lo[j] = src[2 * j];
        hi[j] = src[2 * j + 1];
    }
}

} // namespace

std::vector<uint8_t>
packMatmulBf16Weights(const Tensor &w)
{
    const Shape &ws = w.shape(); // [K, N] bf16
    const int64_t k = ws.dim(0), n = ws.dim(1);
    const int64_t chunks = (n + kRowBytes - 1) / kRowBytes;

    std::vector<uint8_t> img(size_t(matmulBf16WeightRows(k, n)) *
                                 kRowBytes,
                             0);
    const uint8_t *pw = w.raw();

    for (int64_t ch = 0; ch < chunks; ++ch) {
        const int64_t cols = std::min<int64_t>(kRowBytes, n - ch * kRowBytes);
        for (int64_t kk = 0; kk < k; ++kk) {
            uint8_t *lo =
                img.data() + size_t((ch * k + kk) * 2) * kRowBytes;
            const uint8_t *src = pw + (kk * n + ch * kRowBytes) * 2;
            // Full chunks pass the constant kRowBytes: the compiler
            // vectorizes that trip count at -O2, not a variable one.
            if (cols == kRowBytes)
                splitBf16(lo, lo + kRowBytes, src, kRowBytes);
            else
                splitBf16(lo, lo + kRowBytes, src, cols);
        }
    }
    return img;
}

std::vector<uint8_t>
prefixMaskRow(int groups)
{
    std::vector<uint8_t> row(kRowBytes, 0);
    int bytes = std::min(groups * 64, kRowBytes);
    std::memset(row.data(), 1, size_t(std::max(bytes, 0)));
    return row;
}

} // namespace ncore
