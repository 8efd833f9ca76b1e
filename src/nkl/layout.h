/**
 * @file
 * Ncore-internal tensor layouts (paper V-B: "the NKL kernels only provide
 * implementations for a number of internal data layouts that are
 * optimized for Ncore", with NHWC conversion amortized at accelerated-
 * subgraph edges).
 *
 * Interleaved (conv family): a row holds 64 consecutive padded x
 * positions x 64 channels: byte [i*64 + c] = value(y, xTile + i, cb*64+c).
 * Rows are indexed (y_padded, cblock, xtile) row-major. Tiles OWN 56
 * positions and carry an 8-position right halo duplicating the next
 * tile's first positions, so convolution windows up to 9 taps never
 * cross a row. Spatial padding is materialized with zero-point bytes
 * (so u8 MACs of pad positions contribute exactly zero after the
 * zero-offset subtraction).
 *
 * Packed (staged convolutions, w <= 14): an interleaved geometry with
 * several ys per row and no vertical halo; a staged conv copies what
 * its taps read into these rows and writes its output in them.
 *
 * Dense (tensors of w <= 14 read by 1x1 convs, adds and staged convs):
 * an interleaved geometry with the h*w positions flattened row-major,
 * 64 per row, and no pads or halos: byte [i*64 + c] = value(p =
 * block*64 + i, cb*64 + c). A 1x1 conv reads no neighbours, and a
 * staged conv's copies supply its pads; 14x14 fills 196 of 256 lanes.
 *
 * Flat (GNMT's bf16 matmul vectors): 4096 elements per planar row
 * pair, low bytes then high bytes (paper IV-C2). Quantized vectors
 * (FC inputs and outputs) are 1x1 interleaved tensors instead.
 *
 * Weight layouts: FC and matmul weights have their packings documented
 * at the functions below; conv and depthwise weights pack in the order
 * their kernel's Reps read them (packWindowWeights, nkl/kernels.h).
 */

#ifndef NCORE_NKL_LAYOUT_H
#define NCORE_NKL_LAYOUT_H

#include <cstdint>
#include <vector>

#include "common/tensor.h"

namespace ncore {

/** Positions owned per interleaved row (the rest is halo). */
constexpr int kOwnW = 56;
/** Positions stored per interleaved row. */
constexpr int kRowPos = 64;
/** Channels per interleaved row / channel block. */
constexpr int kCBlock = 64;

/** Layout kinds a tensor can live in on Ncore. */
enum class LayoutKind : uint8_t {
    Interleaved, ///< (y, cblock, xtile) rows of 64 pos x 64 ch.
    Flat,        ///< bf16 elements, 4096 per planar row pair.
    GroupedRf,   ///< Stem layout for small-channel inputs: group g
                 ///< holds output position g's receptive-field row,
                 ///< bytes [dx*cin + c] (kw*cin <= 64). Strides fold
                 ///< into the packing, so stem convolutions run
                 ///< single-pass with dense kw*cin-tap loops (the
                 ///< hand-tuned stem kernels of paper V-B).
};

/** Placement + geometry of one tensor in Ncore data RAM. */
struct TensorLayout
{
    LayoutKind kind = LayoutKind::Interleaved;

    // Logical tensor geometry (N assumed 1 on-device).
    int h = 0, w = 0, c = 0;
    // Materialized padding (zero-point bytes / rows).
    int padTop = 0, padBottom = 0, padLeft = 0, padRight = 0;
    // Zero-point byte used for padding and tail lanes.
    uint8_t zeroByte = 0;

    // Assigned by the memory planner.
    int baseRow = 0;

    // GroupedRf parameters (the consuming stem convolution's shape).
    int rfStride = 1;
    int rfKw = 1;
    int rfOutTiles = 1; ///< x-tiles of the consumer's output layout.
    int rfOutPadL = 0;  ///< Left pad of the consumer's output layout
                        ///< (group g holds out coord t*56+g's field).

    // Packed rows (small-width deep layers): when ny > 0 a row holds ny
    // slots of `pitch` positions, one y each and no vertical halo or pad
    // slot, so row (B, cb) slot j holds padded y = B*ny + j. Requires
    // pitch == paddedW() and ny * pitch <= 64. The paper's mapping
    // rounds a spatial dimension up to a power of two and fills the
    // 4096 lanes with W x K; this is the same idea with y folded in
    // when W alone cannot fill a row. Staged convs read and write these
    // rows (see haloFreeLayout).
    int ny = 0;
    int pitch = 0;

    // Dense spatial rows: positions p = y*w + x flattened, 64 per row;
    // row (block, cb) holds p = block*64 .. block*64 + 63. No pads.
    bool dense = false;

    bool packed() const { return ny > 0; }

    /** Row blocks a packed (y-blocks) or dense (64-position blocks)
     *  tensor spans. */
    int
    blocks() const
    {
        if (dense)
            return (h * w + kRowPos - 1) / kRowPos;
        return (paddedH() + ny - 1) / ny;
    }

    /** Row of (block, cblock) for packed and dense tensors. */
    int
    rowOfPacked(int block, int cb) const
    {
        return block * cblocks() + cb;
    }

    /** Block holding padded y. */
    int blockOf(int yp) const { return yp / ny; }
    /** Slot of padded y within its block's row. */
    int slotOf(int yp) const { return yp % ny; }

    int paddedW() const { return padLeft + w + padRight; }
    int paddedH() const { return padTop + h + padBottom; }

    int
    cblocks() const
    {
        if (kind == LayoutKind::GroupedRf)
            return 1;
        return (c + kCBlock - 1) / kCBlock;
    }

    int
    xtiles() const
    {
        if (kind == LayoutKind::GroupedRf)
            return rfOutTiles;
        if (dense)
            return 1;
        return (paddedW() + kOwnW - 1) / kOwnW;
    }

    /** Rows this tensor occupies on-chip. */
    int
    rows() const
    {
        if (kind == LayoutKind::Flat)
            return 2 * ((c + 4095) / 4096);
        if (packed() || dense)
            return blocks() * cblocks();
        return paddedH() * cblocks() * xtiles();
    }

    /** Row index (relative to baseRow) of (padded y, cblock, xtile). */
    int
    rowOf(int yp, int cb, int t) const
    {
        return (yp * cblocks() + cb) * xtiles() + t;
    }

    // The lane map of the 8-bit interleaved family (plain, packed and
    // dense rows). A row group is the set of rows, one per
    // channel block, whose 64 lanes hold the same positions: a block of
    // packed or dense rows, or one (padded y, x-tile) of plain rows.

    /** Row groups the tensor spans. */
    int
    groups() const
    {
        return packed() || dense ? blocks() : paddedH() * xtiles();
    }

    /** Row (relative to baseRow) of channel block `cb` of group `g`. */
    int
    groupRow(int g, int cb) const
    {
        if (packed() || dense)
            return rowOfPacked(g, cb);
        return rowOf(g / xtiles(), cb, g % xtiles());
    }

    /**
     * Call f(lane, y, x) for every lane of group `g` inside the padded
     * extent, in lane order, with the unpadded position the lane stands
     * for: pad lanes report positions outside [0, h) x [0, w), and a
     * plain tile's 8 halo lanes their owner's position. Dense rows have
     * no pads.
     */
    template <typename F>
    void
    forEachLane(int g, F &&f) const
    {
        if (dense) {
            for (int i = 0; i < kRowPos && g * kRowPos + i < h * w; ++i)
                f(i, (g * kRowPos + i) / w, (g * kRowPos + i) % w);
        } else if (packed()) {
            for (int j = 0; j < ny; ++j)
                for (int i = 0; i < pitch; ++i)
                    f(j * pitch + i, g * ny + j - padTop, i - padLeft);
        } else {
            const int t = g % xtiles();
            for (int i = 0; i < kRowPos && t * kOwnW + i < paddedW(); ++i)
                f(i, g / xtiles() - padTop, t * kOwnW + i - padLeft);
        }
    }

    /** The group and lane that own position (y, x) of the padded
     *  extent. */
    struct Place
    {
        int group, lane;
    };
    Place
    placeOf(int y, int x) const
    {
        if (dense)
            return {(y * w + x) / kRowPos, (y * w + x) % kRowPos};
        const int yp = y + padTop, xp = x + padLeft;
        if (packed())
            return {blockOf(yp), slotOf(yp) * pitch + xp};
        return {yp * xtiles() + xp / kOwnW, xp % kOwnW};
    }

    bool operator==(const TensorLayout &) const = default;
};

/** Build the standard interleaved layout for an NHWC activation. */
TensorLayout interleavedLayout(const Shape &shape, int pad_top,
                               int pad_bottom, int pad_left, int pad_right,
                               uint8_t zero_byte);

/** Build a flat layout for a bf16 vector of `elems` elements. */
TensorLayout flatLayout(int64_t elems);

/**
 * Halo-free packed layout: pads 1 left and right only, pitch = w + 2,
 * ny = 64/pitch ys per row (4 for w = 14, 7 for w = 7).
 */
TensorLayout haloFreeLayout(const Shape &shape, uint8_t zero_byte);

/** Build the dense layout of an NHWC activation. */
TensorLayout denseLayout(const Shape &shape, uint8_t zero_byte);

/**
 * True when a tensor of this width packs at least four ys into a
 * halo-free row (w <= 14): the widths that dense rows and staged convs
 * take.
 */
inline bool
yPackable(int64_t w)
{
    return w + 2 <= 16;
}

/**
 * Pack an NHWC 8-bit tensor (batch index `n`) into plain, packed or
 * dense rows, or into GroupedRf rows. Every lane of every
 * copy of a position holds its value, halos included, and every other
 * byte the zero point, so host-packed inputs need no on-chip patch.
 * `dst` must hold lay.rows() * 4096 bytes.
 */
void packActivation(const Tensor &t, int64_t n, const TensorLayout &lay,
                    uint8_t *dst);

/** Inverse of packActivation for plain, packed and dense rows: read
 *  each position from the lane that owns it. */
void unpackActivation(const uint8_t *src, const TensorLayout &lay,
                      Tensor &t, int64_t n);

/**
 * Pack an NHWC uint8 tensor into the GroupedRf stem layout: row
 * (padded input y, out tile t), group g = consumer output position
 * t*56+g, bytes [dx*cin + c] = input[y, (t*56+g)*rfStride + dx -
 * padLeft, c].
 */
void packGroupedRf(const Tensor &t, int64_t n, const TensorLayout &lay,
                   uint8_t *dst);

/** Pack / unpack a bf16 vector to/from planar flat row pairs. */
void packFlat(const Tensor &t, int64_t n, const TensorLayout &lay,
              uint8_t *dst);
void unpackFlat(const uint8_t *src, const TensorLayout &lay, Tensor &t,
                int64_t n);

// ---------------------------------------------------------------------
// Weight RAM images
// ---------------------------------------------------------------------

/**
 * K-split FC: lane q*1024 + o of MAC step k accumulates input channel
 * q*D + k times output o, so one 4096-lane step does four input
 * channels of 1024 outputs; D = fcSplitDepth(cin) steps cover cin.
 * D is a multiple of 64, so each quarter's inputs are whole channel
 * blocks of the 1x1 input.
 */
inline int
fcSplitDepth(int64_t cin)
{
    return int(((cin + 3) / 4 + kCBlock - 1) / kCBlock * kCBlock);
}

/** Outputs per K-split FC chunk (one 4096-lane quarter each). */
constexpr int kFcChunk = 1024;

/**
 * K-split FC weight image for [Cout, Cin] weights: per chunk of 1024
 * outputs, one bias row (int32 bias[chunk*1024 + o] at word o), then
 * fcSplitDepth(cin) tap rows; tap row k holds w[chunk*1024 + o,
 * q*D + k] at byte q*1024 + o. Out-of-range taps hold the weight zero
 * point, so they contribute nothing.
 */
std::vector<uint8_t> packFcWeights(const Tensor &w, const Tensor *bias,
                                   uint8_t zero_byte);

int fcWeightRows(int64_t cin, int64_t cout);

/**
 * bf16 matmul weight image for [K, N] (row-major): per output chunk of
 * 4096 columns, K planar row pairs; pair k holds w[k, chunk*4096 + j]
 * as bf16 lo/hi bytes at position j.
 */
std::vector<uint8_t> packMatmulBf16Weights(const Tensor &w);

int matmulBf16WeightRows(int64_t k, int64_t n);

/** Prefix mask row: bytes [0, 64*groups) = 1, rest 0 (for LoadMask). */
std::vector<uint8_t> prefixMaskRow(int groups);

} // namespace ncore

#endif // NCORE_NKL_LAYOUT_H
