/**
 * @file
 * NKL kernel emitters. Each emit* function appends the complete Ncore
 * program for one layer to a ProgramBuilder, given the tensor layouts
 * (data RAM placement) and the weight-image base row (weight RAM).
 *
 * Kernel strategy (see DESIGN.md section 2): activations live in the
 * interleaved layout (plain, packed or dense rows); a convolution's
 * entire accumulation over (ky, cblock, kx, c) runs as ONE Rep
 * instruction per output row-tile, using circular-buffer address
 * registers — the paper's "entire loop can be encoded in a single
 * Ncore instruction" (Fig. 6). Ncore has no pooling unit: a pool is a
 * depthwise window whose NPU op is Max or Add instead of a MAC, run
 * over plain rows. planConv is the one place a window's form is
 * decided (stem, staged, dense or plain rows), and with it the rows it
 * writes, its scratch and its weight image (packWindowWeights):
 * emitConv runs the form planConv picks, and gcl plans layouts, data
 * RAM and weights from the same answer; windowSupported says whether a
 * window runs on Ncore at all. Stride-2 plain-row windows
 * gather every second x position; over a multi-tile input they run two
 * predicated passes (even/odd input tiles), over a single-tile input
 * one. A staged conv first copies its input into the geometry its taps
 * read (a standard conv one copy per kernel row and column phase, a
 * depthwise conv one per kernel row) and then runs unpredicated Reps
 * over the copies, writing halo-free packed rows. A stride-1 1x1 conv
 * over dense rows reads and writes dense rows.
 * After each layer writing plain rows an edge-patch pass rewrites the
 * halo lanes and re-stamps padding lanes with the zero point.
 *
 * Address register convention inside kernels:
 *   a0/a1: edge patch scratch;  a2: output row writes;  a3: weights B;
 *   a4: data A gather;  a5: weights A;  a6: bias reads / data B;
 *   a7: mask loads.
 */

#ifndef NCORE_NKL_KERNELS_H
#define NCORE_NKL_KERNELS_H

#include "nkl/layout.h"
#include "nkl/program.h"

namespace ncore {

/** Data-RAM rows holding shared constant prefix masks. The GCL reserves
 *  these; prefixMaskRow(g) content goes to row maskBase + g - 1 and the
 *  empty (all-zero) mask to row maskBase + 64. */
struct MaskTable
{
    int baseRow = 0;

    /** Row holding the mask with `groups` leading groups set (0..64);
     *  0 selects nothing. */
    int
    rowFor(int groups) const
    {
        return groups == 0 ? baseRow + 64 : baseRow + groups - 1;
    }

    static constexpr int kRows = 65;
};

/** Common per-layer parameters. */
struct ConvKernel
{
    TensorLayout in;   ///< Interleaved input (baseRow set).
    TensorLayout out;  ///< Interleaved output (baseRow set).
    int kh = 1, kw = 1;
    int strideH = 1, strideW = 1;
    int padTop = 0, padLeft = 0; ///< Convolution semantics padding.
    int cin = 0, cout = 0;
    bool depthwise = false;
    /// NPU op of the window: Mac for a conv, Max or Add for a max or
    /// average pool (depthwise, cin == cout, no weight image).
    NpuOp op = NpuOp::Mac;
    int weightBase = 0;  ///< Weight RAM row of the packed weight image.
    int rqIndex = 0;     ///< Requant table entry.
    uint8_t dataZero = 0, weightZero = 0;
    MaskTable masks;
    /// Scratch rows (ConvPlan::stagingRows) for the copies of a staged
    /// conv, back to back from here, or for the min-code copy of a
    /// padded max pool's input.
    int stageBase = -1;
    /// Re-stamp pads and halos of `out` after the layer. A relayout
    /// temp skips it: the relayout reads owned lanes only.
    bool patchOutput = true;
};

/** How emitConv runs a window (see planConv). */
enum class ConvForm : uint8_t {
    Rows,   ///< Plain rows in and out; every pool.
    Stem,   ///< GroupedRf input: one dense Rep of kh*kw*cin taps.
    Staged, ///< Copies of its input at stageBase; halo-free rows out.
    Dense,  ///< Stride-1 1x1 conv over dense rows; dense rows out.
};

/** What planConv decides for a window. */
struct ConvPlan
{
    ConvForm form = ConvForm::Rows;
    /// The rows the window writes, at p.out's base row: halo-free rows
    /// for a staged conv, dense rows for a dense one, else p.out when
    /// it is plain and plain rows without pads when it is not.
    TensorLayout out;
    /// Scratch rows emitConv uses from stageBase: the staged copies, or
    /// the min-code copy of a padded max pool's input.
    int stagingRows = 0;
};

/**
 * The one place a window's form is decided, from its input layout, its
 * window and the shape and zero point of p.out:
 *  - Stem: a conv over GroupedRf rows whose receptive-field row fits a
 *    lane group (kw * cin <= 64);
 *  - Dense: a stride-1 1x1 conv without padding over dense rows;
 *  - Staged: a conv (standard or depthwise) of equal strides whose
 *    output is at most 14 wide (yPackable) and whose taps the staged
 *    copies can serve: a single-tile plain, packed or dense source,
 *    every tap at most one (phase) position or row from its output
 *    lane, and at most one column of left padding;
 *  - Rows: everything else, every pool included.
 */
ConvPlan planConv(const ConvKernel &p);

/**
 * True when emitConv runs window `p` in some form, judged from the
 * window alone (op, kernel, strides), before any layout is chosen: an
 * x stride of 1 or 2, equal to the y stride for a conv; at most 8
 * columns, a gather's reach into the next tile's halo; and at most 64
 * taps for a depthwise conv, one row of its weight image.
 */
bool windowSupported(const ConvKernel &p);

/**
 * The weight image of conv `p` in the order its form's Reps read it:
 * per output-channel block kb one bias row (64 int32 in bytes 0..255),
 * then the block's tap rows, 64 taps of 64 bytes per row, each tap
 * w[kb*64 .. kb*64+63, tap] and the zero point past the output
 * channels. The taps run (r, s, c) over GroupedRf rows (stem), (r, s,
 * cb, c) for a staged conv, whose taps read different copies, and (r,
 * cb, s, c) for every other standard conv; input channels past cin
 * hold the zero point. A depthwise conv's tap row holds its kh*kw taps
 * (r, s) of channel block kb. `w` is OHWI ([1, Kh, Kw, C] depthwise).
 */
std::vector<uint8_t> packWindowWeights(const ConvKernel &p, const Tensor &w,
                                       const Tensor *bias,
                                       uint8_t zero_byte);

/**
 * Emit a convolution or pool in the form planConv picks; p.out must be
 * the layout the plan writes. A staged conv first copies its input into
 * `stageBase`. A pool runs the plain-row depthwise walk with no
 * weights: each output row starts from AccZero and takes one Rep of
 * kh*kw WindowGather taps, Max over raw codes or Add over zero-offset
 * codes. A padded max pool reads a copy of its input at `stageBase`
 * whose pads hold code 0, so padding never wins.
 */
void emitConv(ProgramBuilder &pb, const ConvKernel &p);

/** Destination position (y, x) of a relayout takes source position
 *  (sy*y + oy, sx*x + ox); sx is 1 or 2. */
struct Resample
{
    int sy = 1, oy = 0, sx = 1, ox = 0;

    bool operator==(const Resample &) const = default;
};

/**
 * Copy a tensor between layouts on chip: plain, packed or dense rows,
 * in any direction (same channels). Without a resample the shapes
 * match and the destination comes out exactly as packActivation writes
 * it: every copy of every position, halo lanes included, and the zero
 * point in every other lane. With one, every lane of the destination's
 * padded extent whose resampled position lies inside the source takes
 * it, pad lanes included, and the rest hold the zero point: the staged
 * copies of a staged conv. Runs after producers that cannot write
 * their output's layout directly (stems, pools and plain convs feeding
 * dense rows, staged convs writing packed rows).
 */
void emitRelayout(ProgramBuilder &pb, const TensorLayout &src,
                  const TensorLayout &dst, const MaskTable &masks,
                  Resample rs = {});

/**
 * Quantized FC as a K-split matvec over a 1x1 interleaved input and
 * output (see fcSplitDepth): replicate the input into `scratchBase`
 * (each 1024-lane quarter broadcasts its own channel block), run one
 * MAC Rep of fcSplitDepth(cin) steps per 1024 outputs, fold the four
 * accumulator quarters in two steps (CopyAcc32 + AccLoadBias
 * AddQuarter), requantize, and scatter the result into the output's
 * channel-block rows. Weights come from packFcWeights.
 */
struct FcKernel
{
    TensorLayout in;  ///< 1x1 interleaved input vector.
    TensorLayout out; ///< 1x1 interleaved output vector.
    int cin = 0, cout = 0;
    int weightBase = 0;
    int rqIndex = 0;
    uint8_t dataZero = 0, weightZero = 0;
    MaskTable masks;
    int scratchBase = -1; ///< fcScratchRows(cin) rows.
};

void emitFc(ProgramBuilder &pb, const FcKernel &p);

/** Data-RAM scratch rows emitFc replicates its input into. */
inline int
fcScratchRows(int64_t cin)
{
    return fcSplitDepth(cin) / kCBlock;
}

/**
 * True when the K-split FC computes exactly the reference's sum:
 * no partial sum can saturate, so the quarter fold may reorder it.
 */
bool fcSplitExact(int64_t cin, int64_t max_abs_bias);

/** Quantized elementwise add with rescale (residual connections). */
struct AddKernel
{
    TensorLayout a, b, out; ///< Identical geometry, interleaved.
    int32_t ka = 1, kb = 1; ///< From makeAddPlan().
    uint8_t zeroA = 0, zeroB = 0;
    int rqIndex = 0;
};

void emitAdd(ProgramBuilder &pb, const AddKernel &p);

/**
 * bf16 vector-matrix multiply: [1,K] x [K,N] (GNMT building block).
 * Large matrices run as k-segments streamed through the weight RAM:
 * set firstSegment on the first (zeroes the accumulators) and
 * lastSegment on the last (stores the bf16 result); the accumulators
 * carry partial sums in between. Bias and activation run on the host.
 */
struct MatmulBf16Kernel
{
    TensorLayout in;  ///< Flat bf16 vector (full K elements).
    TensorLayout out; ///< Flat bf16 vector [N].
    int k = 0;        ///< Rows of this segment.
    int n = 0;
    int inElemOffset = 0; ///< First input element of this segment.
    int weightBase = 0;   ///< packMatmulBf16Weights image (segment).
    bool firstSegment = true;
    bool lastSegment = true;
};

void emitMatmulBf16(ProgramBuilder &pb, const MatmulBf16Kernel &p);

/**
 * Edge patch pass: fix halo lanes from the neighbor tile and stamp
 * padding/tail lanes with the zero point. Run after every layer that
 * produces an interleaved tensor.
 */
void emitEdgePatch(ProgramBuilder &pb, const TensorLayout &lay,
                   const MaskTable &masks);

/** Fill a tensor's padding rows (top/bottom) with zero-point bytes. */
void emitPadRowInit(ProgramBuilder &pb, const TensorLayout &lay);

} // namespace ncore

#endif // NCORE_NKL_KERNELS_H
