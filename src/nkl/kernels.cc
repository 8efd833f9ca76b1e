#include "kernels.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <tuple>
#include <utility>

namespace ncore {

namespace {

// Address register roles (see kernels.h).
constexpr int kPatchA = 0;
constexpr int kPatchB = 1;
constexpr int kOutReg = 2;
constexpr int kWtB = 3;
constexpr int kDataA = 4;
constexpr int kWtA = 5;
constexpr int kBias = 6; // Also data B for stride-2 second pass.
constexpr int kMask = 7;

/** Clamp an x-tile index into the stored range. */
int
clampTile(int t, int ntiles)
{
    return std::clamp(t, 0, ntiles - 1);
}

/** Requant-and-store instruction for one output row. */
Instruction
requantStore(int out_row, int rq_index, OutOp op = OutOp::Requant8)
{
    Instruction st;
    st.ctrl.op = CtrlOp::SetAddrRow;
    st.ctrl.reg = kOutReg;
    st.ctrl.imm = uint32_t(out_row);
    st.out.op = op;
    st.out.rqIndex = uint8_t(rq_index);
    st.write.enable = true;
    st.write.addrReg = kOutReg;
    st.write.src = RowSrc::OutLo;
    return st;
}

/** acc = 0 in every lane. */
Instruction
accZero()
{
    Instruction z;
    z.npu.op = NpuOp::AccZero;
    return z;
}

/** AccLoadBias(Rep64) from a weight RAM row. */
Instruction
biasLoad(int bias_row)
{
    Instruction bi;
    bi.ctrl.op = CtrlOp::SetAddrRow;
    bi.ctrl.reg = kBias;
    bi.ctrl.imm = uint32_t(bias_row);
    bi.weightRead.enable = true;
    bi.weightRead.reg = kBias;
    bi.npu.op = NpuOp::AccLoadBias;
    bi.npu.a = RowSrc::WeightRead;
    bi.npu.b = RowSrc(uint8_t(BiasMode::Rep64));
    return bi;
}

/**
 * The single-instruction accumulation loop (paper Fig. 6): repeat
 * `reps` times { read data row, read weight row, NDU gather/broadcast,
 * NDU weight replicate, MAC }, with both address registers in circular
 * mode stepping taps and rows.
 */
Instruction
repMac(uint32_t reps, int data_reg, int wt_reg, NduOp data_op,
       NduStride data_stride, Pred pred)
{
    Instruction mac;
    mac.ctrl.op = CtrlOp::Rep;
    mac.ctrl.imm = reps;
    mac.dataRead.enable = true;
    mac.dataRead.reg = uint8_t(data_reg);
    mac.weightRead.enable = true;
    mac.weightRead.reg = uint8_t(wt_reg);
    mac.ndu0.op = data_op;
    mac.ndu0.srcA = RowSrc::DataRead;
    mac.ndu0.dst = 0;
    mac.ndu0.addrReg = uint8_t(data_reg);
    mac.ndu0.addrInc = true;
    mac.ndu0.param = uint8_t(data_stride);
    mac.ndu1.op = NduOp::RepWindow;
    mac.ndu1.srcA = RowSrc::WeightRead;
    mac.ndu1.dst = 1;
    mac.ndu1.addrReg = uint8_t(wt_reg);
    mac.ndu1.addrInc = true;
    mac.ndu1.param = uint8_t(NduStride::S1);
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::U8;
    mac.npu.a = RowSrc::N0;
    mac.npu.b = RowSrc::N1;
    mac.npu.zeroOff = true;
    mac.npu.pred = pred;
    return mac;
}

/**
 * A pool's window: repeat `reps` times { read data row, NDU gather, NPU
 * `op` } with no weight read. Max runs over raw codes, Add over
 * zero-offset codes.
 */
Instruction
repPool(uint32_t reps, int data_reg, NpuOp op, NduStride data_stride,
        Pred pred)
{
    Instruction pool;
    pool.ctrl.op = CtrlOp::Rep;
    pool.ctrl.imm = reps;
    pool.dataRead.enable = true;
    pool.dataRead.reg = uint8_t(data_reg);
    pool.ndu0.op = NduOp::WindowGather;
    pool.ndu0.srcA = RowSrc::DataRead;
    pool.ndu0.dst = 0;
    pool.ndu0.addrReg = uint8_t(data_reg);
    pool.ndu0.addrInc = true;
    pool.ndu0.param = uint8_t(data_stride);
    pool.npu.op = op;
    pool.npu.type = LaneType::U8;
    pool.npu.a = RowSrc::N0;
    pool.npu.zeroOff = op == NpuOp::Add;
    pool.npu.pred = pred;
    return pool;
}

} // namespace

namespace {

/** Byte offset `bytes` as an address-register byte (mod one row). */
int
rowByte(int bytes)
{
    return (bytes % 4096 + 4096) % 4096;
}

/** Phase index and phase-position offset of tap `r` of a conv with
 *  stride `stride` and padding `pad`: input stride*o + r - pad is
 *  phase (r - pad) mod stride at position o + floor((r - pad) /
 *  stride). Stride 1 has one phase. */
std::pair<int, int>
tapPhase(int r, int pad, int stride)
{
    const int d = r - pad;
    const int ph = (d % stride + stride) % stride;
    return {ph, (d - ph) / stride};
}

/**
 * Tap (r, s) of a staged standard conv: the copy it reads (key r * 2 +
 * px, one per kernel row and column phase) and the byte offset, in that
 * copy's rows, of the input of output lane 0.
 */
std::pair<int, int>
stagedTap(const ConvKernel &p, int r, int s)
{
    auto [px, ox] = tapPhase(s, p.padLeft, p.strideW);
    return {r * 2 + px, rowByte(ox * 64)};
}

/** Copies a staged conv reads, as a bit mask over copy keys: r * 2 +
 *  px for a standard conv, r for a depthwise one. */
uint64_t
stagedCopySet(const ConvKernel &p)
{
    if (p.depthwise)
        return (uint64_t(1) << p.kh) - 1;
    uint64_t mask = 0;
    for (int r = 0; r < p.kh; ++r)
        for (int s = 0; s < p.kw; ++s)
            mask |= uint64_t(1) << stagedTap(p, r, s).first;
    return mask;
}

/** Layout of one staged copy: `out`'s ys with the input's channels; a
 *  depthwise conv's copies keep every input column (see planConv). */
TensorLayout
stagedCopyLayout(const ConvKernel &p)
{
    const int s = p.depthwise ? p.strideW : 1;
    return haloFreeLayout(Shape{1, p.out.h, s * (p.out.w + 2) - 2, p.cin},
                          p.in.zeroByte);
}

/** The resample that fills copy `key`: destination (y, x) takes source
 *  (stride*y + r - padTop, x) for a depthwise conv, (stride*y + r -
 *  padTop, stride*x + px) for a standard one. */
Resample
stagedCopyResample(const ConvKernel &p, int key)
{
    if (p.depthwise)
        return {p.strideH, key - p.padTop, 1, 0};
    return {p.strideH, (key >> 1) - p.padTop, p.strideW, key & 1};
}

/** True when `p` is a padded max pool, which reduces over a copy of its
 *  input whose pads hold code 0 (emitMinCodeRestamp). */
bool
minCodeCopy(const ConvKernel &p)
{
    return p.op == NpuOp::Max && (p.padTop > 0 || p.padLeft > 0);
}

/** True when the staged copies can serve conv `p`'s taps (planConv). */
bool
stagedCopiesFit(const ConvKernel &p)
{
    // Taps r = 0 and r = k - 1 bound the offsets to [-1, 1];
    // padLeft <= 1 keeps a depthwise conv's left tap, which reads an
    // input column, in its copies' one pad column.
    auto fits = [&](int k, int pad) {
        return tapPhase(0, pad, p.strideH).second >= -1 &&
               tapPhase(k - 1, pad, p.strideH).second <= 1;
    };
    return p.strideH == p.strideW && (p.strideH == 1 || p.strideH == 2) &&
           p.in.kind == LayoutKind::Interleaved && p.in.xtiles() == 1 &&
           fits(p.kh, p.padTop) && fits(p.kw, p.padLeft) && p.padLeft <= 1;
}

} // namespace

ConvPlan
planConv(const ConvKernel &p)
{
    const Shape shape{1, p.out.h, p.out.w, p.out.c};
    const uint8_t zp = p.out.zeroByte;
    ConvPlan plan;
    plan.out = p.out.dense || p.out.packed()
                   ? interleavedLayout(shape, 0, 0, 0, 0, zp)
                   : p.out;
    if (p.op != NpuOp::Mac) {
        plan.stagingRows = minCodeCopy(p) ? p.in.rows() : 0;
    } else if (p.in.kind == LayoutKind::GroupedRf) {
        if (p.kw * p.cin <= 64)
            plan.form = ConvForm::Stem;
    } else if (p.in.dense && !p.depthwise && p.kh == 1 && p.kw == 1 &&
               p.strideH == 1 && p.strideW == 1 && p.padTop == 0 &&
               p.padLeft == 0 && p.in.h == p.out.h && p.in.w == p.out.w) {
        plan.form = ConvForm::Dense;
        plan.out = denseLayout(shape, zp);
    } else if (yPackable(p.out.w) && stagedCopiesFit(p)) {
        // A depthwise conv's copies keep every input column, so at
        // stride 2 their slots are twice the output pitch and its rows
        // hold half the ys.
        plan.form = ConvForm::Staged;
        plan.out = haloFreeLayout(shape, zp);
        if (p.depthwise)
            plan.out.ny = 64 / (p.strideW * plan.out.pitch);
        plan.stagingRows = std::popcount(stagedCopySet(p)) *
                           stagedCopyLayout(p).rows();
    }
    plan.out.baseRow = p.out.baseRow;
    return plan;
}

bool
windowSupported(const ConvKernel &p)
{
    return (p.strideW == 1 || p.strideW == 2) && p.kw <= 8 &&
           (p.op != NpuOp::Mac ||
            (p.strideH == p.strideW && !(p.depthwise && p.kh * p.kw > 64)));
}

std::vector<uint8_t>
packWindowWeights(const ConvKernel &p, const Tensor &w, const Tensor *bias,
                  uint8_t zero_byte)
{
    const ConvForm form = planConv(p).form;
    const int kh = p.kh, kw = p.kw, cin = p.cin, cout = p.cout;
    const int ncb = (cin + kCBlock - 1) / kCBlock;
    fatal_if(!windowSupported(p), "unsupported %dx%d window", kh, kw);

    // Per tap, in the order the form's Reps read them, the offset in `w`
    // of output channel 0's weight; output channel ko's lies ko * step
    // further on. -1 pads a channel block with the zero point.
    const int step = p.depthwise ? 1 : kh * kw * cin;
    std::vector<int> taps;
    for (int r = 0; r < kh; ++r) {
        if (p.depthwise || form == ConvForm::Stem) {
            for (int s = 0; s < kw; ++s)
                for (int c = 0; c < (p.depthwise ? 1 : cin); ++c)
                    taps.push_back((r * kw + s) * (p.depthwise ? cout : cin) +
                                   c);
            continue;
        }
        const bool per_tap = form == ConvForm::Staged;
        for (int outer = 0; outer < (per_tap ? kw : ncb); ++outer)
            for (int inner = 0; inner < (per_tap ? ncb : kw); ++inner)
                for (int cc = 0; cc < kCBlock; ++cc) {
                    const int s = per_tap ? outer : inner;
                    const int c = (per_tap ? inner : outer) * kCBlock + cc;
                    taps.push_back(c < cin ? (r * kw + s) * cin + c : -1);
                }
    }

    const int nkb = (cout + kCBlock - 1) / kCBlock;
    const int tap_rows = int(taps.size() + 63) / 64;
    std::vector<uint8_t> img(size_t(nkb + nkb * tap_rows) * 4096,
                             zero_byte);
    const uint8_t *pw = w.raw();
    for (int kb = 0; kb < nkb; ++kb) {
        const int k0 = kb * kCBlock, nk = std::min(kCBlock, cout - k0);
        uint8_t *brow = img.data() + size_t(kb) * 4096;
        std::memset(brow, 0, 4096);
        for (int j = 0; j < nk; ++j) {
            const int32_t b = bias ? bias->intAt(k0 + j) : 0;
            std::memcpy(brow + j * 4, &b, 4);
        }
        uint8_t *block = img.data() + size_t(nkb + kb * tap_rows) * 4096;
        for (const int src : taps) {
            for (int j = 0; src >= 0 && j < nk; ++j)
                block[j] = pw[src + size_t(k0 + j) * size_t(step)];
            block += 64;
        }
    }
    return img;
}

void
emitRelayout(ProgramBuilder &pb, const TensorLayout &src,
             const TensorLayout &dst, const MaskTable &masks, Resample rs)
{
    fatal_if(src.kind != LayoutKind::Interleaved ||
                 dst.kind != LayoutKind::Interleaved || src.c != dst.c,
             "relayout moves interleaved-family rows of one channel count");
    fatal_if(rs == Resample{} && (src.h != dst.h || src.w != dst.w),
             "relayout needs one tensor shape");
    fatal_if(rs.sx < 1 || rs.sx > 2,
             "relayout column step %d unsupported", rs.sx);
    const int ncb = dst.cblocks();

    // Runs: lanes [lo, hi) of destination group g that one gather of
    // source group sg supplies, lane i reading source lane
    // shift + sx*i.
    struct Run
    {
        int lo, hi, shift, g, sg;
    };
    std::vector<Run> runs;
    for (int g = 0; g < dst.groups(); ++g)
        dst.forEachLane(g, [&](int lane, int y, int x) {
            const int ys = rs.sy * y + rs.oy, xs = rs.sx * x + rs.ox;
            if (ys < 0 || ys >= src.h || xs < 0 || xs >= src.w)
                return; // Keeps the zero point.
            const TensorLayout::Place at = src.placeOf(ys, xs);
            const int shift = at.lane - rs.sx * lane;
            if (!runs.empty()) {
                Run &r = runs.back();
                if (r.g == g && r.hi == lane && r.sg == at.group &&
                    r.shift == shift) {
                    ++r.hi;
                    return;
                }
            }
            runs.push_back({lane, lane + 1, shift, g, at.group});
        });
    // Runs with equal lane ranges and shifts share masks and offsets.
    std::sort(runs.begin(), runs.end(), [](const Run &a, const Run &b) {
        return std::tie(a.lo, a.hi, a.shift, a.g) <
               std::tie(b.lo, b.hi, b.shift, b.g);
    });

    // Zero-point the destination; the runs then merge in their lanes.
    pb.splat(0, dst.zeroByte);
    pb.setRow(kOutReg, dst.baseRow);
    pb.setInc(kOutReg, 1, 0);
    Instruction fill;
    fill.ctrl.op = CtrlOp::Rep;
    fill.ctrl.imm = uint32_t(dst.rows());
    fill.write.enable = true;
    fill.write.addrReg = kOutReg;
    fill.write.postInc = true;
    fill.write.src = RowSrc::N0;
    pb.emit(fill);

    int lo = -1, hi = -1, shift = 0;
    bool shift_set = false;
    for (const Run &r : runs) {
        if (r.lo != lo)
            pb.loadMask(kMask, masks.rowFor(lo = r.lo), 0); // P0.
        if (r.hi != hi)
            pb.loadMask(kMask, masks.rowFor(hi = r.hi), 1); // P1.
        if (!shift_set || r.shift != shift) {
            pb.setByte(kPatchB, rowByte((shift = r.shift) * 64));
            shift_set = true;
        }
        for (int cb = 0; cb < ncb; ++cb) {
            Instruction i1;
            i1.ctrl.op = CtrlOp::SetAddrRow;
            i1.ctrl.reg = kPatchA;
            i1.ctrl.imm = uint32_t(src.baseRow + src.groupRow(r.sg, cb));
            i1.dataRead.enable = true;
            i1.dataRead.reg = kPatchA;
            i1.ndu0.op = NduOp::WindowGather;
            i1.ndu0.srcA = RowSrc::DataRead;
            i1.ndu0.dst = 0;
            i1.ndu0.addrReg = kPatchB;
            i1.ndu0.param = uint8_t(rs.sx == 2 ? NduStride::S128
                                               : NduStride::S64);
            pb.emit(i1);

            // Lanes [lo, hi) take the gather; the rest keep the row.
            Instruction i2;
            i2.ctrl.op = CtrlOp::SetAddrRow;
            i2.ctrl.reg = kOutReg;
            i2.ctrl.imm = uint32_t(dst.baseRow + dst.groupRow(r.g, cb));
            i2.dataRead.enable = true;
            i2.dataRead.reg = kOutReg;
            i2.ndu0.op = NduOp::MergeMask;
            i2.ndu0.srcA = RowSrc::N0;
            i2.ndu0.srcB = RowSrc::DataRead;
            i2.ndu0.dst = 1;
            i2.ndu0.param = 1; // P1.
            i2.ndu1.op = NduOp::MergeMask;
            i2.ndu1.srcA = RowSrc::DataRead;
            i2.ndu1.srcB = RowSrc::N1;
            i2.ndu1.dst = 2;
            i2.ndu1.param = 0; // P0.
            i2.write.enable = true;
            i2.write.addrReg = kOutReg;
            i2.write.src = RowSrc::N2;
            pb.emit(i2);
        }
    }
}

void
emitPadRowInit(ProgramBuilder &pb, const TensorLayout &lay)
{
    const int per_y = lay.cblocks() * lay.xtiles();
    auto stamp = [&](int first_row, int count) {
        if (count <= 0)
            return;
        pb.splat(0, lay.zeroByte);
        pb.setRow(kOutReg, lay.baseRow + first_row);
        pb.setInc(kOutReg, 1, 0);
        Instruction wr;
        wr.ctrl.op = CtrlOp::Rep;
        wr.ctrl.imm = uint32_t(count);
        wr.write.enable = true;
        wr.write.addrReg = kOutReg;
        wr.write.postInc = true;
        wr.write.src = RowSrc::N0;
        pb.emit(wr);
    };
    stamp(0, lay.padTop * per_y);
    stamp((lay.padTop + lay.h) * per_y, lay.padBottom * per_y);
}

void
emitEdgePatch(ProgramBuilder &pb, const TensorLayout &lay,
              const MaskTable &masks)
{
    const int ncb = lay.cblocks();
    const int nt = lay.xtiles();
    // Lanes at padded coords >= padLeft + w are padding: they hold
    // compute garbage after a conv pass and must be re-stamped with the
    // zero point (consumers rely on pad lanes contributing zero).
    const int data_end = lay.padLeft + lay.w;

    pb.splat(3, lay.zeroByte);      // N3 = zero-point row.
    pb.setByte(kPatchB, 512);       // Gather offset mapping g -> g-56.

    for (int t = 0; t < nt; ++t) {
        int ve = std::clamp(data_end - t * kOwnW, 0, kRowPos);
        int vo = std::min(ve, kOwnW); // Owned valid extent.
        bool has_next = t + 1 < nt && ve > kOwnW;

        pb.loadMask(kMask, masks.rowFor(std::max(vo, 1)), 1); // P1.
        if (has_next)
            pb.loadMask(kMask, masks.rowFor(std::max(ve, 1)), 0); // P0.

        for (int yp = lay.padTop; yp < lay.padTop + lay.h; ++yp)
        for (int cb = 0; cb < ncb; ++cb) {
            int row_cur = lay.baseRow + lay.rowOf(yp, cb, t);

            if (has_next) {
                // i1: N0 = next tile's row shifted so its group 0
                // lands in group 56.
                Instruction i1;
                i1.ctrl.op = CtrlOp::SetAddrRow;
                i1.ctrl.reg = kPatchA;
                i1.ctrl.imm = uint32_t(lay.baseRow +
                                       lay.rowOf(yp, cb, t + 1));
                i1.dataRead.enable = true;
                i1.dataRead.reg = kPatchA;
                i1.ndu0.op = NduOp::WindowGather;
                i1.ndu0.srcA = RowSrc::DataRead;
                i1.ndu0.dst = 0;
                i1.ndu0.addrReg = kPatchB;
                i1.ndu0.param = uint8_t(NduStride::S64);
                pb.emit(i1);

                // i2: owned lanes from current, halo from N0 within
                // the valid extent, zero point beyond it.
                Instruction i2;
                i2.ctrl.op = CtrlOp::SetAddrRow;
                i2.ctrl.reg = kPatchA;
                i2.ctrl.imm = uint32_t(row_cur);
                i2.dataRead.enable = true;
                i2.dataRead.reg = kPatchA;
                i2.ndu0.op = NduOp::MergeMask;
                i2.ndu0.srcA = RowSrc::DataRead;
                i2.ndu0.srcB = RowSrc::N0;
                i2.ndu0.dst = 1;
                i2.ndu0.param = 1; // Select by P1 (owned prefix).
                i2.ndu1.op = NduOp::MergeMask;
                i2.ndu1.srcA = RowSrc::N1;
                i2.ndu1.srcB = RowSrc::N3;
                i2.ndu1.dst = 2;
                i2.ndu1.param = 0; // Select by P0 (valid prefix).
                i2.write.enable = true;
                i2.write.addrReg = kPatchA;
                i2.write.src = RowSrc::N2;
                pb.emit(i2);
            } else {
                // Last tile: valid prefix from current row, rest zp.
                Instruction i2;
                i2.ctrl.op = CtrlOp::SetAddrRow;
                i2.ctrl.reg = kPatchA;
                i2.ctrl.imm = uint32_t(row_cur);
                i2.dataRead.enable = true;
                i2.dataRead.reg = kPatchA;
                i2.ndu0.op = NduOp::MergeMask;
                i2.ndu0.srcA = RowSrc::DataRead;
                i2.ndu0.srcB = RowSrc::N3;
                i2.ndu0.dst = 2;
                i2.ndu0.param = 1; // Select by P1.
                i2.write.enable = true;
                i2.write.addrReg = kPatchA;
                i2.write.src = RowSrc::N2;
                pb.emit(i2);
            }
        }
    }

    // Left-pad lanes of tile 0 (padded coords < padLeft) also hold
    // compute garbage; stamp them with the zero point.
    if (lay.padLeft > 0) {
        pb.loadMask(kMask, masks.rowFor(lay.padLeft), 0); // P0 prefix.
        for (int yp = lay.padTop; yp < lay.padTop + lay.h; ++yp)
        for (int cb = 0; cb < ncb; ++cb) {
            Instruction i3;
            i3.ctrl.op = CtrlOp::SetAddrRow;
            i3.ctrl.reg = kPatchA;
            i3.ctrl.imm = uint32_t(lay.baseRow + lay.rowOf(yp, cb, 0));
            i3.dataRead.enable = true;
            i3.dataRead.reg = kPatchA;
            i3.ndu0.op = NduOp::MergeMask;
            i3.ndu0.srcA = RowSrc::N3;       // zp where P0 (left pad).
            i3.ndu0.srcB = RowSrc::DataRead;
            i3.ndu0.dst = 0;
            i3.ndu0.param = 0; // P0, not inverted.
            i3.write.enable = true;
            i3.write.addrReg = kPatchA;
            i3.write.src = RowSrc::N0;
            pb.emit(i3);
        }
    }
}

namespace {

/**
 * Repair the first `lanes` lanes of every x-tile after the first: a
 * negative gather shift reads them from before the input tile's row.
 * The previous tile computed the same outputs correctly as its halo
 * lanes 56.., from its own row. Run before emitEdgePatch, which
 * overwrites those halo lanes.
 */
void
emitTileStartRepair(ProgramBuilder &pb, const TensorLayout &lay,
                    const MaskTable &masks, int lanes)
{
    if (lanes <= 0 || lay.xtiles() < 2)
        return;
    pb.setByte(kPatchB, kOwnW * 64); // Gather lane 56 + g into g.
    pb.loadMask(kMask, masks.rowFor(lanes), 0);
    for (int t = 1; t < lay.xtiles(); ++t)
    for (int yp = lay.padTop; yp < lay.padTop + lay.h; ++yp)
    for (int cb = 0; cb < lay.cblocks(); ++cb) {
        Instruction i1;
        i1.ctrl.op = CtrlOp::SetAddrRow;
        i1.ctrl.reg = kPatchA;
        i1.ctrl.imm = uint32_t(lay.baseRow + lay.rowOf(yp, cb, t - 1));
        i1.dataRead.enable = true;
        i1.dataRead.reg = kPatchA;
        i1.ndu0.op = NduOp::WindowGather;
        i1.ndu0.srcA = RowSrc::DataRead;
        i1.ndu0.dst = 0;
        i1.ndu0.addrReg = kPatchB;
        i1.ndu0.param = uint8_t(NduStride::S64);
        pb.emit(i1);

        Instruction i2;
        i2.ctrl.op = CtrlOp::SetAddrRow;
        i2.ctrl.reg = kPatchA;
        i2.ctrl.imm = uint32_t(lay.baseRow + lay.rowOf(yp, cb, t));
        i2.dataRead.enable = true;
        i2.dataRead.reg = kPatchA;
        i2.ndu0.op = NduOp::MergeMask;
        i2.ndu0.srcA = RowSrc::N0;
        i2.ndu0.srcB = RowSrc::DataRead;
        i2.ndu0.dst = 1;
        i2.ndu0.param = 0; // P0.
        i2.write.enable = true;
        i2.write.addrReg = kPatchA;
        i2.write.src = RowSrc::N1;
        pb.emit(i2);
    }
}

/**
 * Stage a tensor into a scratch copy whose padding and invalid lanes
 * hold code 0 — the minimum uint8 code — so a max reduction over raw
 * codes can never be won by padding (matching the exclude-padding
 * semantics of the reference and of TFLite).
 */
void
emitMinCodeRestamp(ProgramBuilder &pb, const TensorLayout &li,
                   int scratch_base, const MaskTable &masks)
{
    const int ncb = li.cblocks();
    const int nt = li.xtiles();
    pb.splat(3, 0); // N3 = all-zero codes.

    for (int t = 0; t < nt; ++t) {
        int start_valid = t == 0 ? li.padLeft : 0;
        int end_valid =
            std::clamp(li.padLeft + li.w - t * kOwnW, 0, kRowPos);
        pb.loadMask(kMask, masks.rowFor(start_valid), 0); // P0.
        pb.loadMask(kMask, masks.rowFor(end_valid), 1);   // P1.
        for (int yp = 0; yp < li.paddedH(); ++yp) {
            bool real = yp >= li.padTop && yp < li.padTop + li.h;
            for (int cb = 0; cb < ncb; ++cb) {
                int dst = scratch_base + li.rowOf(yp, cb, t);
                if (!real) {
                    Instruction z;
                    z.ctrl.op = CtrlOp::SetAddrRow;
                    z.ctrl.reg = kOutReg;
                    z.ctrl.imm = uint32_t(dst);
                    z.write.enable = true;
                    z.write.addrReg = kOutReg;
                    z.write.src = RowSrc::N3;
                    pb.emit(z);
                    continue;
                }
                Instruction i1;
                i1.ctrl.op = CtrlOp::SetAddrRow;
                i1.ctrl.reg = kPatchA;
                i1.ctrl.imm =
                    uint32_t(li.baseRow + li.rowOf(yp, cb, t));
                i1.dataRead.enable = true;
                i1.dataRead.reg = kPatchA;
                i1.ndu0.op = NduOp::MergeMask;
                i1.ndu0.srcA = RowSrc::N3;       // Left pad -> 0.
                i1.ndu0.srcB = RowSrc::DataRead;
                i1.ndu0.dst = 1;
                i1.ndu0.param = 0; // P0.
                i1.ndu1.op = NduOp::MergeMask;
                i1.ndu1.srcA = RowSrc::N1;
                i1.ndu1.srcB = RowSrc::N3;       // Beyond valid -> 0.
                i1.ndu1.dst = 2;
                i1.ndu1.param = 1; // P1.
                pb.emit(i1);

                Instruction i2;
                i2.ctrl.op = CtrlOp::SetAddrRow;
                i2.ctrl.reg = kOutReg;
                i2.ctrl.imm = uint32_t(dst);
                i2.write.enable = true;
                i2.write.addrReg = kOutReg;
                i2.write.src = RowSrc::N2;
                pb.emit(i2);
            }
        }
    }
}

/**
 * Stem convolution over a GroupedRf input: each group already holds
 * its output position's receptive-field row (strides folded into the
 * packing), so the whole accumulation is one dense Rep over
 * kh * kw * cin taps — single pass, any stride.
 */
void
emitStemConv(ProgramBuilder &pb, const ConvKernel &p)
{
    const TensorLayout &li = p.in;
    const TensorLayout &lo = p.out;
    const int nt = li.xtiles();
    const int nkb = (p.cout + kCBlock - 1) / kCBlock;
    fatal_if(nt != lo.xtiles(), "stem tile mismatch");

    pb.setZeroOff(p.dataZero, p.weightZero);
    pb.setInc(kDataA, nt, 1);
    pb.setWrap(kDataA, p.kw * p.cin);
    pb.setInc(kWtA, 1, 64);
    pb.setWrap(kWtA, 64);

    emitPadRowInit(pb, lo);

    const uint32_t reps = uint32_t(p.kh * p.kw * p.cin);
    const int tap_rows = (p.kh * p.kw * p.cin + 63) / 64;

    for (int t = 0; t < nt; ++t)
    for (int kb = 0; kb < nkb; ++kb) {
        const int bias_row = p.weightBase + kb;
        const int tap_base = p.weightBase + nkb + kb * tap_rows;
        for (int yo = 0; yo < lo.h; ++yo) {
            int yi_p = yo * p.strideH; // li.padTop == conv padTop.
            panic_if(yi_p < 0 || yi_p + p.kh > li.paddedH(),
                     "stem input row out of materialized range");
            pb.setRow(kDataA, li.baseRow + li.rowOf(yi_p, 0, t));
            pb.setByte(kDataA, 0);
            pb.setRow(kWtA, tap_base);
            pb.setByte(kWtA, 0);
            pb.emit(biasLoad(bias_row));
            pb.emit(repMac(reps, kDataA, kWtA, NduOp::GroupBcast,
                           NduStride::S64, Pred::None));
            pb.emit(requantStore(
                lo.baseRow + lo.rowOf(yo + lo.padTop, kb, t),
                p.rqIndex));
        }
    }

    if (p.patchOutput)
        emitEdgePatch(pb, lo, p.masks);
}

/**
 * Staged convolution: copy the input once into the geometry the taps
 * read (resampled relayouts), then run unpredicated fused Reps over the
 * copies, writing halo-free rows whose blocks cover ny output rows. A
 * standard conv reads one copy per kernel row r and column phase and
 * runs one repMac Rep of ncb*64 taps per tap (r, s) over PerTap
 * weights, reading its copy at a position offset of -1, 0 or 1. A
 * depthwise conv reads one copy per kernel row, holding every input
 * column, and runs one Rep of kw WindowGather taps per kernel row and
 * channel block, stepping one input column per tap: at stride 2 output
 * lane i gathers copy lane 2i + t, which is why its copies' slots are
 * twice the output pitch.
 */
void
emitConvStaged(ProgramBuilder &pb, const ConvKernel &p)
{
    const TensorLayout &lo = p.out;
    fatal_if(p.stageBase < 0, "staged conv needs a staging scratch");

    const uint64_t keys = stagedCopySet(p);
    std::vector<TensorLayout> copies(size_t(std::bit_width(keys)));
    int next = p.stageBase;
    for (int k = 0; k < int(copies.size()); ++k) {
        if (!(keys >> k & 1))
            continue;
        copies[size_t(k)] = stagedCopyLayout(p);
        copies[size_t(k)].baseRow = next;
        next += copies[size_t(k)].rows();
        emitRelayout(pb, p.in, copies[size_t(k)], p.masks,
                     stagedCopyResample(p, k));
    }

    const int ncb = (p.cin + kCBlock - 1) / kCBlock;
    const int nkb = (p.cout + kCBlock - 1) / kCBlock;
    pb.setZeroOff(p.dataZero, p.weightZero);
    pb.setInc(kWtA, 1, 64);
    pb.setWrap(kWtA, 64);

    if (p.depthwise) {
        // Lane i's first tap reads copy lane stride*i + 1 - padLeft -
        // stride; after kw taps the byte offset snaps back to it.
        pb.setInc(kDataA, 0, 64);
        pb.setWrap(kDataA, p.kw);
        pb.setByte(kDataA, rowByte((1 - p.padLeft - p.strideW) * 64));
        for (int b = 0; b < lo.blocks(); ++b)
        for (int cb = 0; cb < ncb; ++cb) {
            pb.emit(biasLoad(p.weightBase + cb));
            pb.setRow(kWtA, p.weightBase + ncb + cb);
            pb.setByte(kWtA, 0);
            for (int r = 0; r < p.kh; ++r) {
                const TensorLayout &src = copies[size_t(r)];
                pb.setRow(kDataA, src.baseRow + src.rowOfPacked(b, cb));
                pb.emit(repMac(uint32_t(p.kw), kDataA, kWtA,
                               NduOp::WindowGather,
                               p.strideW == 2 ? NduStride::S128
                                              : NduStride::S64,
                               Pred::None));
            }
            pb.emit(requantStore(lo.baseRow + lo.rowOfPacked(b, cb),
                                 p.rqIndex));
        }
        return;
    }

    const int tap_rows_per_kb = p.kh * ncb * p.kw;
    pb.setInc(kDataA, 1, 1);
    pb.setWrap(kDataA, 64);
    for (int b = 0; b < lo.blocks(); ++b)
    for (int kb = 0; kb < nkb; ++kb) {
        pb.emit(biasLoad(p.weightBase + kb));
        pb.setRow(kWtA, p.weightBase + nkb + kb * tap_rows_per_kb);
        pb.setByte(kWtA, 0);
        for (int r = 0; r < p.kh; ++r)
        for (int s = 0; s < p.kw; ++s) {
            auto [key, byte] = stagedTap(p, r, s);
            const TensorLayout &src = copies[size_t(key)];
            pb.setRow(kDataA, src.baseRow + src.rowOfPacked(b, 0));
            pb.setByte(kDataA, byte);
            pb.emit(repMac(uint32_t(ncb * 64), kDataA, kWtA,
                           NduOp::GroupBcast, NduStride::S64,
                           Pred::None));
        }
        pb.emit(requantStore(lo.baseRow + lo.rowOfPacked(b, kb),
                             p.rqIndex));
    }
}

/**
 * Stride-1 1x1 convolution over dense rows: per 64-position block and
 * output channel block, one bias load, one repMac Rep over the input's
 * ncb*64 channels and one store. Each Rep leaves the weight register
 * on the next output block's taps, so only the data row is re-aimed.
 */
void
emitConvDense(ProgramBuilder &pb, const ConvKernel &p)
{
    const TensorLayout &li = p.in;
    const TensorLayout &lo = p.out;
    const int ncb = li.cblocks();
    const int nkb = (p.cout + kCBlock - 1) / kCBlock;

    pb.setZeroOff(p.dataZero, p.weightZero);
    pb.setInc(kDataA, 1, 1);
    pb.setWrap(kDataA, 64);
    pb.setByte(kDataA, 0);
    pb.setInc(kWtA, 1, 64);
    pb.setWrap(kWtA, 64);
    pb.setByte(kWtA, 0);

    for (int b = 0; b < lo.blocks(); ++b) {
        pb.setRow(kWtA, p.weightBase + nkb);
        for (int kb = 0; kb < nkb; ++kb) {
            pb.emit(biasLoad(p.weightBase + kb));
            pb.setRow(kDataA, li.baseRow + li.rowOfPacked(b, 0));
            pb.emit(repMac(uint32_t(ncb * 64), kDataA, kWtA,
                           NduOp::GroupBcast, NduStride::S64,
                           Pred::None));
            pb.emit(requantStore(lo.baseRow + lo.rowOfPacked(b, kb),
                                 p.rqIndex));
        }
    }
}

/**
 * A window over plain rows: per output row-tile and channel block one
 * bias load (AccZero for a pool) and one Rep over the whole window.
 */
void
emitConvRows(ProgramBuilder &pb, const ConvKernel &p)
{
    const bool pool = p.op != NpuOp::Mac;
    fatal_if(p.in.kind != LayoutKind::Interleaved || p.in.dense ||
                 p.in.packed() || (pool && !p.depthwise),
             "plain-row windows read plain rows; pools are depthwise");
    TensorLayout li = p.in;
    const TensorLayout &lo = p.out;
    if (minCodeCopy(p)) {
        fatal_if(p.stageBase < 0, "padded max pool needs a staging scratch");
        emitMinCodeRestamp(pb, p.in, p.stageBase, p.masks);
        li.baseRow = p.stageBase;
    }
    const int ncb_in = li.cblocks();
    const int nt_i = li.xtiles();
    const int nt_o = lo.xtiles();
    const int nkb = p.depthwise ? ncb_in
                                : (p.cout + kCBlock - 1) / kCBlock;
    const bool s2 = p.strideW == 2;
    // Stride-2 gathers over a multi-tile input run as two predicated
    // passes: pass A (P0, lanes 0..28) reads the even input tile, pass
    // B (not P0) the odd one. A single-tile input needs only pass A,
    // unpredicated: the gather bound below keeps every valid output
    // lane inside the row, and the rest are output padding.
    const bool two_pass = s2 && nt_i > 1;

    // Horizontal shift between output lanes and input bytes. A
    // negative delta corrupts the first -delta lanes of every output
    // tile: in tile 0 they are the output's own left padding (restored
    // by the edge patch), later tiles take them from the previous
    // tile's halo lanes (emitTileStartRepair). The stride-2 split keeps
    // its pass-B boundary valid down to delta = -2. Single-tile
    // tensors additionally allow negative coordinates outright: the
    // gather wraps into the zero-stamped row tail, which reads as
    // convolution padding (so 56-wide layers stay one tile with no
    // materialized x pads).
    const int delta =
        li.padLeft - p.padLeft - p.strideW * lo.padLeft;
    const int data_end_i = li.padLeft + li.w;
    if (nt_i == 1 && lo.xtiles() == 1) {
        fatal_if(delta < data_end_i - 64,
                 "wrapped gathers would miss the zero tail (delta=%d)",
                 delta);
        fatal_if((lo.padLeft + lo.w - 1) * p.strideW + p.kw - 1 +
                         delta >
                     63,
                 "gathers overrun the single-tile row (delta=%d)",
                 delta);
    } else {
        fatal_if(delta + p.kw - 1 > 8,
                 "layout padding slack %d out of halo range (kw=%d)",
                 delta, p.kw);
        fatal_if(delta < -(s2 ? 2 : 8),
                 "layout padding slack %d too negative for stride %d",
                 delta, p.strideW);
        fatal_if(-delta > p.strideW * lo.padLeft,
                 "negative slack %d would corrupt valid output lanes",
                 delta);
    }
    fatal_if(li.padTop < p.padTop, "insufficient materialized top pad");

    const uint32_t reps = p.depthwise
                              ? uint32_t(p.kh * p.kw)
                              : uint32_t(p.kh * ncb_in * p.kw * 64);
    const NduOp data_op =
        p.depthwise ? NduOp::WindowGather : NduOp::GroupBcast;
    const NduStride gs = s2 ? NduStride::S128 : NduStride::S64;
    auto window = [&](int data_reg, int wt_reg, Pred pred) {
        return pool ? repPool(reps, data_reg, p.op, gs, pred)
                    : repMac(reps, data_reg, wt_reg, data_op, gs, pred);
    };

    pb.setZeroOff(p.dataZero, p.weightZero);

    // Data registers: +1 byte per tap, snapping every kw*64 (std) or
    // kw (dw) taps to the next (y/cblock) row.
    const int data_wrap = p.depthwise ? p.kw : p.kw * 64;
    const int data_row_inc = p.depthwise ? ncb_in * nt_i : nt_i;
    const int data_byte_inc = p.depthwise ? 64 : 1;
    pb.setInc(kDataA, data_row_inc, data_byte_inc);
    pb.setWrap(kDataA, data_wrap);
    if (!pool) {
        pb.setInc(kWtA, 1, 64);
        pb.setWrap(kWtA, 64);
    }
    if (two_pass) {
        pb.setInc(kBias, data_row_inc, data_byte_inc);
        pb.setWrap(kBias, data_wrap);
        if (!pool) {
            pb.setInc(kWtB, 1, 64);
            pb.setWrap(kWtB, 64);
        }
        pb.loadMask(kMask, p.masks.rowFor(29), 0); // P0: groups 0..28.
    }

    emitPadRowInit(pb, lo);

    const int tap_rows_per_kb =
        p.depthwise ? 1 : p.kh * ncb_in * p.kw;

    for (int t_o = 0; t_o < nt_o; ++t_o)
    for (int kb = 0; kb < nkb; ++kb) {
        const int bias_row = p.weightBase + kb;
        const int tap_base =
            p.weightBase + nkb +
            kb * (p.depthwise ? 1 : tap_rows_per_kb);

        for (int yo = 0; yo < lo.h; ++yo) {
            // First input row of the accumulation: tap r = 0.
            int yi_p = yo * p.strideH - p.padTop + li.padTop;
            panic_if(yi_p < 0 || yi_p + p.kh > li.paddedH(),
                     "conv input row out of materialized range");

            int t_ia = clampTile(s2 ? 2 * t_o : t_o, nt_i);
            pb.setRow(kDataA,
                      li.baseRow + li.rowOf(yi_p, p.depthwise ? kb : 0,
                                            t_ia));
            pb.setByte(kDataA, ((delta * 64) % 4096 + 4096) % 4096);
            // Pools start from zero: every raw u8 code a Max takes is
            // >= 0, so no lower start value is needed.
            if (pool) {
                pb.emit(accZero());
            } else {
                pb.setRow(kWtA, tap_base);
                pb.setByte(kWtA, 0);
                pb.emit(biasLoad(bias_row));
            }
            pb.emit(window(kDataA, kWtA, two_pass ? Pred::P0 : Pred::None));

            if (two_pass) {
                int t_ib = clampTile(2 * t_o + 1, nt_i);
                pb.setRow(kBias,
                          li.baseRow +
                              li.rowOf(yi_p, p.depthwise ? kb : 0,
                                       t_ib));
                int base_b = ((delta - kOwnW) * 64 % 4096 + 4096) % 4096;
                pb.setByte(kBias, base_b);
                if (!pool) {
                    pb.setRow(kWtB, tap_base);
                    pb.setByte(kWtB, 0);
                }
                pb.emit(window(kBias, kWtB, Pred::NotP0));
            }

            pb.emit(requantStore(
                lo.baseRow + lo.rowOf(yo + lo.padTop, kb, t_o),
                p.rqIndex));
        }
    }

    emitTileStartRepair(pb, lo, p.masks, -delta);
    if (p.patchOutput)
        emitEdgePatch(pb, lo, p.masks);
}

} // namespace

void
emitConv(ProgramBuilder &pb, const ConvKernel &p)
{
    fatal_if(!windowSupported(p), "unsupported %dx%d window (stride %d/%d)",
             p.kh, p.kw, p.strideH, p.strideW);
    const ConvPlan plan = planConv(p);
    fatal_if(!(plan.out == p.out),
             "a %dx%d window writes other rows than its plan", p.kh, p.kw);
    switch (plan.form) {
      case ConvForm::Stem: emitStemConv(pb, p); break;
      case ConvForm::Staged: emitConvStaged(pb, p); break;
      case ConvForm::Dense: emitConvDense(pb, p); break;
      case ConvForm::Rows: emitConvRows(pb, p); break;
    }
}


void
emitAdd(ProgramBuilder &pb, const AddKernel &p)
{
    fatal_if(p.a.rows() != p.out.rows() || p.b.rows() != p.out.rows(),
             "add kernel needs identical layouts");
    fatal_if(p.ka < 1 || p.ka > 127 || p.kb < 1 || p.kb > 127,
             "add plan coefficients out of u8 range");

    pb.splat(2, uint8_t(p.ka));
    pb.splat(3, uint8_t(p.kb));
    pb.setRow(kDataA, p.a.baseRow);
    pb.setInc(kDataA, 1, 0);
    pb.setRow(kBias, p.b.baseRow);
    pb.setInc(kBias, 1, 0);
    pb.setRow(kOutReg, p.out.baseRow);
    pb.setInc(kOutReg, 1, 0);

    const int rows = p.out.rows();
    for (int r = 0; r < rows; ++r) {
        pb.emit(accZero());

        Instruction ma;
        ma.ctrl.op = CtrlOp::SetZeroOff;
        ma.ctrl.imm = uint32_t(p.zeroA) << 8;
        ma.dataRead.enable = true;
        ma.dataRead.reg = kDataA;
        ma.dataRead.postInc = true;
        ma.npu.op = NpuOp::Mac;
        ma.npu.type = LaneType::U8;
        ma.npu.a = RowSrc::DataRead;
        ma.npu.b = RowSrc::N2;
        ma.npu.zeroOff = true;
        pb.emit(ma);

        Instruction mb = ma;
        mb.ctrl.imm = uint32_t(p.zeroB) << 8;
        mb.dataRead.reg = kBias;
        mb.npu.b = RowSrc::N3;
        pb.emit(mb);

        Instruction st;
        st.out.op = OutOp::Requant8;
        st.out.rqIndex = uint8_t(p.rqIndex);
        st.write.enable = true;
        st.write.addrReg = kOutReg;
        st.write.postInc = true;
        st.write.src = RowSrc::OutLo;
        pb.emit(st);
    }
}

bool
fcSplitExact(int64_t cin, int64_t max_abs_bias)
{
    return max_abs_bias + cin * (255 * 255) <= INT32_MAX;
}

void
emitFc(ProgramBuilder &pb, const FcKernel &p)
{
    const int depth = fcSplitDepth(p.cin);
    const int drows = fcScratchRows(p.cin);
    const int ncb_in = p.in.cblocks();
    const int ncb_out = p.out.cblocks();
    const int quarter_groups = kRowPos / 4;
    fatal_if(p.in.h != 1 || p.in.w != 1 || p.out.h != 1 ||
                 p.out.w != 1 || p.in.packed() || p.out.packed(),
             "K-split FCs read and write 1x1 interleaved vectors");
    fatal_if(p.scratchBase < 0, "K-split FC needs a replication scratch");

    // Replicate: scratch row r, quarter q = input channel block
    // q*drows + r (group 0 of its row) in all 16 of the quarter's lane
    // groups. Blocks past cin stay stale: their weights are the zero
    // point.
    pb.setByte(kPatchB, 0);
    for (int q = 0; q < 4; ++q) {
        pb.loadMask(kMask, p.masks.rowFor(q * quarter_groups), 0);
        pb.loadMask(kMask, p.masks.rowFor((q + 1) * quarter_groups), 1);
        for (int r = 0; r < drows && q * drows + r < ncb_in; ++r) {
            Instruction i1;
            i1.ctrl.op = CtrlOp::SetAddrRow;
            i1.ctrl.reg = kPatchA;
            i1.ctrl.imm =
                uint32_t(p.in.baseRow + p.in.rowOf(0, q * drows + r, 0));
            i1.dataRead.enable = true;
            i1.dataRead.reg = kPatchA;
            i1.ndu0.op = NduOp::WindowGather;
            i1.ndu0.srcA = RowSrc::DataRead;
            i1.ndu0.dst = 0;
            i1.ndu0.addrReg = kPatchB;
            i1.ndu0.param = uint8_t(NduStride::S0);
            pb.emit(i1);

            Instruction i2;
            i2.ctrl.op = CtrlOp::SetAddrRow;
            i2.ctrl.reg = kOutReg;
            i2.ctrl.imm = uint32_t(p.scratchBase + r);
            i2.dataRead.enable = true;
            i2.dataRead.reg = kOutReg;
            i2.ndu0.op = NduOp::MergeMask;
            i2.ndu0.srcA = RowSrc::N0;
            i2.ndu0.srcB = RowSrc::DataRead;
            i2.ndu0.dst = 1;
            i2.ndu0.param = 1; // P1: below the quarter's end.
            i2.ndu1.op = NduOp::MergeMask;
            i2.ndu1.srcA = RowSrc::DataRead;
            i2.ndu1.srcB = RowSrc::N1;
            i2.ndu1.dst = 2;
            i2.ndu1.param = 0; // P0: below the quarter's start.
            i2.write.enable = true;
            i2.write.addrReg = kOutReg;
            i2.write.src = RowSrc::N2;
            pb.emit(i2);
        }
    }

    pb.setZeroOff(p.dataZero, p.weightZero);
    pb.setInc(kDataA, 1, 1);
    pb.setWrap(kDataA, 64);
    pb.setInc(kWtA, 1, 0);
    pb.setInc(kPatchB, 0, 64);
    pb.setWrap(kPatchB, 0);

    const int chunks = (p.cout + kFcChunk - 1) / kFcChunk;
    for (int ch = 0; ch < chunks; ++ch) {
        const int bias_row = p.weightBase + ch * (1 + depth);
        pb.emit(accZero());
        Instruction bi = biasLoad(bias_row);
        bi.npu.b = RowSrc(uint8_t(BiasMode::Quarter0));
        pb.emit(bi);

        // Step k: every lane group of quarter q broadcasts channel k%64
        // of its replicated block; the weight row is used as is.
        pb.setRow(kDataA, p.scratchBase);
        pb.setByte(kDataA, 0);
        pb.setRow(kWtA, bias_row + 1);
        Instruction mac;
        mac.ctrl.op = CtrlOp::Rep;
        mac.ctrl.imm = uint32_t(depth);
        mac.dataRead.enable = true;
        mac.dataRead.reg = kDataA;
        mac.weightRead.enable = true;
        mac.weightRead.reg = kWtA;
        mac.weightRead.postInc = true;
        mac.ndu0.op = NduOp::GroupBcast;
        mac.ndu0.srcA = RowSrc::DataRead;
        mac.ndu0.dst = 0;
        mac.ndu0.addrReg = kDataA;
        mac.ndu0.addrInc = true;
        mac.ndu0.param = uint8_t(NduStride::S64);
        mac.npu.op = NpuOp::Mac;
        mac.npu.type = LaneType::U8;
        mac.npu.a = RowSrc::N0;
        mac.npu.b = RowSrc::WeightRead;
        mac.npu.zeroOff = true;
        pb.emit(mac);

        // Two-step fold: quarters 0 += 2 and 1 += 3, then 0 += 1. The
        // NPU adds the OUT row CopyAcc32 produced one instruction
        // earlier, while OUT copies the next quarter (NPU before OUT).
        auto fold = [&](int add_into, OutOp next, int next_param) {
            Instruction f;
            if (add_into >= 0) {
                f.npu.op = NpuOp::AccLoadBias;
                f.npu.a = RowSrc::OutLo;
                f.npu.b = RowSrc(
                    uint8_t(int(BiasMode::AddQuarter0) + add_into));
            }
            f.out.op = next;
            f.out.param = uint8_t(next_param);
            f.out.rqIndex = uint8_t(p.rqIndex);
            pb.emit(f);
        };
        fold(-1, OutOp::CopyAcc32, 2);
        fold(0, OutOp::CopyAcc32, 3);
        fold(1, OutOp::CopyAcc32, 1);
        fold(0, OutOp::Requant8, 0);

        // Scatter: output block cb takes lanes cb*64.. of the chunk.
        pb.setByte(kPatchB, 0);
        for (int i = 0; i < kFcChunk / kCBlock; ++i) {
            const int cb = ch * (kFcChunk / kCBlock) + i;
            if (cb >= ncb_out)
                break;
            Instruction sc;
            sc.ctrl.op = CtrlOp::SetAddrRow;
            sc.ctrl.reg = kOutReg;
            sc.ctrl.imm = uint32_t(p.out.baseRow + p.out.rowOf(0, cb, 0));
            sc.ndu0.op = NduOp::WindowGather;
            sc.ndu0.srcA = RowSrc::OutLo;
            sc.ndu0.dst = 0;
            sc.ndu0.addrReg = kPatchB;
            sc.ndu0.addrInc = true;
            sc.ndu0.param = uint8_t(NduStride::S64);
            sc.write.enable = true;
            sc.write.addrReg = kOutReg;
            sc.write.src = RowSrc::N0;
            pb.emit(sc);
        }
    }

    emitEdgePatch(pb, p.out, p.masks);
}

void
emitMatmulBf16(ProgramBuilder &pb, const MatmulBf16Kernel &p)
{
    pb.setInc(kDataA, 2, 1);
    pb.setWrap(kDataA, 4096);
    pb.setInc(kWtA, 2, 0);

    const int chunks = (p.n + 4095) / 4096;
    fatal_if(chunks > 1 && !(p.firstSegment && p.lastSegment),
             "k-segmented matmuls support a single 4096-wide n chunk");
    for (int ch = 0; ch < chunks; ++ch) {
        if (p.firstSegment) {
            pb.emit(accZero());
        }

        pb.setRow(kDataA,
                  p.in.baseRow + 2 * (p.inElemOffset / 4096));
        pb.setByte(kDataA, p.inElemOffset % 4096);
        pb.setRow(kWtA, p.weightBase + ch * 2 * p.k);

        Instruction mac;
        mac.ctrl.op = CtrlOp::Rep;
        mac.ctrl.imm = uint32_t(p.k);
        mac.dataRead.enable = true;
        mac.dataRead.reg = kDataA;
        mac.weightRead.enable = true;
        mac.weightRead.reg = kWtA;
        mac.weightRead.postInc = true;
        mac.ndu0.op = NduOp::GroupBcast;
        mac.ndu0.srcA = RowSrc::DataRead;
        mac.ndu0.dst = 0;
        mac.ndu0.addrReg = kDataA;
        mac.ndu0.param = uint8_t(NduStride::S0);
        mac.ndu1.op = NduOp::GroupBcast;
        mac.ndu1.srcA = RowSrc::DataReadHi;
        mac.ndu1.dst = 1;
        mac.ndu1.addrReg = kDataA;
        mac.ndu1.addrInc = true; // One bump for the shared register.
        mac.ndu1.param = uint8_t(NduStride::S0);
        mac.npu.op = NpuOp::Mac;
        mac.npu.type = LaneType::BF16;
        mac.npu.a = RowSrc::N0; // Pair (N0, N1).
        mac.npu.b = RowSrc::WeightRead;
        pb.emit(mac);

        if (!p.lastSegment)
            continue;

        Instruction stb;
        stb.ctrl.op = CtrlOp::SetAddrRow;
        stb.ctrl.reg = kOutReg;
        stb.ctrl.imm = uint32_t(p.out.baseRow + 2 * ch);
        stb.out.op = OutOp::StoreBf16;
        stb.write.enable = true;
        stb.write.addrReg = kOutReg;
        stb.write.src = RowSrc::OutLo;
        pb.emit(stb);

        Instruction sth;
        sth.ctrl.op = CtrlOp::SetAddrRow;
        sth.ctrl.reg = kOutReg;
        sth.ctrl.imm = uint32_t(p.out.baseRow + 2 * ch + 1);
        sth.write.enable = true;
        sth.write.addrReg = kOutReg;
        sth.write.src = RowSrc::OutHi;
        pb.emit(sth);
    }
}

} // namespace ncore
