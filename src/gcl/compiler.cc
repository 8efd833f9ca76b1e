#include "compiler.h"

#include <algorithm>
#include <map>

#include "gcl/passes.h"

namespace ncore {

namespace {

constexpr int kMaskRows = MaskTable::kRows;
constexpr int kDataRamRows = 2048;
constexpr int kWeightRamRows = 2048;

bool
isQuantU8(const Graph &g, TensorId id)
{
    return g.tensor(id).dtype == DType::UInt8;
}

/** Weighted (MAC) node kinds that own a weight image. */
bool
hasWeights(OpKind k)
{
    return k == OpKind::Conv2D || k == OpKind::DepthwiseConv2D ||
           k == OpKind::FullyConnected;
}

/** NPU op of an emitConv window: Mac for convs, Max or Add for max and
 *  average pools, None for every other kind. */
NpuOp
windowOp(OpKind k)
{
    switch (k) {
      case OpKind::Conv2D:
      case OpKind::DepthwiseConv2D: return NpuOp::Mac;
      case OpKind::MaxPool2D: return NpuOp::Max;
      case OpKind::AvgPool2D: return NpuOp::Add;
      default: return NpuOp::None;
    }
}

/** The window of a conv or pool node, layouts aside. A pool is a
 *  depthwise window with no weights. */
ConvKernel
windowOf(const Graph &g, const Node &n)
{
    ConvKernel p;
    p.op = windowOp(n.kind);
    if (p.op == NpuOp::Mac) {
        const Shape &w = g.tensor(n.inputs[1]).shape;
        p.kh = int(w.dim(1));
        p.kw = int(w.dim(2));
    } else {
        p.kh = n.attrs.kernelH;
        p.kw = n.attrs.kernelW;
    }
    p.strideH = n.attrs.strideH;
    p.strideW = n.attrs.strideW;
    p.padTop = n.attrs.padTop;
    p.padLeft = n.attrs.padLeft;
    p.cin = int(g.tensor(n.inputs[0]).shape.dim(3));
    p.cout = int(g.tensor(n.outputs[0]).shape.dim(3));
    p.depthwise = n.kind == OpKind::DepthwiseConv2D || p.op != NpuOp::Mac;
    return p;
}

// -------------------------------------------------------------------
// Scratchpad row allocator (first fit with coalescing free list)
// -------------------------------------------------------------------

class RowAllocator
{
  public:
    RowAllocator(int begin, int end) { free_[begin] = end - begin; }

    int
    allocate(int rows)
    {
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (it->second >= rows) {
                int base = it->first;
                int remaining = it->second - rows;
                free_.erase(it);
                if (remaining > 0)
                    free_[base + rows] = remaining;
                peak_ = std::max(peak_, used_ += rows);
                return base;
            }
        }
        return -1;
    }

    void
    release(int base, int rows)
    {
        used_ -= rows;
        auto next = free_.upper_bound(base);
        // Merge with the previous range when adjacent.
        if (next != free_.begin()) {
            auto prev = std::prev(next);
            if (prev->first + prev->second == base) {
                base = prev->first;
                rows += prev->second;
                free_.erase(prev);
            }
        }
        if (next != free_.end() && base + rows == next->first) {
            rows += next->second;
            free_.erase(next);
        }
        free_[base] = rows;
    }

    int peak() const { return peak_; }

  private:
    std::map<int, int> free_; // base -> length
    int used_ = 0;
    int peak_ = 0;
};

// -------------------------------------------------------------------
// Pad requirement propagation
// -------------------------------------------------------------------

struct Pads
{
    int t = 0, b = 0, l = 0, r = 0;

    void
    maxWith(const Pads &o)
    {
        t = std::max(t, o.t);
        b = std::max(b, o.b);
        l = std::max(l, o.l);
        r = std::max(r, o.r);
    }

    bool operator==(const Pads &) const = default;
};

/**
 * Requirements a consumer node places on its spatial input. Only the
 * node's own convolution padding is materialized: downstream layout
 * padding of the consumer's *output* shifts gathers by a small
 * negative delta, which emitConv repairs (see there). Propagating
 * downstream pads through strides would grow them geometrically along
 * stride-2 chains.
 */
Pads
inputPadsFor(const Node &n, const Pads &out_pads)
{
    Pads p;
    switch (n.kind) {
      case OpKind::Conv2D:
      case OpKind::DepthwiseConv2D:
      case OpKind::MaxPool2D:
      case OpKind::AvgPool2D:
        p.t = n.attrs.padTop;
        p.b = n.attrs.padBottom;
        p.l = n.attrs.padLeft;
        p.r = n.attrs.padRight;
        break;
      case OpKind::Add:
        p = out_pads; // Lane-aligned op.
        break;
      default:
        break; // FC / Reshape: no spatial requirement.
    }
    return p;
}

} // namespace

bool
ncoreSupports(const Graph &g, const Node &n)
{
    switch (n.kind) {
      case OpKind::Conv2D:
      case OpKind::DepthwiseConv2D:
        return isQuantU8(g, n.inputs[0]) && isQuantU8(g, n.outputs[0]) &&
               n.attrs.fusedAct != ActFn::Sigmoid &&
               n.attrs.fusedAct != ActFn::Tanh &&
               windowSupported(windowOf(g, n));
      case OpKind::FullyConnected: {
        // Lowered as a K-split matvec over one input vector, which may
        // reorder the sum only while no partial sum can saturate.
        const Shape &in = g.tensor(n.inputs[0]).shape;
        int64_t max_abs = 0;
        if (n.inputs.size() > 2) {
            const Tensor &b = g.tensor(n.inputs[2]).value;
            for (int64_t i = 0; i < b.numElements(); ++i)
                max_abs = std::max(max_abs, std::abs(int64_t(b.intAt(i))));
        }
        return isQuantU8(g, n.inputs[0]) &&
               in.numElements() == in.dim(in.rank() - 1) &&
               fcSplitExact(g.tensor(n.inputs[1]).shape.dim(1), max_abs);
      }
      case OpKind::Add:
        return isQuantU8(g, n.inputs[0]) && isQuantU8(g, n.inputs[1]);
      case OpKind::MaxPool2D:
        return isQuantU8(g, n.inputs[0]) && windowSupported(windowOf(g, n));
      case OpKind::AvgPool2D:
        // The requant divides by the full window; padded average
        // pools would need per-position counts.
        return isQuantU8(g, n.inputs[0]) && n.attrs.padTop == 0 &&
               n.attrs.padLeft == 0 && windowSupported(windowOf(g, n));
      case OpKind::Reshape: {
        // Pure aliasing between vector-like shapes.
        const Shape &in = g.tensor(n.inputs[0]).shape;
        const Shape &out = g.tensor(n.outputs[0]).shape;
        auto vector_like = [](const Shape &s) {
            return s.rank() == 2 ||
                   (s.rank() == 4 && s.dim(1) == 1 && s.dim(2) == 1);
        };
        return isQuantU8(g, n.inputs[0]) && vector_like(in) &&
               vector_like(out);
      }
      default:
        return false;
    }
}

namespace {

// -------------------------------------------------------------------
// Subgraph compilation
// -------------------------------------------------------------------

class SubgraphCompiler
{
  public:
    SubgraphCompiler(const Graph &g, const std::vector<int> &node_ids,
                     const CompileOptions &opts)
        : g_(g), nodeIds_(node_ids), opts_(opts)
    {}

    CompiledSubgraph
    run()
    {
        sg_.nodeIds = nodeIds_;
        sg_.masks.baseRow = 0;
        collectBoundary();
        resolveAliases();
        assignPads();
        buildLayouts();
        planStem();
        planDense();
        planRelayouts();
        syncStemWithOutput();
        planDataRam();
        planWeights();
        generate();
        return std::move(sg_);
    }

  private:
    const Node &node(int id) const { return g_.nodes()[size_t(id)]; }

    bool
    inSubgraph(int node_id) const
    {
        return std::find(nodeIds_.begin(), nodeIds_.end(), node_id) !=
               nodeIds_.end();
    }

    void
    collectBoundary()
    {
        std::vector<bool> produced(size_t(g_.numTensors()), false);
        for (int id : nodeIds_)
            for (TensorId out : node(id).outputs)
                produced[size_t(out)] = true;

        std::vector<bool> seen_in(size_t(g_.numTensors()), false);
        for (int id : nodeIds_)
            for (TensorId in : node(id).inputs) {
                const GirTensor &t = g_.tensor(in);
                if (t.isConst || produced[size_t(in)] ||
                    seen_in[size_t(in)])
                    continue;
                seen_in[size_t(in)] = true;
                sg_.inputs.push_back(in);
            }

        // Outputs: produced here and consumed outside (or graph output).
        for (int id : nodeIds_)
            for (TensorId out : node(id).outputs) {
                bool external =
                    std::find(g_.outputs().begin(), g_.outputs().end(),
                              out) != g_.outputs().end();
                for (size_t ni = 0; ni < g_.nodes().size() && !external;
                     ++ni) {
                    if (inSubgraph(int(ni)))
                        continue;
                    for (TensorId in : g_.nodes()[ni].inputs)
                        if (in == out)
                            external = true;
                }
                if (external)
                    sg_.outputs.push_back(out);
            }
    }

    /** Union-find for Reshape aliasing. */
    void
    resolveAliases()
    {
        for (int id : nodeIds_) {
            const Node &n = node(id);
            if (n.kind == OpKind::Reshape)
                aliasOf_[n.outputs[0]] = canonical(n.inputs[0]);
        }
    }

    TensorId
    canonical(TensorId id) const
    {
        auto it = aliasOf_.find(id);
        while (it != aliasOf_.end()) {
            id = it->second;
            it = aliasOf_.find(id);
        }
        return id;
    }

    void
    assignPads()
    {
        // Fixpoint over consumer requirements + Add equalization.
        for (int iter = 0; iter < 10; ++iter) {
            bool changed = false;
            for (auto rit = nodeIds_.rbegin(); rit != nodeIds_.rend();
                 ++rit) {
                const Node &n = node(*rit);
                Pads out_pads = pads_[canonical(n.outputs[0])];
                for (TensorId in : n.inputs) {
                    if (g_.tensor(in).isConst)
                        continue;
                    Pads req = inputPadsFor(n, out_pads);
                    Pads &cur = pads_[canonical(in)];
                    Pads merged = cur;
                    merged.maxWith(req);
                    if (!(merged == cur)) {
                        cur = merged;
                        changed = true;
                    }
                }
                if (n.kind == OpKind::Add) {
                    // All three tensors must share one geometry.
                    Pads m = pads_[canonical(n.outputs[0])];
                    m.maxWith(pads_[canonical(n.inputs[0])]);
                    m.maxWith(pads_[canonical(n.inputs[1])]);
                    for (TensorId t : {n.outputs[0], n.inputs[0],
                                       n.inputs[1]}) {
                        Pads &cur = pads_[canonical(t)];
                        if (!(cur == m)) {
                            cur = m;
                            changed = true;
                        }
                    }
                }
            }
            if (!changed)
                return;
        }
        fatal("layout pad propagation did not converge");
    }

    void
    buildLayouts()
    {
        auto make_layout = [&](TensorId id) {
            TensorId c = canonical(id);
            if (layouts_.count(c))
                return;
            const GirTensor &t = g_.tensor(c);
            Pads p = pads_[c];
            TensorLayout lay;
            if (t.shape.rank() != 4) {
                // Vectors (FC outputs, rank-2 inputs) are 1x1
                // interleaved tensors, the K-split FC's input and
                // output.
                lay = interleavedLayout(
                    Shape{1, 1, 1, t.shape.numElements()}, 0, 0, 0, 0,
                    uint8_t(t.quant.zeroPoint));
            } else {
                // Tensors that fit a single x-tile without pads keep
                // them unmaterialized: edge gathers wrap into the
                // zero-stamped tail (see emitConv), saving a whole
                // tile on 56-wide stages.
                int pl = p.l, pr = p.r;
                if (t.shape.dim(2) + p.l + p.r > kOwnW &&
                    t.shape.dim(2) <= 56 && p.l <= 1 && p.r <= 1) {
                    pl = 0;
                    pr = 0;
                }
                lay = interleavedLayout(t.shape, p.t, p.b, pl, pr,
                                        uint8_t(t.quant.zeroPoint));
            }
            layouts_[c] = lay;
        };

        for (int id : nodeIds_) {
            const Node &n = node(id);
            for (TensorId in : n.inputs)
                if (!g_.tensor(in).isConst)
                    make_layout(in);
            for (TensorId out : n.outputs)
                make_layout(out);
        }
    }

    /**
     * Small-channel network inputs consumed by a single stem
     * convolution use the GroupedRf layout where planConv runs the
     * stem over it (C * kw <= 64 bytes): each lane
     * group holds its output position's packed receptive-field row,
     * so the stem runs dense kh*kw*cin-tap loops instead of wasting
     * 64-channel groups on a 3-channel image (the NKL's hand-tuned
     * stem kernels, paper V-B).
     */
    void
    planStem()
    {
        if (nodeIds_.empty())
            return;
        const Node &first = node(nodeIds_[0]);
        if (first.kind != OpKind::Conv2D)
            return;
        TensorId in = canonical(first.inputs[0]);
        if (std::find(sg_.inputs.begin(), sg_.inputs.end(), in) ==
            sg_.inputs.end())
            return;
        for (size_t pos = 1; pos < nodeIds_.size(); ++pos)
            for (TensorId t : node(nodeIds_[pos]).inputs)
                if (canonical(t) == in)
                    return; // Not the sole consumer.

        ConvKernel p = convGeometry(first, nodeIds_[0]);
        p.in = interleavedLayout(g_.tensor(in).shape, first.attrs.padTop,
                                 first.attrs.padBottom, first.attrs.padLeft,
                                 first.attrs.padRight, p.in.zeroByte);
        p.in.kind = LayoutKind::GroupedRf;
        p.in.rfStride = p.strideW;
        p.in.rfKw = p.kw;
        p.in.rfOutTiles = p.out.xtiles();
        p.in.rfOutPadL = p.out.padLeft;
        if (planConv(p).form != ConvForm::Stem)
            return;
        layouts_[in] = p.in;
        stemNodeId_ = nodeIds_[0];
        stemInput_ = in;
    }

    /**
     * The dense pass may replace the stem's output layout (or stage it
     * through a relayout temp); the GroupedRf geometry must track the
     * layout the stem actually writes.
     */
    void
    syncStemWithOutput()
    {
        if (stemNodeId_ < 0)
            return;
        const Node &first = node(stemNodeId_);
        const TensorLayout &target =
            outLayoutFor(stemNodeId_, first.outputs[0]);
        TensorLayout &rf = layouts_.at(stemInput_);
        rf.rfOutTiles = target.xtiles();
        rf.rfOutPadL = target.padLeft;
    }

    /**
     * An add reads a and b in one layout: drop the dense choice from
     * both inputs where either lacks it (fixpoint).
     */
    void
    equalizeAdds(std::unordered_map<TensorId, bool> &want) const
    {
        for (int iter = 0; iter < 8; ++iter) {
            bool changed = false;
            for (int id : nodeIds_) {
                const Node &n = node(id);
                if (n.kind != OpKind::Add)
                    continue;
                const TensorId a = canonical(n.inputs[0]);
                const TensorId b = canonical(n.inputs[1]);
                if (want[a] != want[b]) {
                    want[a] = want[b] = false;
                    changed = true;
                }
            }
            if (!changed)
                break;
        }
    }

    /** In-subgraph consumers of `c` that pass `allows(node, id)`, or -1
     *  when any consumer does not. */
    template <typename F>
    int
    consumersAllowing(TensorId c, F &&allows)
    {
        int count = 0;
        for (int id : nodeIds_) {
            const Node &n = node(id);
            for (TensorId in : n.inputs)
                if (canonical(in) == c) {
                    if (!allows(n, id))
                        return -1;
                    ++count;
                }
        }
        return count;
    }

    /**
     * Dense rows for small-width tensors (w <= 14, paper IV-E: fill the
     * 4096 lanes when W alone cannot): a tensor read only by adds and
     * by convs that planConv runs dense or staged over dense rows
     * needs no pads or halos, so its h*w positions pack 64 per
     * row, never more rows than any other layout takes. Wider tensors
     * keep plain rows, which keeps SSD's Ncore time and Fig. 13
     * saturation at the paper's (DESIGN.md section 2). An add's inputs
     * equalize; a tensor with no consumer in the subgraph is left to
     * planRelayouts.
     */
    void
    planDense()
    {
        std::unordered_map<TensorId, bool> want;
        for (auto &kv : layouts_) {
            TensorId c = kv.first;
            const TensorLayout &lay = kv.second;
            if (lay.kind != LayoutKind::Interleaved ||
                g_.tensor(c).shape.rank() != 4 || lay.w < 2 ||
                !yPackable(lay.w))
                continue;
            const TensorLayout dense =
                denseLayout(g_.tensor(c).shape, lay.zeroByte);
            // Subgraph outputs the host alone reads gain nothing.
            if (consumersAllowing(c, [&](const Node &n, int id) {
                    if (n.kind == OpKind::Add)
                        return true;
                    if (canonical(n.inputs[0]) != c ||
                        windowOp(n.kind) == NpuOp::None)
                        return false;
                    ConvKernel p = convGeometry(n, id);
                    p.in = dense;
                    const ConvForm f = planConv(p).form;
                    return f == ConvForm::Dense || f == ConvForm::Staged;
                }) > 0)
                want[c] = true;
        }
        equalizeAdds(want);
        for (auto &kv : want)
            if (kv.second)
                layouts_[kv.first] = denseLayout(
                    g_.tensor(kv.first).shape, layouts_[kv.first].zeroByte);
    }

    /**
     * Producers that cannot write their output's layout emit into a
     * staging temp, and an on-chip relayout moves the rows into place.
     * Windows write the rows planConv picks, adds their inputs' layout,
     * and FCs their 1x1 output. A tensor only the host reads takes the
     * layout its producer writes.
     */
    void
    planRelayouts()
    {
        for (int id : nodeIds_) {
            const Node &n = node(id);
            if (n.kind == OpKind::Reshape)
                continue;
            TensorId c = canonical(n.outputs[0]);
            TensorLayout writes = layouts_.at(c);
            if (windowOp(n.kind) != NpuOp::None) {
                writes = planConv(convGeometry(n, id)).out;
            } else if (n.kind == OpKind::Add) {
                writes = layouts_.at(canonical(n.inputs[0])); // One geometry.
                writes.zeroByte = uint8_t(g_.tensor(c).quant.zeroPoint);
            }
            if (writes == layouts_.at(c))
                continue;
            if (consumersAllowing(c, [](const Node &, int) {
                    return true;
                }) == 0) {
                layouts_[c] = writes;
                continue;
            }
            relayoutTemp_[id] = writes;
            relayoutTensor_[id] = c;
        }
    }

    void
    planDataRam()
    {
        RowAllocator alloc(kMaskRows, kDataRamRows);

        // Shared scratch regions, each dead once its layer is done:
        // one for relayout temps and one for a layer's own staging
        // (staged conv copies, K-split FC input replicas, the min-code
        // copy of a padded max pool's input; a staged conv or a pool
        // may write a temp as well).
        int temp_rows = 0;
        for (auto &kv : relayoutTemp_)
            temp_rows = std::max(temp_rows, kv.second.rows());
        int staging_rows = 0;
        for (int id : nodeIds_) {
            const Node &n = node(id);
            if (n.kind == OpKind::FullyConnected)
                staging_rows = std::max(
                    staging_rows,
                    fcScratchRows(g_.tensor(n.inputs[1]).shape.dim(1)));
            if (windowOp(n.kind) != NpuOp::None)
                staging_rows = std::max(
                    staging_rows, planConv(convGeometry(n, id)).stagingRows);
        }
        if (temp_rows > 0) {
            const int base = alloc.allocate(temp_rows);
            fatal_if(base < 0, "no room for the relayout temps");
            for (auto &kv : relayoutTemp_)
                kv.second.baseRow = base;
        }
        if (staging_rows > 0) {
            stagingBase_ = alloc.allocate(staging_rows);
            fatal_if(stagingBase_ < 0, "no room for the staging scratch");
        }

        // Death index per canonical tensor.
        std::unordered_map<TensorId, int> death;
        for (size_t pos = 0; pos < nodeIds_.size(); ++pos) {
            const Node &n = node(nodeIds_[pos]);
            for (TensorId in : n.inputs)
                if (!g_.tensor(in).isConst)
                    death[canonical(in)] = int(pos);
        }
        for (TensorId out : sg_.outputs)
            death[canonical(out)] = int(nodeIds_.size());

        auto place = [&](TensorId c) {
            if (baseRow_.count(c))
                return;
            int rows = layouts_[c].rows();
            int base = alloc.allocate(rows);
            fatal_if(base < 0,
                     "data RAM exhausted placing tensor '%s' (%d rows)",
                     g_.tensor(c).name.c_str(), rows);
            baseRow_[c] = base;
            layouts_[c].baseRow = base;
        };

        for (TensorId in : sg_.inputs)
            place(canonical(in));

        for (size_t pos = 0; pos < nodeIds_.size(); ++pos) {
            const Node &n = node(nodeIds_[pos]);
            for (TensorId out : n.outputs)
                place(canonical(out));
            // Release dead tensors.
            for (TensorId in : n.inputs) {
                if (g_.tensor(in).isConst)
                    continue;
                TensorId c = canonical(in);
                auto it = death.find(c);
                if (it != death.end() && it->second == int(pos) &&
                    baseRow_.count(c)) {
                    alloc.release(baseRow_[c], layouts_[c].rows());
                    baseRow_.erase(c);
                }
            }
        }
        sg_.dataRowsUsed = alloc.peak() + kMaskRows;

        for (auto &kv : layouts_)
            sg_.layouts[kv.first] = kv.second;
        // Alias entries resolve to their canonical layout.
        for (auto &kv : aliasOf_)
            sg_.layouts[kv.first] = layouts_[canonical(kv.first)];
    }

    void
    planWeights()
    {
        // Per weighted node: packed image.
        struct Image
        {
            int nodeId;
            std::vector<uint8_t> bytes;
        };
        std::vector<Image> images;

        for (int id : nodeIds_) {
            const Node &n = node(id);
            if (!hasWeights(n.kind))
                continue;
            const GirTensor &w = g_.tensor(n.inputs[1]);
            const Tensor *bias = n.inputs.size() > 2
                                     ? &g_.tensor(n.inputs[2]).value
                                     : nullptr;
            Image img;
            img.nodeId = id;
            const uint8_t wz = uint8_t(w.quant.zeroPoint);
            img.bytes = n.kind == OpKind::FullyConnected
                            ? packFcWeights(w.value, bias, wz)
                            : packWindowWeights(convGeometry(n, id),
                                                w.value, bias, wz);
            images.push_back(std::move(img));
        }

        int64_t total_rows = 0;
        for (const Image &img : images)
            total_rows += int64_t(img.bytes.size() / 4096);

        if (!opts_.forceStreaming && total_rows <= kWeightRamRows) {
            // Promote all weights to persistent on-chip buffers
            // (the paper's MobileNet-V1 case).
            sg_.weightsPersistent = true;
            int base = 0;
            for (const Image &img : images) {
                weightBase_[img.nodeId] = base;
                sg_.persistentWeights.insert(
                    sg_.persistentWeights.end(), img.bytes.begin(),
                    img.bytes.end());
                base += int(img.bytes.size() / 4096);
            }
            sg_.weightRowsUsed = base;
        } else {
            // Stream through one ring over the whole weight RAM,
            // one transfer per image on one FIFO queue. An image sits
            // after the previous one (wrapping to row 0 when it does
            // not fit) and is kicked, in stream order, once every
            // earlier layer whose rows it overwrites has run.
            sg_.weightsPersistent = false;
            uint64_t offset = 0;
            int next_row = 0;
            for (const Image &img : images) {
                int rows = int(img.bytes.size() / 4096);
                fatal_if(rows > kWeightRamRows,
                         "layer weight image (%d rows) exceeds the "
                         "weight ring (%d rows)",
                         rows, kWeightRamRows);
                if (next_row + rows > kWeightRamRows)
                    next_row = 0;
                int after = kickAfter_.empty() ? -1 : kickAfter_.back();
                for (size_t i = 0; i < sg_.chunks.size(); ++i) {
                    const StreamChunk &o = sg_.chunks[i];
                    if (int(o.targetRow) < next_row + rows &&
                        next_row < int(o.targetRow + o.rows))
                        after = std::max(after, int(i));
                }
                kickAfter_.push_back(after);
                StreamChunk ch;
                ch.dramOffset = offset;
                ch.rows = uint32_t(rows);
                ch.targetRow = uint32_t(next_row);
                weightBase_[img.nodeId] = next_row;
                chunkOf_[img.nodeId] = int(sg_.chunks.size());
                sg_.chunks.push_back(ch);
                sg_.streamImage.insert(sg_.streamImage.end(),
                                       img.bytes.begin(),
                                       img.bytes.end());
                offset += uint64_t(rows) * 4096;
                next_row += rows;
                sg_.weightRowsUsed = std::max(sg_.weightRowsUsed, next_row);
            }
        }
    }

    int
    newRqEntry(const RequantEntry &e)
    {
        sg_.rqTable.push_back(e);
        fatal_if(sg_.rqTable.size() > 256, "requant table exhausted");
        return int(sg_.rqTable.size()) - 1;
    }

    const TensorLayout &
    layoutOf(TensorId id) const
    {
        auto it = layouts_.find(canonical(id));
        panic_if(it == layouts_.end(), "tensor %d has no layout", id);
        return it->second;
    }

    /** Layout the node writes its output into: the relayout temp for
     *  producers that cannot write their output's layout directly. */
    const TensorLayout &
    outLayoutFor(int node_id, TensorId out)
    {
        auto it = relayoutTemp_.find(node_id);
        return it != relayoutTemp_.end() ? it->second : layoutOf(out);
    }

    void
    generate()
    {
        ProgramBuilder pb;
        pb.event(CompiledSubgraph::kStartTag);

        // Kick, in stream order, every image that may start once the
        // layer of image `after` has run (-1: at subgraph start).
        int kicked = 0;
        auto kick_after = [&](int after) {
            while (kicked < int(kickAfter_.size()) &&
                   kickAfter_[size_t(kicked)] == after)
                pb.dmaKick(kicked++);
        };
        kick_after(-1);

        for (size_t pos = 0; pos < nodeIds_.size(); ++pos) {
            int id = nodeIds_[pos];
            const Node &n = node(id);

            // Per-layer event-log markers (the Table IX methodology).
            pb.event(uint32_t(id) << 2 | 1);

            // FIFO completion: image k is in once at most the images
            // kicked after it are outstanding.
            if (hasWeights(n.kind) && !sg_.weightsPersistent)
                pb.dmaFence(CompiledSubgraph::kStreamQueue,
                            kicked - 1 - chunkOf_.at(id));

            emitNode(pb, n, id);

            // Producers that wrote a relayout temp: move the rows into
            // the output's layout now.
            auto rit = relayoutTemp_.find(id);
            if (rit != relayoutTemp_.end())
                emitRelayout(pb, rit->second,
                             layoutOf(relayoutTensor_.at(id)), sg_.masks);

            if (hasWeights(n.kind) && !sg_.weightsPersistent)
                kick_after(chunkOf_.at(id));

            pb.event(uint32_t(id) << 2 | 2);
        }

        pb.event(CompiledSubgraph::kEndTag);
        pb.halt();
        sg_.code = pb.encode();
    }

    /** A conv or pool node's window and layouts (no RAM placement
     *  needed). */
    ConvKernel
    convGeometry(const Node &n, int id)
    {
        ConvKernel p = windowOf(g_, n);
        p.in = layoutOf(n.inputs[0]);
        p.out = outLayoutFor(id, n.outputs[0]);
        return p;
    }

    ConvKernel
    makeConvKernel(const Node &n, int id)
    {
        const GirTensor &out_t = g_.tensor(n.outputs[0]);
        const GirTensor &in_t = g_.tensor(n.inputs[0]);
        ConvKernel p = convGeometry(n, id);
        p.patchOutput = !relayoutTemp_.count(id);
        p.stageBase = stagingBase_;
        p.dataZero = uint8_t(in_t.quant.zeroPoint);
        p.masks = sg_.masks;
        RequantEntry e;
        if (p.op == NpuOp::Mac) {
            const GirTensor &w = g_.tensor(n.inputs[1]);
            p.weightBase = weightBase_.at(id);
            p.weightZero = uint8_t(w.quant.zeroPoint);
            e = makeRequantEntry(
                in_t.quant.scale * w.quant.scale / out_t.quant.scale,
                out_t.quant, DType::UInt8, n.attrs.fusedAct);
        } else {
            // Max reduces raw codes; the identity requant passes them
            // through (in/out quantization are equal). Average divides
            // the zero-offset sum by the window.
            e.rq = p.op == NpuOp::Max
                       ? computeRequant(1.0f, 0)
                       : computeRequant(in_t.quant.scale /
                                            (out_t.quant.scale *
                                             float(p.kh * p.kw)),
                                        out_t.quant.zeroPoint);
            e.outType = DType::UInt8;
            e.actMin = 0;
            e.actMax = 255;
        }
        p.rqIndex = newRqEntry(e);
        return p;
    }

    void
    emitNode(ProgramBuilder &pb, const Node &n, int id)
    {
        const GirTensor &out_t = g_.tensor(n.outputs[0]);
        const GirTensor &in_t = g_.tensor(n.inputs[0]);

        switch (n.kind) {
          case OpKind::Conv2D:
          case OpKind::DepthwiseConv2D:
          case OpKind::MaxPool2D:
          case OpKind::AvgPool2D:
            emitConv(pb, makeConvKernel(n, id));
            break;
          case OpKind::FullyConnected: {
            const GirTensor &w = g_.tensor(n.inputs[1]);
            float m = in_t.quant.scale * w.quant.scale /
                      out_t.quant.scale;
            FcKernel p;
            p.in = layoutOf(n.inputs[0]);
            p.out = layoutOf(n.outputs[0]);
            p.cin = int(w.shape.dim(1));
            p.cout = int(w.shape.dim(0));
            p.weightBase = weightBase_.at(id);
            p.rqIndex = newRqEntry(makeRequantEntry(
                m, out_t.quant, DType::UInt8, n.attrs.fusedAct));
            p.dataZero = uint8_t(in_t.quant.zeroPoint);
            p.weightZero = uint8_t(w.quant.zeroPoint);
            p.masks = sg_.masks;
            p.scratchBase = stagingBase_;
            emitFc(pb, p);
            break;
          }
          case OpKind::Add: {
            const GirTensor &b_t = g_.tensor(n.inputs[1]);
            AddQuantPlan plan =
                makeAddPlan(in_t.quant, b_t.quant, out_t.quant,
                            DType::UInt8, n.attrs.fusedAct);
            AddKernel p;
            p.a = layoutOf(n.inputs[0]);
            p.b = layoutOf(n.inputs[1]);
            p.out = outLayoutFor(id, n.outputs[0]);
            p.ka = plan.ka;
            p.kb = plan.kb;
            p.zeroA = uint8_t(in_t.quant.zeroPoint);
            p.zeroB = uint8_t(b_t.quant.zeroPoint);
            p.rqIndex = newRqEntry(plan.entry);
            emitAdd(pb, p);
            break;
          }
          case OpKind::Reshape:
            break; // Pure alias.
          default:
            panic("codegen for unsupported node %s",
                  opKindName(n.kind));
        }
    }

    const Graph &g_;
    std::vector<int> nodeIds_;
    CompileOptions opts_;
    CompiledSubgraph sg_;

    std::unordered_map<TensorId, TensorId> aliasOf_;
    std::unordered_map<TensorId, Pads> pads_;
    std::unordered_map<TensorId, TensorLayout> layouts_;
    std::unordered_map<TensorId, int> baseRow_;
    std::unordered_map<int, int> weightBase_;
    std::unordered_map<int, int> chunkOf_;
    /// Per stream chunk: the chunk whose layer must run before it is
    /// kicked (-1: kicked at subgraph start). Non-decreasing.
    std::vector<int> kickAfter_;

    int stemNodeId_ = -1;
    TensorId stemInput_ = kNoTensor;

    std::unordered_map<int, TensorLayout> relayoutTemp_;
    std::unordered_map<int, TensorId> relayoutTensor_;
    /// Staged copies, FC input replicas and min-code pool copies.
    int stagingBase_ = -1;
};

} // namespace

Loadable
compile(Graph g, const CompileOptions &opts)
{
    runStandardPasses(g);

    Loadable ld;
    ld.nodeAssignment.assign(g.nodes().size(), -1);

    // Maximal contiguous runs of supported nodes (the builders emit
    // nodes topologically, so contiguity tracks connectivity for our
    // model family, as the TFLite delegate partitioning does).
    std::vector<std::vector<int>> runs;
    std::vector<int> current;
    for (size_t i = 0; i < g.nodes().size(); ++i) {
        if (ncoreSupports(g, g.nodes()[i])) {
            current.push_back(int(i));
        } else if (!current.empty()) {
            runs.push_back(std::move(current));
            current.clear();
        }
    }
    if (!current.empty())
        runs.push_back(std::move(current));

    // Skip runs with no MAC work (a lone reshape is not worth a
    // delegate round trip).
    for (auto &run : runs) {
        bool has_mac = false;
        for (int id : run) {
            const Node &n = g.nodes()[size_t(id)];
            has_mac |= Graph::nodeMacs(g, n) > 0 ||
                       windowOp(n.kind) != NpuOp::None;
        }
        if (!has_mac)
            continue;
        SubgraphCompiler sc(g, run, opts);
        CompiledSubgraph sg = sc.run();
        int idx = int(ld.subgraphs.size());
        for (int id : run)
            ld.nodeAssignment[size_t(id)] = idx;
        ld.subgraphs.push_back(std::move(sg));
    }

    ld.graph = std::move(g);
    return ld;
}

} // namespace ncore
