#include "reference.h"

#include <algorithm>
#include <cmath>

#include "common/lut.h"

namespace ncore {

namespace {

bool
isQuant8(DType t)
{
    return t == DType::UInt8 || t == DType::Int8;
}

/** Conv-family accumulation over one output element (quantized). */
struct ConvGeom
{
    int64_t in_h, in_w, in_c;
    int64_t out_h, out_w, out_c;
    int64_t k_h, k_w;
    int stride_h, stride_w, pad_top, pad_left;
};

ConvGeom
geomOf(const Graph &g, const Node &n)
{
    const Shape &in = g.tensor(n.inputs[0]).shape;
    const Shape &w = g.tensor(n.inputs[1]).shape;
    const Shape &out = g.tensor(n.outputs[0]).shape;
    ConvGeom geo;
    geo.in_h = in.dim(1);
    geo.in_w = in.dim(2);
    geo.in_c = in.dim(3);
    geo.out_h = out.dim(1);
    geo.out_w = out.dim(2);
    geo.out_c = out.dim(3);
    geo.k_h = w.dim(1);
    geo.k_w = w.dim(2);
    geo.stride_h = n.attrs.strideH;
    geo.stride_w = n.attrs.strideW;
    geo.pad_top = n.attrs.padTop;
    geo.pad_left = n.attrs.padLeft;
    return geo;
}

Tensor
makeOutput(const Graph &g, const Node &n)
{
    const GirTensor &desc = g.tensor(n.outputs[0]);
    return Tensor(desc.shape, desc.dtype, desc.quant);
}

Tensor
execConv(const Graph &g, const Node &n,
         const std::vector<const Tensor *> &ins, bool depthwise)
{
    const Tensor &x = *ins[0];
    const Tensor &w = *ins[1];
    const Tensor *bias = ins.size() > 2 ? ins[2] : nullptr;
    Tensor out = makeOutput(g, n);
    ConvGeom geo = geomOf(g, n);
    const int64_t batch = x.shape().dim(0);

    if (isQuant8(x.dtype())) {
        fatal_if(x.dtype() != DType::UInt8 || w.dtype() != DType::UInt8,
                 "%s: quantized conv reference supports uint8",
                 n.name.c_str());
        const int32_t zin = x.quant().zeroPoint;
        const int32_t zw = w.quant().zeroPoint;
        float m = x.quant().scale * w.quant().scale / out.quant().scale;
        RequantEntry e = makeRequantEntry(m, out.quant(), out.dtype(),
                                          n.attrs.fusedAct);
        const uint8_t *px = x.typed<uint8_t>();
        const uint8_t *pw = w.typed<uint8_t>();
        uint8_t *po = out.typed<uint8_t>();
        for (int64_t b = 0; b < batch; ++b)
        for (int64_t oy = 0; oy < geo.out_h; ++oy)
        for (int64_t ox = 0; ox < geo.out_w; ++ox)
        for (int64_t k = 0; k < geo.out_c; ++k) {
            int32_t acc = bias ? bias->intAt(k) : 0;
            for (int64_t r = 0; r < geo.k_h; ++r) {
                int64_t iy = oy * geo.stride_h + r - geo.pad_top;
                if (iy < 0 || iy >= geo.in_h)
                    continue;
                for (int64_t s = 0; s < geo.k_w; ++s) {
                    int64_t ix = ox * geo.stride_w + s - geo.pad_left;
                    if (ix < 0 || ix >= geo.in_w)
                        continue;
                    if (depthwise) {
                        int64_t xi =
                            ((b * geo.in_h + iy) * geo.in_w + ix) *
                                geo.in_c + k;
                        int64_t wi = (r * geo.k_w + s) * geo.out_c + k;
                        acc = satAdd32(acc, (int32_t(px[xi]) - zin) *
                                                (int32_t(pw[wi]) - zw));
                    } else {
                        for (int64_t c = 0; c < geo.in_c; ++c) {
                            int64_t xi =
                                ((b * geo.in_h + iy) * geo.in_w + ix) *
                                    geo.in_c + c;
                            int64_t wi =
                                ((k * geo.k_h + r) * geo.k_w + s) *
                                    geo.in_c + c;
                            acc = satAdd32(
                                acc, (int32_t(px[xi]) - zin) *
                                         (int32_t(pw[wi]) - zw));
                        }
                    }
                }
            }
            int32_t v = e.rq.apply(acc);
            v = std::clamp(v, e.actMin, e.actMax);
            int64_t oi = ((b * geo.out_h + oy) * geo.out_w + ox) *
                             geo.out_c + k;
            po[oi] = uint8_t(v & 0xff);
        }
        return out;
    }

    // Float reference.
    for (int64_t b = 0; b < batch; ++b)
    for (int64_t oy = 0; oy < geo.out_h; ++oy)
    for (int64_t ox = 0; ox < geo.out_w; ++ox)
    for (int64_t k = 0; k < geo.out_c; ++k) {
        float acc = bias ? bias->floatAt(k) : 0.0f;
        for (int64_t r = 0; r < geo.k_h; ++r) {
            int64_t iy = oy * geo.stride_h + r - geo.pad_top;
            if (iy < 0 || iy >= geo.in_h)
                continue;
            for (int64_t s = 0; s < geo.k_w; ++s) {
                int64_t ix = ox * geo.stride_w + s - geo.pad_left;
                if (ix < 0 || ix >= geo.in_w)
                    continue;
                if (depthwise) {
                    acc += x.floatAt(x.nhwc(b, iy, ix, k)) *
                           w.floatAt((r * geo.k_w + s) * geo.out_c + k);
                } else {
                    for (int64_t c = 0; c < geo.in_c; ++c)
                        acc += x.floatAt(x.nhwc(b, iy, ix, c)) *
                               w.floatAt(((k * geo.k_h + r) * geo.k_w +
                                          s) * geo.in_c + c);
                }
            }
        }
        acc = applyActF(n.attrs.fusedAct, acc);
        out.setFloatAt(out.nhwc(b, oy, ox, k), acc);
    }
    return out;
}

Tensor
execFullyConnected(const Graph &g, const Node &n,
                   const std::vector<const Tensor *> &ins)
{
    const Tensor &x = *ins[0];
    const Tensor &w = *ins[1];
    const Tensor *bias = ins.size() > 2 ? ins[2] : nullptr;
    Tensor out = makeOutput(g, n);
    const int64_t batch = out.shape().dim(0);
    const int64_t cout = w.shape().dim(0);
    const int64_t cin = w.shape().dim(1);

    if (isQuant8(x.dtype())) {
        const int32_t zin = x.quant().zeroPoint;
        const int32_t zw = w.quant().zeroPoint;
        float m = x.quant().scale * w.quant().scale / out.quant().scale;
        RequantEntry e = makeRequantEntry(m, out.quant(), out.dtype(),
                                          n.attrs.fusedAct);
        for (int64_t b = 0; b < batch; ++b)
        for (int64_t k = 0; k < cout; ++k) {
            int32_t acc = bias ? bias->intAt(k) : 0;
            for (int64_t c = 0; c < cin; ++c)
                acc = satAdd32(acc,
                               (x.intAt(b * cin + c) - zin) *
                                   (w.intAt(k * cin + c) - zw));
            int32_t v = e.rq.apply(acc);
            v = std::clamp(v, e.actMin, e.actMax);
            out.setIntAt(b * cout + k, v);
        }
        return out;
    }

    for (int64_t b = 0; b < batch; ++b)
    for (int64_t k = 0; k < cout; ++k) {
        float acc = bias ? bias->floatAt(k) : 0.0f;
        for (int64_t c = 0; c < cin; ++c)
            acc += x.floatAt(b * cin + c) * w.floatAt(k * cin + c);
        out.setFloatAt(b * cout + k,
                       applyActF(n.attrs.fusedAct, acc));
    }
    return out;
}

Tensor
execAdd(const Graph &g, const Node &n,
        const std::vector<const Tensor *> &ins)
{
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    Tensor out = makeOutput(g, n);
    const int64_t count = out.numElements();

    if (isQuant8(a.dtype())) {
        AddQuantPlan plan = makeAddPlan(a.quant(), b.quant(), out.quant(),
                                        out.dtype(), n.attrs.fusedAct);
        const int32_t za = a.quant().zeroPoint;
        const int32_t zb = b.quant().zeroPoint;
        for (int64_t i = 0; i < count; ++i) {
            int32_t acc = (a.intAt(i) - za) * plan.ka +
                          (b.intAt(i) - zb) * plan.kb;
            int32_t v = plan.entry.rq.apply(acc);
            v = std::clamp(v, plan.entry.actMin, plan.entry.actMax);
            out.setIntAt(i, v);
        }
        return out;
    }

    for (int64_t i = 0; i < count; ++i)
        out.setFloatAt(i, applyActF(n.attrs.fusedAct,
                                    a.floatAt(i) + b.floatAt(i)));
    return out;
}

Tensor
execPool(const Graph &g, const Node &n,
         const std::vector<const Tensor *> &ins, bool is_max)
{
    const Tensor &x = *ins[0];
    Tensor out = makeOutput(g, n);
    const Shape &in = x.shape();
    const Shape &os = out.shape();
    const OpAttrs &at = n.attrs;

    for (int64_t b = 0; b < os.dim(0); ++b)
    for (int64_t oy = 0; oy < os.dim(1); ++oy)
    for (int64_t ox = 0; ox < os.dim(2); ++ox)
    for (int64_t c = 0; c < os.dim(3); ++c) {
        if (isQuant8(x.dtype())) {
            const int32_t z = x.quant().zeroPoint;
            int32_t acc = is_max ? INT32_MIN : 0;
            for (int r = 0; r < at.kernelH; ++r)
            for (int s = 0; s < at.kernelW; ++s) {
                int64_t iy = oy * at.strideH + r - at.padTop;
                int64_t ix = ox * at.strideW + s - at.padLeft;
                if (iy < 0 || iy >= in.dim(1) || ix < 0 ||
                    ix >= in.dim(2))
                    continue;
                int32_t v = x.intAt(x.nhwc(b, iy, ix, c)) - z;
                if (is_max)
                    acc = std::max(acc, v);
                else
                    acc += v;
            }
            int32_t v;
            if (is_max) {
                // Ncore: max in offset domain, identity requant + zp.
                Requant rq = computeRequant(1.0f, z);
                v = rq.apply(acc);
            } else {
                Requant rq = computeRequant(
                    1.0f / float(at.kernelH * at.kernelW),
                    out.quant().zeroPoint);
                v = rq.apply(acc);
            }
            out.setIntAt(out.nhwc(b, oy, ox, c), v);
        } else {
            float acc = is_max ? -1e30f : 0.0f;
            for (int r = 0; r < at.kernelH; ++r)
            for (int s = 0; s < at.kernelW; ++s) {
                int64_t iy = oy * at.strideH + r - at.padTop;
                int64_t ix = ox * at.strideW + s - at.padLeft;
                if (iy < 0 || iy >= in.dim(1) || ix < 0 ||
                    ix >= in.dim(2))
                    continue;
                float v = x.floatAt(x.nhwc(b, iy, ix, c));
                acc = is_max ? std::max(acc, v) : acc + v;
            }
            if (!is_max)
                acc /= float(at.kernelH * at.kernelW);
            out.setFloatAt(out.nhwc(b, oy, ox, c), acc);
        }
    }
    return out;
}

Tensor
execPad(const Graph &g, const Node &n,
        const std::vector<const Tensor *> &ins)
{
    const Tensor &x = *ins[0];
    Tensor out = makeOutput(g, n);
    // Quantized pads fill with the zero-point code.
    if (isQuant8(x.dtype())) {
        int32_t z = x.quant().zeroPoint;
        for (int64_t i = 0; i < out.numElements(); ++i)
            out.setIntAt(i, z);
    }
    for (int64_t b = 0; b < x.shape().dim(0); ++b)
    for (int64_t y = 0; y < x.shape().dim(1); ++y)
    for (int64_t xx = 0; xx < x.shape().dim(2); ++xx)
    for (int64_t c = 0; c < x.shape().dim(3); ++c) {
        int64_t oi = out.nhwc(b, y + n.attrs.padTop,
                              xx + n.attrs.padLeft, c);
        int64_t ii = x.nhwc(b, y, xx, c);
        if (isQuant8(x.dtype()))
            out.setIntAt(oi, x.intAt(ii));
        else
            out.setFloatAt(oi, x.floatAt(ii));
    }
    return out;
}

Tensor
execUnaryAct(const Graph &g, const Node &n,
             const std::vector<const Tensor *> &ins, ActFn fn)
{
    const Tensor &x = *ins[0];
    Tensor out = makeOutput(g, n);
    if (isQuant8(x.dtype())) {
        // The LUT path: identical tables to the OUT unit.
        auto lut = buildActLut(fn, x.quant(), out.quant(), x.dtype());
        for (int64_t i = 0; i < out.numElements(); ++i) {
            int32_t code = x.intAt(i);
            uint8_t idx = x.dtype() == DType::UInt8
                              ? uint8_t(code)
                              : uint8_t(uint8_t(int8_t(code)) ^ 0x80);
            uint8_t mapped = lut[idx];
            out.setIntAt(i, x.dtype() == DType::UInt8
                                ? int32_t(mapped)
                                : int32_t(int8_t(mapped)));
        }
        return out;
    }
    for (int64_t i = 0; i < out.numElements(); ++i)
        out.setFloatAt(i, applyActF(fn, x.floatAt(i)));
    return out;
}

Tensor
execSoftmax(const Graph &g, const Node &n,
            const std::vector<const Tensor *> &ins)
{
    const Tensor &x = *ins[0];
    Tensor out = makeOutput(g, n);
    const int64_t c_dim = x.shape().dim(x.shape().rank() - 1);
    const int64_t rows = x.numElements() / c_dim;
    for (int64_t r = 0; r < rows; ++r) {
        float maxv = -1e30f;
        for (int64_t c = 0; c < c_dim; ++c)
            maxv = std::max(maxv, x.realAt(r * c_dim + c));
        float denom = 0.0f;
        for (int64_t c = 0; c < c_dim; ++c)
            denom += std::exp(n.attrs.beta *
                              (x.realAt(r * c_dim + c) - maxv));
        for (int64_t c = 0; c < c_dim; ++c) {
            float v = std::exp(n.attrs.beta *
                               (x.realAt(r * c_dim + c) - maxv)) / denom;
            if (isQuant8(out.dtype()))
                out.setIntAt(r * c_dim + c,
                             out.quant().quantize(v, out.dtype()));
            else
                out.setFloatAt(r * c_dim + c, v);
        }
    }
    return out;
}

Tensor
execConcat(const Graph &g, const Node &n,
           const std::vector<const Tensor *> &ins)
{
    Tensor out = makeOutput(g, n);
    const int axis = n.attrs.axis;
    const Shape &os = out.shape();

    int64_t outer = 1, inner = 1;
    for (int i = 0; i < axis; ++i)
        outer *= os.dim(i);
    for (int i = axis + 1; i < os.rank(); ++i)
        inner *= os.dim(i);

    int64_t offset = 0;
    for (const Tensor *t : ins) {
        int64_t span = t->shape().dim(axis);
        bool rescale = isQuant8(t->dtype()) &&
                       !(t->quant() == out.quant());
        Requant rq;
        if (rescale)
            rq = computeRequant(t->quant().scale / out.quant().scale,
                                out.quant().zeroPoint);
        for (int64_t o = 0; o < outer; ++o)
        for (int64_t s = 0; s < span; ++s)
        for (int64_t i = 0; i < inner; ++i) {
            int64_t src = (o * span + s) * inner + i;
            int64_t dst = (o * os.dim(axis) + offset + s) * inner + i;
            if (isQuant8(t->dtype())) {
                int32_t code = t->intAt(src);
                if (rescale)
                    code = rq.apply(code - t->quant().zeroPoint);
                out.setIntAt(dst, code);
            } else {
                out.setFloatAt(dst, t->floatAt(src));
            }
        }
        offset += span;
    }
    return out;
}

Tensor
execDequantize(const Graph &g, const Node &n,
               const std::vector<const Tensor *> &ins)
{
    const Tensor &x = *ins[0];
    Tensor out = makeOutput(g, n);
    for (int64_t i = 0; i < out.numElements(); ++i)
        out.setFloatAt(i, x.realAt(i));
    return out;
}

float
boxIou(const float *a, const float *b)
{
    float y1 = std::max(a[0], b[0]);
    float x1 = std::max(a[1], b[1]);
    float y2 = std::min(a[2], b[2]);
    float x2 = std::min(a[3], b[3]);
    float inter = std::max(0.0f, y2 - y1) * std::max(0.0f, x2 - x1);
    float area_a = std::max(0.0f, a[2] - a[0]) *
                   std::max(0.0f, a[3] - a[1]);
    float area_b = std::max(0.0f, b[2] - b[0]) *
                   std::max(0.0f, b[3] - b[1]);
    float uni = area_a + area_b - inter;
    return uni > 0.0f ? inter / uni : 0.0f;
}

Tensor
execNms(const Graph &g, const Node &n,
        const std::vector<const Tensor *> &ins)
{
    const Tensor &boxes = *ins[0];  // [A, 4] float
    const Tensor &scores = *ins[1]; // [A, C] float
    Tensor out = makeOutput(g, n);  // [maxDet, 6]
    const int64_t anchors = boxes.shape().dim(0);
    const int64_t classes = scores.shape().dim(1);
    const OpAttrs &at = n.attrs;

    struct Det
    {
        float score;
        int64_t anchor;
        int64_t cls;
    };
    std::vector<Det> kept;

    std::vector<float> box(4);
    const float *pb = boxes.typed<float>();
    for (int64_t c = 1; c < classes; ++c) { // Class 0 = background.
        std::vector<Det> cands;
        for (int64_t a = 0; a < anchors; ++a) {
            float s = scores.floatAt(a * classes + c);
            if (s >= at.nmsScoreThreshold)
                cands.push_back({s, a, c});
        }
        std::sort(cands.begin(), cands.end(),
                  [](const Det &a, const Det &b) {
                      return a.score > b.score;
                  });
        std::vector<Det> cls_kept;
        for (const Det &d : cands) {
            bool suppressed = false;
            for (const Det &k : cls_kept) {
                if (boxIou(pb + d.anchor * 4, pb + k.anchor * 4) >
                    at.nmsIouThreshold) {
                    suppressed = true;
                    break;
                }
            }
            if (!suppressed) {
                cls_kept.push_back(d);
                if (int(cls_kept.size()) >= at.nmsMaxDetections)
                    break;
            }
        }
        kept.insert(kept.end(), cls_kept.begin(), cls_kept.end());
    }

    std::sort(kept.begin(), kept.end(), [](const Det &a, const Det &b) {
        return a.score > b.score;
    });
    if (int(kept.size()) > at.nmsMaxDetections)
        kept.resize(size_t(at.nmsMaxDetections));

    for (int64_t i = 0; i < at.nmsMaxDetections; ++i) {
        if (i < int64_t(kept.size())) {
            const Det &d = kept[size_t(i)];
            out.setFloatAt(i * 6 + 0, float(d.cls));
            out.setFloatAt(i * 6 + 1, d.score);
            for (int j = 0; j < 4; ++j)
                out.setFloatAt(i * 6 + 2 + j, pb[d.anchor * 4 + j]);
        } else {
            out.setFloatAt(i * 6 + 0, -1.0f);
            for (int j = 1; j < 6; ++j)
                out.setFloatAt(i * 6 + j, 0.0f);
        }
    }
    return out;
}

} // namespace

Tensor
ReferenceExecutor::executeNode(const Graph &g, const Node &n,
                               const std::vector<const Tensor *> &ins)
{
    switch (n.kind) {
      case OpKind::Conv2D:
        return execConv(g, n, ins, false);
      case OpKind::DepthwiseConv2D:
        return execConv(g, n, ins, true);
      case OpKind::FullyConnected:
        return execFullyConnected(g, n, ins);
      case OpKind::Add:
        return execAdd(g, n, ins);
      case OpKind::MaxPool2D:
        return execPool(g, n, ins, true);
      case OpKind::AvgPool2D:
        return execPool(g, n, ins, false);
      case OpKind::Pad:
        return execPad(g, n, ins);
      case OpKind::Sigmoid:
        return execUnaryAct(g, n, ins, ActFn::Sigmoid);
      case OpKind::Softmax:
        return execSoftmax(g, n, ins);
      case OpKind::Concat:
        return execConcat(g, n, ins);
      case OpKind::Reshape: {
        Tensor out = makeOutput(g, n);
        std::memcpy(out.raw(), ins[0]->raw(), out.byteSize());
        return out;
      }
      case OpKind::Dequantize:
        return execDequantize(g, n, ins);
      case OpKind::NonMaxSuppression:
        return execNms(g, n, ins);
    }
    panic("unhandled op kind %d", int(n.kind));
}

std::vector<Tensor>
ReferenceExecutor::run(const std::vector<Tensor> &inputs)
{
    fatal_if(inputs.size() != g_.inputs().size(),
             "graph %s expects %zu inputs, got %zu", g_.name().c_str(),
             g_.inputs().size(), inputs.size());
    values_.assign(size_t(g_.numTensors()), Tensor{});
    bound_.assign(size_t(g_.numTensors()), false);

    for (TensorId id = 0; id < g_.numTensors(); ++id) {
        if (g_.tensor(id).isConst) {
            values_[size_t(id)] = g_.tensor(id).value;
            bound_[size_t(id)] = true;
        }
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
        TensorId id = g_.inputs()[i];
        fatal_if(!(inputs[i].shape() == g_.tensor(id).shape),
                 "input %zu shape mismatch", i);
        values_[size_t(id)] = inputs[i];
        bound_[size_t(id)] = true;
    }

    for (const Node &n : g_.nodes()) {
        std::vector<const Tensor *> ins;
        ins.reserve(n.inputs.size());
        for (TensorId id : n.inputs) {
            panic_if(!bound_[size_t(id)],
                     "tensor '%s' not ready for node %s",
                     g_.tensor(id).name.c_str(), n.name.c_str());
            ins.push_back(&values_[size_t(id)]);
        }
        Tensor out = executeNode(g_, n, ins);
        values_[size_t(n.outputs[0])] = std::move(out);
        bound_[size_t(n.outputs[0])] = true;
    }

    std::vector<Tensor> outs;
    for (TensorId id : g_.outputs())
        outs.push_back(values_[size_t(id)]);
    return outs;
}

const Tensor &
ReferenceExecutor::valueOf(TensorId id) const
{
    panic_if(id < 0 || id >= int(values_.size()) || !bound_[size_t(id)],
             "valueOf(%d) before run()", id);
    return values_[size_t(id)];
}

} // namespace ncore
