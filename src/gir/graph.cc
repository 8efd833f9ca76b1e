#include "graph.h"

#include <algorithm>

namespace ncore {

const char *
opKindName(OpKind k)
{
    switch (k) {
      case OpKind::Conv2D: return "Conv2D";
      case OpKind::DepthwiseConv2D: return "DepthwiseConv2D";
      case OpKind::FullyConnected: return "FullyConnected";
      case OpKind::Add: return "Add";
      case OpKind::MaxPool2D: return "MaxPool2D";
      case OpKind::AvgPool2D: return "AvgPool2D";
      case OpKind::Pad: return "Pad";
      case OpKind::Sigmoid: return "Sigmoid";
      case OpKind::Softmax: return "Softmax";
      case OpKind::Concat: return "Concat";
      case OpKind::Reshape: return "Reshape";
      case OpKind::Dequantize: return "Dequantize";
      case OpKind::NonMaxSuppression: return "NonMaxSuppression";
    }
    return "?";
}

// --------------------------------------------------------------------
// Graph
// --------------------------------------------------------------------

TensorId
Graph::addTensor(GirTensor t)
{
    tensors_.push_back(std::move(t));
    return TensorId(tensors_.size() - 1);
}

Node &
Graph::addNode(Node n)
{
    nodes_.push_back(std::move(n));
    return nodes_.back();
}

GirTensor &
Graph::tensor(TensorId id)
{
    panic_if(id < 0 || id >= int(tensors_.size()), "tensor id %d", id);
    return tensors_[size_t(id)];
}

const GirTensor &
Graph::tensor(TensorId id) const
{
    panic_if(id < 0 || id >= int(tensors_.size()), "tensor id %d", id);
    return tensors_[size_t(id)];
}

void
Graph::verify() const
{
    std::vector<bool> defined(tensors_.size(), false);
    for (size_t i = 0; i < tensors_.size(); ++i)
        if (tensors_[i].isConst)
            defined[i] = true;
    for (TensorId id : inputs_)
        defined[size_t(id)] = true;

    for (const Node &n : nodes_) {
        fatal_if(n.inputs.empty() || n.outputs.empty(),
                 "node %s has no inputs or outputs", n.name.c_str());
        for (TensorId id : n.inputs) {
            fatal_if(id < 0 || id >= int(tensors_.size()),
                     "node %s references bad tensor %d", n.name.c_str(),
                     id);
            fatal_if(!defined[size_t(id)],
                     "node %s uses tensor '%s' before definition",
                     n.name.c_str(), tensor(id).name.c_str());
        }
        for (TensorId id : n.outputs) {
            fatal_if(defined[size_t(id)],
                     "node %s redefines tensor '%s'", n.name.c_str(),
                     tensor(id).name.c_str());
            defined[size_t(id)] = true;
        }
    }
    for (TensorId id : outputs_)
        fatal_if(!defined[size_t(id)],
                 "graph output '%s' is never produced",
                 tensor(id).name.c_str());
}

const Node *
Graph::producer(TensorId id) const
{
    for (const Node &n : nodes_)
        for (TensorId out : n.outputs)
            if (out == id)
                return &n;
    return nullptr;
}

std::vector<const Node *>
Graph::consumers(TensorId id) const
{
    std::vector<const Node *> out;
    for (const Node &n : nodes_)
        for (TensorId in : n.inputs)
            if (in == id) {
                out.push_back(&n);
                break;
            }
    return out;
}

int64_t
Graph::nodeMacs(const Graph &g, const Node &n)
{
    switch (n.kind) {
      case OpKind::Conv2D: {
        const Shape &out = g.tensor(n.outputs[0]).shape;
        const Shape &w = g.tensor(n.inputs[1]).shape; // OHWI
        // out elems * Kh * Kw * Cin
        return out.numElements() * w.dim(1) * w.dim(2) * w.dim(3);
      }
      case OpKind::DepthwiseConv2D: {
        const Shape &out = g.tensor(n.outputs[0]).shape;
        const Shape &w = g.tensor(n.inputs[1]).shape; // [1,Kh,Kw,C]
        return out.numElements() * w.dim(1) * w.dim(2);
      }
      case OpKind::FullyConnected: {
        const Shape &out = g.tensor(n.outputs[0]).shape;
        const Shape &w = g.tensor(n.inputs[1]).shape; // [Cout, Cin]
        return out.numElements() * w.dim(1);
      }
      default:
        return 0;
    }
}

int64_t
Graph::totalMacs() const
{
    int64_t total = 0;
    for (const Node &n : nodes_)
        total += nodeMacs(*this, n);
    return total;
}

int64_t
Graph::totalWeights() const
{
    int64_t total = 0;
    for (const GirTensor &t : tensors_)
        if (t.isConst)
            total += t.shape.numElements();
    return total;
}

std::string
Graph::toString() const
{
    std::string s = "graph " + name_ + "\n";
    for (const Node &n : nodes_) {
        s += "  " + n.name + " = " + opKindName(n.kind) + "(";
        for (size_t i = 0; i < n.inputs.size(); ++i) {
            if (i)
                s += ", ";
            s += tensor(n.inputs[i]).name;
        }
        s += ") -> ";
        for (TensorId out : n.outputs)
            s += tensor(out).name + ":" + tensor(out).shape.toString() +
                 " ";
        s += "\n";
    }
    return s;
}

// --------------------------------------------------------------------
// GraphBuilder
// --------------------------------------------------------------------

TensorId
GraphBuilder::input(const std::string &name, Shape shape, DType dtype,
                    QuantParams qp)
{
    GirTensor t;
    t.name = name;
    t.shape = std::move(shape);
    t.dtype = dtype;
    t.quant = qp;
    TensorId id = g_.addTensor(std::move(t));
    g_.addInput(id);
    return id;
}

TensorId
GraphBuilder::constant(const std::string &name, Tensor value,
                       QuantParams qp)
{
    GirTensor t;
    t.name = name;
    t.shape = value.shape();
    t.dtype = value.dtype();
    t.quant = qp;
    t.isConst = true;
    t.value = std::move(value);
    t.value.setQuant(qp);
    return g_.addTensor(std::move(t));
}

TensorId
GraphBuilder::activationValue(GirTensor t)
{
    return g_.addTensor(std::move(t));
}

namespace {

int64_t
convOutDim(int64_t in, int64_t k, int stride, int pad_lo, int pad_hi)
{
    return (in + pad_lo + pad_hi - k) / stride + 1;
}

} // namespace

TensorId
GraphBuilder::conv2d(const std::string &name, TensorId in,
                     TensorId weights, TensorId bias, int stride_h,
                     int stride_w, int pad_top, int pad_bottom,
                     int pad_left, int pad_right, ActFn fused_act,
                     QuantParams out_qp)
{
    const GirTensor &x = g_.tensor(in);
    const GirTensor &w = g_.tensor(weights);
    fatal_if(x.shape.rank() != 4 || w.shape.rank() != 4,
             "%s: conv2d needs NHWC input and OHWI weights",
             name.c_str());
    fatal_if(w.shape.dim(3) != x.shape.dim(3),
             "%s: Cin mismatch (%lld vs %lld)", name.c_str(),
             (long long)w.shape.dim(3), (long long)x.shape.dim(3));

    GirTensor out;
    out.name = name + ":out";
    out.shape = Shape{x.shape.dim(0),
                      convOutDim(x.shape.dim(1), w.shape.dim(1), stride_h,
                                 pad_top, pad_bottom),
                      convOutDim(x.shape.dim(2), w.shape.dim(2), stride_w,
                                 pad_left, pad_right),
                      w.shape.dim(0)};
    out.dtype = x.dtype;
    out.quant = out_qp;
    TensorId out_id = activationValue(std::move(out));

    Node n;
    n.kind = OpKind::Conv2D;
    n.name = name;
    n.inputs = {in, weights};
    if (bias != kNoTensor)
        n.inputs.push_back(bias);
    n.outputs = {out_id};
    n.attrs.strideH = stride_h;
    n.attrs.strideW = stride_w;
    n.attrs.padTop = pad_top;
    n.attrs.padBottom = pad_bottom;
    n.attrs.padLeft = pad_left;
    n.attrs.padRight = pad_right;
    n.attrs.fusedAct = fused_act;
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::depthwiseConv2d(const std::string &name, TensorId in,
                              TensorId weights, TensorId bias,
                              int stride_h, int stride_w, int pad_top,
                              int pad_bottom, int pad_left, int pad_right,
                              ActFn fused_act, QuantParams out_qp)
{
    const GirTensor &x = g_.tensor(in);
    const GirTensor &w = g_.tensor(weights);
    fatal_if(w.shape.rank() != 4 || w.shape.dim(0) != 1,
             "%s: depthwise weights must be [1,Kh,Kw,C]", name.c_str());
    fatal_if(w.shape.dim(3) != x.shape.dim(3),
             "%s: channel mismatch", name.c_str());

    GirTensor out;
    out.name = name + ":out";
    out.shape = Shape{x.shape.dim(0),
                      convOutDim(x.shape.dim(1), w.shape.dim(1), stride_h,
                                 pad_top, pad_bottom),
                      convOutDim(x.shape.dim(2), w.shape.dim(2), stride_w,
                                 pad_left, pad_right),
                      x.shape.dim(3)};
    out.dtype = x.dtype;
    out.quant = out_qp;
    TensorId out_id = activationValue(std::move(out));

    Node n;
    n.kind = OpKind::DepthwiseConv2D;
    n.name = name;
    n.inputs = {in, weights};
    if (bias != kNoTensor)
        n.inputs.push_back(bias);
    n.outputs = {out_id};
    n.attrs.strideH = stride_h;
    n.attrs.strideW = stride_w;
    n.attrs.padTop = pad_top;
    n.attrs.padBottom = pad_bottom;
    n.attrs.padLeft = pad_left;
    n.attrs.padRight = pad_right;
    n.attrs.fusedAct = fused_act;
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::fullyConnected(const std::string &name, TensorId in,
                             TensorId weights, TensorId bias,
                             ActFn fused_act, QuantParams out_qp)
{
    const GirTensor &x = g_.tensor(in);
    const GirTensor &w = g_.tensor(weights);
    fatal_if(w.shape.rank() != 2, "%s: fc weights must be [Cout, Cin]",
             name.c_str());
    fatal_if(x.shape.dim(x.shape.rank() - 1) != w.shape.dim(1),
             "%s: fc Cin mismatch", name.c_str());

    GirTensor out;
    out.name = name + ":out";
    out.shape = Shape{x.shape.dim(0), w.shape.dim(0)};
    out.dtype = x.dtype;
    out.quant = out_qp;
    TensorId out_id = activationValue(std::move(out));

    Node n;
    n.kind = OpKind::FullyConnected;
    n.name = name;
    n.inputs = {in, weights};
    if (bias != kNoTensor)
        n.inputs.push_back(bias);
    n.outputs = {out_id};
    n.attrs.fusedAct = fused_act;
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::add(const std::string &name, TensorId a, TensorId b,
                  ActFn fused_act, QuantParams out_qp)
{
    const GirTensor &ta = g_.tensor(a);
    fatal_if(!(ta.shape == g_.tensor(b).shape),
             "%s: add shape mismatch", name.c_str());
    GirTensor out;
    out.name = name + ":out";
    out.shape = ta.shape;
    out.dtype = ta.dtype;
    out.quant = out_qp;
    TensorId out_id = activationValue(std::move(out));

    Node n;
    n.kind = OpKind::Add;
    n.name = name;
    n.inputs = {a, b};
    n.outputs = {out_id};
    n.attrs.fusedAct = fused_act;
    g_.addNode(std::move(n));
    return out_id;
}

namespace {

Node
poolNode(OpKind kind, const std::string &name, TensorId in, int kernel_h,
         int kernel_w, int stride_h, int stride_w, int pad_top,
         int pad_bottom, int pad_left, int pad_right)
{
    Node n;
    n.kind = kind;
    n.name = name;
    n.inputs = {in};
    n.attrs.kernelH = kernel_h;
    n.attrs.kernelW = kernel_w;
    n.attrs.strideH = stride_h;
    n.attrs.strideW = stride_w;
    n.attrs.padTop = pad_top;
    n.attrs.padBottom = pad_bottom;
    n.attrs.padLeft = pad_left;
    n.attrs.padRight = pad_right;
    return n;
}

} // namespace

TensorId
GraphBuilder::maxPool2d(const std::string &name, TensorId in, int kernel_h,
                        int kernel_w, int stride_h, int stride_w,
                        int pad_top, int pad_bottom, int pad_left,
                        int pad_right)
{
    const GirTensor &x = g_.tensor(in);
    GirTensor out;
    out.name = name + ":out";
    out.shape = Shape{x.shape.dim(0),
                      convOutDim(x.shape.dim(1), kernel_h, stride_h,
                                 pad_top, pad_bottom),
                      convOutDim(x.shape.dim(2), kernel_w, stride_w,
                                 pad_left, pad_right),
                      x.shape.dim(3)};
    out.dtype = x.dtype;
    out.quant = x.quant; // Max-pool preserves quantization.
    TensorId out_id = activationValue(std::move(out));
    Node n = poolNode(OpKind::MaxPool2D, name, in, kernel_h, kernel_w,
                      stride_h, stride_w, pad_top, pad_bottom, pad_left,
                      pad_right);
    n.outputs = {out_id};
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::avgPool2d(const std::string &name, TensorId in, int kernel_h,
                        int kernel_w, int stride_h, int stride_w,
                        int pad_top, int pad_bottom, int pad_left,
                        int pad_right)
{
    const GirTensor &x = g_.tensor(in);
    GirTensor out;
    out.name = name + ":out";
    out.shape = Shape{x.shape.dim(0),
                      convOutDim(x.shape.dim(1), kernel_h, stride_h,
                                 pad_top, pad_bottom),
                      convOutDim(x.shape.dim(2), kernel_w, stride_w,
                                 pad_left, pad_right),
                      x.shape.dim(3)};
    out.dtype = x.dtype;
    out.quant = x.quant;
    TensorId out_id = activationValue(std::move(out));
    Node n = poolNode(OpKind::AvgPool2D, name, in, kernel_h, kernel_w,
                      stride_h, stride_w, pad_top, pad_bottom, pad_left,
                      pad_right);
    n.outputs = {out_id};
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::pad(const std::string &name, TensorId in, int pad_top,
                  int pad_bottom, int pad_left, int pad_right)
{
    const GirTensor &x = g_.tensor(in);
    GirTensor out;
    out.name = name + ":out";
    out.shape = Shape{x.shape.dim(0), x.shape.dim(1) + pad_top + pad_bottom,
                      x.shape.dim(2) + pad_left + pad_right,
                      x.shape.dim(3)};
    out.dtype = x.dtype;
    out.quant = x.quant;
    TensorId out_id = activationValue(std::move(out));
    Node n;
    n.kind = OpKind::Pad;
    n.name = name;
    n.inputs = {in};
    n.outputs = {out_id};
    n.attrs.padTop = pad_top;
    n.attrs.padBottom = pad_bottom;
    n.attrs.padLeft = pad_left;
    n.attrs.padRight = pad_right;
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::unary(const std::string &name, OpKind kind, TensorId in)
{
    const GirTensor &x = g_.tensor(in);
    GirTensor out;
    out.name = name + ":out";
    out.shape = x.shape;
    out.dtype = x.dtype;
    out.quant = x.quant;
    TensorId out_id = activationValue(std::move(out));
    Node n;
    n.kind = kind;
    n.name = name;
    n.inputs = {in};
    n.outputs = {out_id};
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::sigmoid(const std::string &name, TensorId in)
{
    return unary(name, OpKind::Sigmoid, in);
}

TensorId
GraphBuilder::softmax(const std::string &name, TensorId in, float beta)
{
    TensorId out = unary(name, OpKind::Softmax, in);
    g_.nodes().back().attrs.beta = beta;
    return out;
}

TensorId
GraphBuilder::concat(const std::string &name,
                     const std::vector<TensorId> &ins, int axis,
                     QuantParams out_qp)
{
    fatal_if(ins.empty(), "%s: empty concat", name.c_str());
    const GirTensor &first = g_.tensor(ins[0]);
    std::vector<int64_t> dims = first.shape.dims();
    for (size_t i = 1; i < ins.size(); ++i)
        dims[size_t(axis)] += g_.tensor(ins[i]).shape.dim(axis);

    GirTensor out;
    out.name = name + ":out";
    out.shape = Shape(dims);
    out.dtype = first.dtype;
    out.quant = out_qp;
    TensorId out_id = activationValue(std::move(out));
    Node n;
    n.kind = OpKind::Concat;
    n.name = name;
    n.inputs = ins;
    n.outputs = {out_id};
    n.attrs.axis = axis;
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::reshape(const std::string &name, TensorId in, Shape shape)
{
    const GirTensor &x = g_.tensor(in);
    fatal_if(shape.numElements() != x.shape.numElements(),
             "%s: reshape element count mismatch", name.c_str());
    GirTensor out;
    out.name = name + ":out";
    out.shape = std::move(shape);
    out.dtype = x.dtype;
    out.quant = x.quant;
    TensorId out_id = activationValue(std::move(out));
    Node n;
    n.kind = OpKind::Reshape;
    n.name = name;
    n.inputs = {in};
    n.outputs = {out_id};
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::dequantize(const std::string &name, TensorId in)
{
    const GirTensor &x = g_.tensor(in);
    GirTensor out;
    out.name = name + ":out";
    out.shape = x.shape;
    out.dtype = DType::Float32;
    TensorId out_id = activationValue(std::move(out));
    Node n;
    n.kind = OpKind::Dequantize;
    n.name = name;
    n.inputs = {in};
    n.outputs = {out_id};
    g_.addNode(std::move(n));
    return out_id;
}

TensorId
GraphBuilder::nonMaxSuppression(const std::string &name, TensorId boxes,
                                TensorId scores, float iou_threshold,
                                float score_threshold, int max_detections)
{
    GirTensor out;
    out.name = name + ":out";
    out.shape = Shape{int64_t(max_detections), 6};
    out.dtype = DType::Float32;
    TensorId out_id = activationValue(std::move(out));
    Node n;
    n.kind = OpKind::NonMaxSuppression;
    n.name = name;
    n.inputs = {boxes, scores};
    n.outputs = {out_id};
    n.attrs.nmsIouThreshold = iou_threshold;
    n.attrs.nmsScoreThreshold = score_threshold;
    n.attrs.nmsMaxDetections = max_detections;
    g_.addNode(std::move(n));
    return out_id;
}

} // namespace ncore
