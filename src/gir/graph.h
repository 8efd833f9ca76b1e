/**
 * @file
 * GIR — Ncore's graph intermediate representation (paper V-B).
 *
 * Frameworks each have their own dataflow graph format; the Ncore Graph
 * Compiler Library imports them into this common GIR, on which the
 * generic optimization passes (pad fusion, dead-node elimination),
 * layout selection, memory planning and code generation operate. The
 * op kinds are the ones the model zoo emits: its graphs arrive
 * quantized, with batch norms folded and activations fused into the
 * conv/fc/add nodes. Tensors are NHWC, weights are OHWI (TFLite
 * convention); quantized tensors carry affine QuantParams.
 */

#ifndef NCORE_GIR_GRAPH_H
#define NCORE_GIR_GRAPH_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/tensor.h"
#include "isa/instruction.h" // ActFn

namespace ncore {

/** Operator kinds the GIR models. */
enum class OpKind : uint8_t {
    Conv2D,
    DepthwiseConv2D,
    FullyConnected,
    Add,           ///< Elementwise (residual connections).
    MaxPool2D,
    AvgPool2D,
    Pad,           ///< Explicit spatial zero padding.
    Sigmoid,
    Softmax,
    Concat,
    Reshape,
    Dequantize,    ///< quantized -> float at subgraph edges.
    NonMaxSuppression, ///< SSD post-processing (always on x86).
};

const char *opKindName(OpKind k);

/** Tensor identifier within one graph. */
using TensorId = int32_t;
constexpr TensorId kNoTensor = -1;

/** A tensor in the graph: metadata plus constant payload when present. */
struct GirTensor
{
    std::string name;
    Shape shape;
    DType dtype = DType::Float32;
    QuantParams quant;
    bool isConst = false;
    Tensor value; ///< Payload for constants (weights, biases).
};

/** Flat attribute block; fields are meaningful per OpKind (documented
 *  at the builder methods). */
struct OpAttrs
{
    int strideH = 1, strideW = 1;
    int kernelH = 0, kernelW = 0; ///< Pooling window.
    int padTop = 0, padBottom = 0, padLeft = 0, padRight = 0;
    ActFn fusedAct = ActFn::None; ///< Fused activation (conv/fc/add).
    int axis = 0;                 ///< Concat axis.
    float beta = 1.0f;            ///< Softmax temperature.
    float nmsIouThreshold = 0.6f;
    float nmsScoreThreshold = 0.3f;
    int nmsMaxDetections = 100;
};

/** One operation node. */
struct Node
{
    OpKind kind = OpKind::Reshape;
    std::string name;
    std::vector<TensorId> inputs;
    std::vector<TensorId> outputs;
    OpAttrs attrs;
};

/**
 * A dataflow graph. Nodes are stored in topological order (the builder
 * appends producers before consumers; verify() checks the invariant).
 */
class Graph
{
  public:
    explicit Graph(std::string name = "graph") : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    TensorId addTensor(GirTensor t);
    Node &addNode(Node n);

    GirTensor &tensor(TensorId id);
    const GirTensor &tensor(TensorId id) const;
    int numTensors() const { return int(tensors_.size()); }

    const std::vector<Node> &nodes() const { return nodes_; }
    std::vector<Node> &nodes() { return nodes_; }

    void addInput(TensorId id) { inputs_.push_back(id); }
    void addOutput(TensorId id) { outputs_.push_back(id); }
    const std::vector<TensorId> &inputs() const { return inputs_; }
    const std::vector<TensorId> &outputs() const { return outputs_; }

    /** Check topological order, arity, shape and dtype consistency. */
    void verify() const;

    /** The node producing a tensor, or nullptr for inputs/constants. */
    const Node *producer(TensorId id) const;

    /** Nodes consuming a tensor. */
    std::vector<const Node *> consumers(TensorId id) const;

    /** Multiply-accumulate count of one node (Table V accounting). */
    static int64_t nodeMacs(const Graph &g, const Node &n);

    /** Total MACs over the graph. */
    int64_t totalMacs() const;

    /** Total weight (constant) parameter count. */
    int64_t totalWeights() const;

    /** Human-readable dump. */
    std::string toString() const;

  private:
    std::string name_;
    std::vector<GirTensor> tensors_;
    std::vector<Node> nodes_;
    std::vector<TensorId> inputs_;
    std::vector<TensorId> outputs_;
};

/**
 * Convenience builder producing well-formed graphs with shape inference.
 * All methods return the output TensorId of the op they append.
 */
class GraphBuilder
{
  public:
    explicit GraphBuilder(std::string name) : g_(std::move(name)) {}

    Graph &graph() { return g_; }
    Graph take() { return std::move(g_); }

    /** Declare a graph input. */
    TensorId input(const std::string &name, Shape shape, DType dtype,
                   QuantParams qp = {});

    /** Declare a constant tensor (weights/bias). */
    TensorId constant(const std::string &name, Tensor value,
                      QuantParams qp = {});

    /** Mark an existing tensor as a graph output. */
    void output(TensorId id) { g_.addOutput(id); }

    /**
     * Conv2D: input NHWC, weights OHWI [Cout, Kh, Kw, Cin], optional
     * int32/float bias [Cout]. Output quant given explicitly for
     * quantized graphs.
     */
    TensorId conv2d(const std::string &name, TensorId in, TensorId weights,
                    TensorId bias, int stride_h, int stride_w, int pad_top,
                    int pad_bottom, int pad_left, int pad_right,
                    ActFn fused_act, QuantParams out_qp = {});

    /** DepthwiseConv2D: weights [1, Kh, Kw, C]. */
    TensorId depthwiseConv2d(const std::string &name, TensorId in,
                             TensorId weights, TensorId bias, int stride_h,
                             int stride_w, int pad_top, int pad_bottom,
                             int pad_left, int pad_right, ActFn fused_act,
                             QuantParams out_qp = {});

    /** FullyConnected: input [N, Cin], weights [Cout, Cin]. */
    TensorId fullyConnected(const std::string &name, TensorId in,
                            TensorId weights, TensorId bias,
                            ActFn fused_act, QuantParams out_qp = {});

    /** Elementwise add with output rescale (residual connections). */
    TensorId add(const std::string &name, TensorId a, TensorId b,
                 ActFn fused_act, QuantParams out_qp = {});

    TensorId maxPool2d(const std::string &name, TensorId in, int kernel_h,
                       int kernel_w, int stride_h, int stride_w,
                       int pad_top, int pad_bottom, int pad_left,
                       int pad_right);

    TensorId avgPool2d(const std::string &name, TensorId in, int kernel_h,
                       int kernel_w, int stride_h, int stride_w,
                       int pad_top, int pad_bottom, int pad_left,
                       int pad_right);

    /** Explicit zero padding (e.g. MLPerf ResNet-50 reference graph). */
    TensorId pad(const std::string &name, TensorId in, int pad_top,
                 int pad_bottom, int pad_left, int pad_right);

    TensorId sigmoid(const std::string &name, TensorId in);
    TensorId softmax(const std::string &name, TensorId in, float beta);

    TensorId concat(const std::string &name,
                    const std::vector<TensorId> &ins, int axis,
                    QuantParams out_qp = {});

    TensorId reshape(const std::string &name, TensorId in, Shape shape);

    TensorId dequantize(const std::string &name, TensorId in);

    /**
     * SSD-style NMS. boxes [A, 4] float, scores [A, C] float; output
     * [maxDet, 6] float rows of {class, score, y1, x1, y2, x2}.
     */
    TensorId nonMaxSuppression(const std::string &name, TensorId boxes,
                               TensorId scores, float iou_threshold,
                               float score_threshold, int max_detections);

  private:
    TensorId activationValue(GirTensor t);
    TensorId unary(const std::string &name, OpKind kind, TensorId in);

    Graph g_;
};

} // namespace ncore

#endif // NCORE_GIR_GRAPH_H
