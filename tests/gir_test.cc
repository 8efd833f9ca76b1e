/**
 * @file
 * GIR tests: shape inference for every op builder, graph verification
 * (topological order, use-before-def, redefinition), producer/consumer
 * queries, and MAC/weight accounting.
 */

#include <gtest/gtest.h>

#include "gir/graph.h"

namespace ncore {
namespace {

QuantParams
qp()
{
    return chooseAsymmetricUint8(-1.0f, 1.0f);
}

TensorId
constWeights(GraphBuilder &gb, const std::string &name, Shape shape)
{
    Rng rng(7);
    Tensor w(std::move(shape), DType::UInt8, QuantParams{0.02f, 128});
    w.fillRandom(rng);
    return gb.constant(name, w, QuantParams{0.02f, 128});
}

TEST(GirShapes, ConvOutputGeometry)
{
    GraphBuilder gb("g");
    TensorId x = gb.input("x", Shape{1, 224, 224, 3}, DType::UInt8,
                          qp());
    TensorId w = constWeights(gb, "w", Shape{64, 7, 7, 3});
    TensorId y = gb.conv2d("c", x, w, kNoTensor, 2, 2, 3, 3, 3, 3,
                           ActFn::None, qp());
    EXPECT_EQ(gb.graph().tensor(y).shape, (Shape{1, 112, 112, 64}));
}

TEST(GirShapes, DepthwiseKeepsChannels)
{
    GraphBuilder gb("g");
    TensorId x = gb.input("x", Shape{1, 56, 56, 128}, DType::UInt8,
                          qp());
    TensorId w = constWeights(gb, "w", Shape{1, 3, 3, 128});
    TensorId y = gb.depthwiseConv2d("dw", x, w, kNoTensor, 2, 2, 1, 1,
                                    1, 1, ActFn::None, qp());
    EXPECT_EQ(gb.graph().tensor(y).shape, (Shape{1, 28, 28, 128}));
}

TEST(GirShapes, PoolPadAndStride)
{
    GraphBuilder gb("g");
    TensorId x = gb.input("x", Shape{1, 112, 112, 64}, DType::UInt8,
                          qp());
    TensorId y = gb.maxPool2d("mp", x, 3, 3, 2, 2, 1, 1, 1, 1);
    EXPECT_EQ(gb.graph().tensor(y).shape, (Shape{1, 56, 56, 64}));
}

TEST(GirShapes, ConcatSumsAxis)
{
    GraphBuilder gb("g");
    TensorId a = gb.input("a", Shape{10, 4}, DType::Float32);
    TensorId b = gb.input("b", Shape{6, 4}, DType::Float32);
    TensorId y = gb.concat("cat", {a, b}, 0);
    EXPECT_EQ(gb.graph().tensor(y).shape, (Shape{16, 4}));
}

TEST(GirVerify, DetectsRedefinition)
{
    GraphBuilder gb("g");
    TensorId x = gb.input("x", Shape{1, 8, 8, 8}, DType::UInt8, qp());
    TensorId w = constWeights(gb, "w", Shape{8, 1, 1, 8});
    TensorId y = gb.conv2d("c", x, w, kNoTensor, 1, 1, 0, 0, 0, 0,
                           ActFn::None, qp());
    gb.output(y);
    Graph g = gb.take();
    // Corrupt: second node writes the same tensor.
    Node dup = g.nodes()[0];
    g.addNode(dup);
    EXPECT_DEATH(g.verify(), "redefines");
}

TEST(GirVerify, DetectsUseBeforeDef)
{
    GraphBuilder gb("g");
    TensorId x = gb.input("x", Shape{1, 8, 8, 8}, DType::UInt8, qp());
    TensorId w = constWeights(gb, "w", Shape{8, 1, 1, 8});
    TensorId y = gb.conv2d("c1", x, w, kNoTensor, 1, 1, 0, 0, 0, 0,
                           ActFn::None, qp());
    TensorId z = gb.conv2d("c2", y, w, kNoTensor, 1, 1, 0, 0, 0, 0,
                           ActFn::None, qp());
    gb.output(z);
    Graph g = gb.take();
    std::swap(g.nodes()[0], g.nodes()[1]); // Break topological order.
    EXPECT_DEATH(g.verify(), "before definition");
}

TEST(GirAccounting, MacsAndWeights)
{
    GraphBuilder gb("g");
    TensorId x = gb.input("x", Shape{1, 8, 8, 16}, DType::UInt8, qp());
    TensorId w = constWeights(gb, "w", Shape{32, 3, 3, 16});
    TensorId y = gb.conv2d("c", x, w, kNoTensor, 1, 1, 1, 1, 1, 1,
                           ActFn::None, qp());
    gb.output(y);
    Graph g = gb.take();
    // 8*8*32 outputs x 3*3*16 taps.
    EXPECT_EQ(g.totalMacs(), 8 * 8 * 32 * 3 * 3 * 16);
    EXPECT_EQ(g.totalWeights(), 32 * 3 * 3 * 16);
}

TEST(GirQueries, ProducerAndConsumers)
{
    GraphBuilder gb("g");
    TensorId x = gb.input("x", Shape{1, 8, 8, 16}, DType::UInt8, qp());
    TensorId w = constWeights(gb, "w", Shape{16, 1, 1, 16});
    TensorId y = gb.conv2d("c1", x, w, kNoTensor, 1, 1, 0, 0, 0, 0,
                           ActFn::None, qp());
    gb.conv2d("c2", y, w, kNoTensor, 1, 1, 0, 0, 0, 0, ActFn::None,
              qp());
    gb.conv2d("c3", y, w, kNoTensor, 1, 1, 0, 0, 0, 0, ActFn::None,
              qp());
    Graph &g = gb.graph();
    EXPECT_EQ(g.producer(y)->name, "c1");
    EXPECT_EQ(g.producer(x), nullptr);
    EXPECT_EQ(g.consumers(y).size(), 2u);
}

TEST(GirDump, ToStringMentionsEveryNode)
{
    GraphBuilder gb("g");
    TensorId x = gb.input("x", Shape{1, 8, 8, 16}, DType::UInt8, qp());
    TensorId w = constWeights(gb, "w", Shape{16, 1, 1, 16});
    TensorId y = gb.conv2d("conv_node", x, w, kNoTensor, 1, 1, 0, 0, 0,
                           0, ActFn::Relu, qp());
    gb.softmax("softmax_node", y, 1.0f);
    std::string s = gb.graph().toString();
    EXPECT_NE(s.find("conv_node"), std::string::npos);
    EXPECT_NE(s.find("softmax_node"), std::string::npos);
    EXPECT_NE(s.find("Conv2D"), std::string::npos);
}

} // namespace
} // namespace ncore
