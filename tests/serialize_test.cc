/**
 * @file
 * Loadable serialization tests: byte-stream round-trips preserve the
 * graph, programs, tables and weight images exactly; a deserialized
 * Loadable executes on the device with bit-identical results; corrupt
 * streams are rejected.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "gcl/compiler.h"
#include "gcl/serialize.h"
#include "runtime/delegate.h"
#include "runtime/driver.h"
#include "x86/reference.h"

namespace ncore {
namespace {

Graph
smallNet(uint64_t seed)
{
    Rng rng(seed);
    GraphBuilder gb("sernet");
    QuantParams qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    TensorId x = gb.input("x", Shape{1, 12, 12, 16}, DType::UInt8, qp);
    QuantParams w_qp{0.02f, 128};
    Tensor w(Shape{32, 3, 3, 16}, DType::UInt8, w_qp);
    w.fillRandom(rng);
    Tensor b(Shape{32}, DType::Int32);
    for (int i = 0; i < 32; ++i)
        b.setIntAt(i, int32_t(rng.nextRange(-800, 800)));
    TensorId y = gb.conv2d("c", x, gb.constant("w", w, w_qp),
                           gb.constant("b", b), 1, 1, 1, 1, 1, 1,
                           ActFn::Relu, chooseAsymmetricUint8(-2, 2));
    y = gb.maxPool2d("mp", y, 3, 3, 2, 2, 1, 1, 1, 1);
    y = gb.softmax("sm", gb.reshape("flat", gb.avgPool2d(
                                                "gap", y, 6, 6, 1, 1, 0,
                                                0, 0, 0),
                                    Shape{1, 32}),
                   1.0f);
    gb.output(y);
    Graph g = gb.take();
    g.verify();
    return g;
}

TEST(Serialize, RoundTripPreservesEverything)
{
    Loadable ld = compile(smallNet(1));
    auto bytes = serializeLoadable(ld);
    Loadable back = deserializeLoadable(bytes);

    EXPECT_EQ(back.graph.nodes().size(), ld.graph.nodes().size());
    EXPECT_EQ(back.graph.numTensors(), ld.graph.numTensors());
    EXPECT_EQ(back.nodeAssignment, ld.nodeAssignment);
    ASSERT_EQ(back.subgraphs.size(), ld.subgraphs.size());

    const CompiledSubgraph &a = ld.subgraphs[0];
    const CompiledSubgraph &b = back.subgraphs[0];
    ASSERT_EQ(a.code.size(), b.code.size());
    for (size_t i = 0; i < a.code.size(); ++i)
        EXPECT_TRUE(a.code[i] == b.code[i]) << i;
    EXPECT_EQ(a.rqTable.size(), b.rqTable.size());
    for (size_t i = 0; i < a.rqTable.size(); ++i)
        EXPECT_TRUE(a.rqTable[i] == b.rqTable[i]) << i;
    EXPECT_EQ(a.persistentWeights, b.persistentWeights);
    EXPECT_EQ(a.layouts.size(), b.layouts.size());
    EXPECT_EQ(a.macs, b.macs);

    // A second serialization is byte-identical (determinism)...
    // modulo unordered-map layout ordering, so compare semantically:
    Loadable again = deserializeLoadable(serializeLoadable(back));
    EXPECT_EQ(again.subgraphs[0].code.size(), a.code.size());
}

TEST(Serialize, DeserializedLoadableExecutesIdentically)
{
    Loadable ld = compile(smallNet(2));
    Tensor x(ld.graph.tensor(ld.graph.inputs()[0]).shape, DType::UInt8,
             ld.graph.tensor(ld.graph.inputs()[0]).quant);
    Rng rng(9);
    x.fillRandom(rng);

    Tensor out_orig, out_ser;
    {
        Machine m(chaNcoreConfig(), chaSocConfig());
        NcoreDriver drv(m);
        drv.powerUp();
        NcoreRuntime rt(drv);
        rt.loadModel(ld);
        DelegateExecutor exec(rt, X86CostModel{});
        out_orig = exec.infer({x}).outputs[0];
    }
    {
        Loadable shipped =
            deserializeLoadable(serializeLoadable(ld));
        Machine m(chaNcoreConfig(), chaSocConfig());
        NcoreDriver drv(m);
        drv.powerUp();
        NcoreRuntime rt(drv);
        rt.loadModel(shipped);
        DelegateExecutor exec(rt, X86CostModel{});
        out_ser = exec.infer({x}).outputs[0];
    }
    EXPECT_EQ(maxAbsDiff(out_orig, out_ser), 0.0f);
}

TEST(Serialize, FileRoundTrip)
{
    Loadable ld = compile(smallNet(3));
    const std::string path = "serialize_test.ncld";
    saveLoadable(ld, path);
    Loadable back = loadLoadable(path);
    EXPECT_EQ(back.subgraphs[0].code.size(),
              ld.subgraphs[0].code.size());
    std::remove(path.c_str());
}

TEST(Serialize, RejectsCorruptStreams)
{
    Loadable ld = compile(smallNet(4));
    auto bytes = serializeLoadable(ld);

    std::vector<uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_DEATH(deserializeLoadable(bad_magic), "not an Ncore");

    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + 64);
    EXPECT_DEATH(deserializeLoadable(truncated), "truncated");

    // Streams of older formats: version word (little-endian, after
    // the magic) set to 4 and to 5.
    for (uint8_t version : {4, 5}) {
        std::vector<uint8_t> old_version = bytes;
        old_version[4] = version;
        old_version[5] = old_version[6] = old_version[7] = 0;
        EXPECT_DEATH(deserializeLoadable(old_version),
                     "Loadable version " + std::to_string(version));
    }
}

} // namespace
} // namespace ncore
