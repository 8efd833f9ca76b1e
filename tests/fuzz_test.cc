/**
 * @file
 * Randomized end-to-end fuzzing: generate small random quantized
 * networks (convs, depthwise convs, pools, residual adds, classifier
 * tails with random shapes/strides/activations), compile them through
 * the full GCL pipeline, execute on the simulated Ncore through the
 * delegate, and require bit-exact agreement with the x86 reference.
 * This sweeps planner corner cases (packing decisions, repacks, pad
 * propagation, memory reuse) no hand-written test enumerates.
 */

#include <gtest/gtest.h>

#include "gcl/compiler.h"
#include "runtime/device.h"
#include "x86/reference.h"

namespace ncore {
namespace {

QuantParams
randQp(Rng &rng)
{
    float lo = -0.5f - rng.nextFloat() * 3.0f;
    float hi = 0.5f + rng.nextFloat() * 3.0f;
    return chooseAsymmetricUint8(lo, hi);
}

TensorId
randConv(GraphBuilder &gb, Rng &rng, const std::string &name,
         TensorId in, bool allow_stride2)
{
    const GirTensor &x = gb.graph().tensor(in);
    int cin = int(x.shape.dim(3));
    int k = rng.nextBelow(2) ? 3 : 1;
    int stride = (allow_stride2 && k == 3 && rng.nextBelow(3) == 0 &&
                  x.shape.dim(2) >= 8)
                     ? 2
                     : 1;
    int pad = k == 3 ? 1 : 0;
    bool depthwise = k == 3 && rng.nextBelow(3) == 0;
    int cout = depthwise ? cin
                         : int(8 * (1 + rng.nextBelow(12))); // 8..96
    ActFn act = ActFn(rng.nextBelow(3)); // None/Relu/Relu6.

    QuantParams w_qp{0.01f + rng.nextFloat() * 0.03f,
                     int32_t(rng.nextRange(100, 156))};
    Shape w_shape = depthwise ? Shape{1, k, k, cin}
                              : Shape{cout, k, k, cin};
    Tensor w(w_shape, DType::UInt8, w_qp);
    w.fillRandom(rng);
    Tensor b(Shape{depthwise ? cin : cout}, DType::Int32);
    for (int64_t i = 0; i < b.numElements(); ++i)
        b.setIntAt(i, int32_t(rng.nextRange(-1500, 1500)));

    TensorId wid = gb.constant(name + "/w", w, w_qp);
    TensorId bid = gb.constant(name + "/b", b);
    if (depthwise)
        return gb.depthwiseConv2d(name, in, wid, bid, stride, stride,
                                  pad, pad, pad, pad, act, randQp(rng));
    return gb.conv2d(name, in, wid, bid, stride, stride, pad, pad, pad,
                     pad, act, randQp(rng));
}

Graph
randomNet(uint64_t seed)
{
    Rng rng(seed);
    GraphBuilder gb("fuzz" + std::to_string(seed));
    int h = 6 + int(rng.nextBelow(18));
    int w = 6 + int(rng.nextBelow(18));
    int c = int(8 * (1 + rng.nextBelow(6)));
    TensorId t = gb.input("x", Shape{1, h, w, c}, DType::UInt8,
                          randQp(rng));

    int layers = 3 + int(rng.nextBelow(5));
    TensorId residual = kNoTensor;
    for (int i = 0; i < layers; ++i) {
        std::string name = "l" + std::to_string(i);
        const Shape &cur = gb.graph().tensor(t).shape;

        // Occasionally open/close a residual connection.
        if (residual == kNoTensor && rng.nextBelow(3) == 0) {
            residual = t;
            t = randConv(gb, rng, name, t, false);
            // Keep geometry for the add: same channels, stride 1.
            const Shape &rs = gb.graph().tensor(residual).shape;
            if (!(gb.graph().tensor(t).shape == rs)) {
                // Project back to the residual's shape with a 1x1.
                QuantParams w_qp{0.02f, 128};
                Tensor w(Shape{rs.dim(3), 1, 1,
                               gb.graph().tensor(t).shape.dim(3)},
                         DType::UInt8, w_qp);
                w.fillRandom(rng);
                t = gb.conv2d(name + "/proj", t,
                              gb.constant(name + "/pw", w, w_qp),
                              kNoTensor, 1, 1, 0, 0, 0, 0, ActFn::None,
                              randQp(rng));
            }
            continue;
        }
        if (residual != kNoTensor) {
            t = gb.add(name + "/add", t, residual, ActFn::Relu,
                       randQp(rng));
            residual = kNoTensor;
            continue;
        }
        if (rng.nextBelow(5) == 0 && cur.dim(1) >= 6 &&
            cur.dim(2) >= 6) {
            t = gb.maxPool2d(name + "/mp", t, 3, 3, 2, 2, 1, 1, 1, 1);
            continue;
        }
        t = randConv(gb, rng, name, t, true);
    }
    if (residual != kNoTensor)
        t = gb.add("final/add", t, residual, ActFn::None, randQp(rng));

    gb.output(t);
    Graph g = gb.take();
    g.verify();
    return g;
}

class FuzzTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzTest, CompiledExecutionMatchesReference)
{
    uint64_t seed = uint64_t(GetParam());
    Graph g = randomNet(seed);

    Tensor x(g.tensor(g.inputs()[0]).shape, DType::UInt8,
             g.tensor(g.inputs()[0]).quant);
    Rng data_rng(seed * 31 + 7);
    x.fillRandom(data_rng);

    Loadable ld = compile(std::move(g));
    Tensor want = ReferenceExecutor(ld.graph).run({x})[0];

    NcoreDevice dev(LoadedModel::create(ld));
    InferenceResult res = dev.exec.infer({x});

    ASSERT_EQ(res.outputs[0].numElements(), want.numElements());
    int mismatches = 0;
    for (int64_t i = 0;
         i < want.numElements() && mismatches < 5; ++i) {
        if (res.outputs[0].intAt(i) != want.intAt(i)) {
            ADD_FAILURE() << "seed " << seed << " elem " << i << ": "
                          << res.outputs[0].intAt(i) << " vs "
                          << want.intAt(i);
            ++mismatches;
        }
    }
    ASSERT_EQ(mismatches, 0) << "seed " << seed << "\n"
                             << ld.graph.toString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(1, 33));

TEST(FuzzDiag, DISABLED_Seed8Intermediates)
{
    uint64_t dseed = 23;
    Graph g = randomNet(dseed);
    Tensor x(g.tensor(g.inputs()[0]).shape, DType::UInt8,
             g.tensor(g.inputs()[0]).quant);
    Rng data_rng(dseed * 31 + 7);
    x.fillRandom(data_rng);

    Loadable ld = compile(std::move(g));
    ReferenceExecutor ref(ld.graph);
    ref.run({x});

    NcoreDevice dev(LoadedModel::create(ld));
    NcoreRuntime &rt = dev.runtime;
    rt.invoke(0, {x});

    const CompiledSubgraph &sg = ld.subgraphs[0];
    for (const Node &n : ld.graph.nodes()) {
        TensorId out = n.outputs[0];
        if (!sg.layouts.count(out))
            continue;
        const TensorLayout &lay = sg.layouts.at(out);
        const GirTensor &desc = ld.graph.tensor(out);
        Tensor got(desc.shape, desc.dtype, desc.quant);
        std::vector<uint8_t> img(size_t(lay.rows()) * 4096);
        for (int r = 0; r < lay.rows(); ++r)
            rt.machine().hostReadRow(false, lay.baseRow + r,
                                     img.data() + size_t(r) * 4096);
        if (lay.kind != LayoutKind::Interleaved)
            continue;
        unpackActivation(img.data(), lay, got, 0);
        const Tensor &want = ref.valueOf(out);
        int bad = 0;
        for (int64_t i = 0; i < want.numElements(); ++i)
            if (got.intAt(i) != want.intAt(i))
                ++bad;
        const TensorLayout &inl = sg.layouts.at(n.inputs[0]);
        std::printf("%-12s %-16s (%s) in[kind=%d packed=%d pitch=%d "
                    "ny=%d] out[packed=%d pitch=%d ny=%d] "
                    "mismatches %d / %lld\n",
                    n.name.c_str(), opKindName(n.kind),
                    desc.shape.toString().c_str(), int(inl.kind),
                    inl.packed(), inl.pitch, inl.ny, lay.packed(),
                    lay.pitch, lay.ny, bad,
                    (long long)want.numElements());
    }
}

} // namespace
} // namespace ncore
