/**
 * @file
 * Quickstart: the minimal end-to-end flow of the Ncore stack.
 *
 *   1. Describe a small quantized network in the GIR.
 *   2. Compile it with the GCL (passes, partitioning, layouts,
 *      memory planning, NKL code generation -> Loadable).
 *   3. Bring up the simulated device (kernel driver power-up and
 *      self-test) and load the model with the user-mode runtime.
 *   4. Run an inference through the delegate executor and inspect
 *      the outputs and the timing breakdown.
 *
 * Build: cmake -B build -G Ninja && cmake --build build
 * Run:   ./build/examples/quickstart
 */

#include <cstdio>

#include "gcl/compiler.h"
#include "runtime/device.h"

using namespace ncore;

int
main()
{
    // ---- 1. Describe a tiny conv network -------------------------
    GraphBuilder gb("quickstart");
    QuantParams in_qp = chooseAsymmetricUint8(-1.0f, 1.0f);
    QuantParams w_qp{0.02f, 128};
    QuantParams out_qp = chooseAsymmetricUint8(-2.0f, 2.0f);

    TensorId x =
        gb.input("image", Shape{1, 32, 32, 16}, DType::UInt8, in_qp);

    Rng rng(7);
    Tensor w(Shape{32, 3, 3, 16}, DType::UInt8, w_qp);
    w.fillRandom(rng);
    Tensor b(Shape{32}, DType::Int32);
    for (int i = 0; i < 32; ++i)
        b.setIntAt(i, int32_t(rng.nextRange(-500, 500)));

    TensorId conv = gb.conv2d("conv", x, gb.constant("w", w, w_qp),
                              gb.constant("b", b), 1, 1, 1, 1, 1, 1,
                              ActFn::Relu, out_qp);
    TensorId pool = gb.maxPool2d("pool", conv, 2, 2, 2, 2, 0, 0, 0, 0);
    gb.output(pool);
    Graph g = gb.take();
    g.verify();

    // ---- 2. Compile to an Ncore Loadable --------------------------
    SharedModel model = LoadedModel::create(compile(std::move(g)));
    const CompiledSubgraph &sg = model->loadable().subgraphs.at(0);
    std::printf("compiled: %zu instructions, %d data-RAM rows, "
                "%d weight-RAM rows, weights %s\n",
                sg.code.size(), sg.dataRowsUsed, sg.weightRowsUsed,
                sg.weightsPersistent ? "persistent on-chip"
                                     : "DMA-streamed");

    // ---- 3. Bring up the device ----------------------------------
    // NcoreDevice stops the program if the ROM self-test fails.
    NcoreDevice dev(model);
    std::printf("device: vendor 0x%04x class 0x%06x, self-test PASS\n",
                dev.driver.identity().vendorId,
                dev.driver.identity().classCode);

    // ---- 4. Infer --------------------------------------------------
    Tensor image(Shape{1, 32, 32, 16}, DType::UInt8, in_qp);
    image.fillRandom(rng);

    InferenceResult res = dev.exec.infer({image});

    const Tensor &out = res.outputs.at(0);
    std::printf("output shape %s, first values:",
                out.shape().toString().c_str());
    for (int i = 0; i < 8; ++i)
        std::printf(" %.3f", out.realAt(i));
    std::printf("\n");

    std::printf("timing: Ncore %.1f us (%llu cycles, %llu MACs), "
                "x86 %.1f us, total %.1f us\n",
                res.timing.ncoreSeconds * 1e6,
                (unsigned long long)res.timing.ncoreCycles,
                (unsigned long long)res.timing.ncoreMacs,
                res.timing.x86Seconds() * 1e6,
                res.timing.total() * 1e6);
    return 0;
}
