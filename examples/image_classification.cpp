/**
 * @file
 * Image classification on MobileNet-V1: the full production flow the
 * paper evaluates — quantized model compiled by the GCL (weights
 * promoted to persistent on-chip SRAM), delegate execution with the
 * classifier on Ncore and the softmax on the x86 cores, top-5 readout
 * and the latency breakdown of paper Table IX.
 *
 * Run: ./build/examples/image_classification
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "gcl/compiler.h"
#include "models/zoo.h"
#include "runtime/device.h"

using namespace ncore;

int
main()
{
    std::printf("building MobileNet-V1 (synthetic weights)...\n");
    SharedModel model = LoadedModel::create(compile(buildMobileNetV1()));
    const Loadable &loadable = model->loadable();
    std::printf("  weights persistent on-chip: %s (paper: yes for "
                "MobileNet)\n",
                loadable.subgraphs[0].weightsPersistent ? "yes" : "no");

    NcoreDevice dev(model);

    // A synthetic 224x224 image (deterministic).
    const GirTensor &in_desc =
        loadable.graph.tensor(loadable.graph.inputs()[0]);
    Tensor image(in_desc.shape, DType::UInt8, in_desc.quant);
    Rng rng(2026);
    image.fillRandom(rng);

    std::printf("running inference on the simulated Ncore "
                "(cycle-accurate; takes a few seconds)...\n");
    InferenceResult res = dev.exec.infer({image});

    // Top-5 classes from the softmax output.
    const Tensor &probs = res.outputs.at(0);
    std::vector<std::pair<float, int>> ranked;
    for (int c = 0; c < int(probs.numElements()); ++c)
        ranked.push_back({probs.realAt(c), c});
    std::partial_sort(ranked.begin(), ranked.begin() + 5, ranked.end(),
                      std::greater<>());
    std::printf("\ntop-5 classes:\n");
    for (int i = 0; i < 5; ++i)
        std::printf("  class %4d  p=%.4f\n", ranked[size_t(i)].second,
                    ranked[size_t(i)].first);

    double total_ms = res.timing.total() * 1e3;
    std::printf("\nlatency breakdown (single batch, one x86 core):\n");
    std::printf("  Ncore portion: %6.3f ms (%llu cycles, %.1f%% MAC "
                "utilization)\n",
                res.timing.ncoreSeconds * 1e3,
                (unsigned long long)res.timing.ncoreCycles,
                100.0 * double(res.timing.ncoreMacs) /
                    (double(res.timing.ncoreCycles) * 4096.0));
    std::printf("  x86 portion:   %6.3f ms (kernels %0.3f + layout "
                "%0.3f + framework %0.3f)\n",
                res.timing.x86Seconds() * 1e3,
                res.timing.x86OpSeconds * 1e3,
                res.timing.layoutSeconds * 1e3,
                res.timing.frameworkSeconds * 1e3);
    std::printf("  total:         %6.3f ms (paper single-batch "
                "MobileNet: 0.33 ms)\n",
                total_ms);
    return 0;
}
