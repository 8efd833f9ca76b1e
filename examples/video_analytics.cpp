/**
 * @file
 * Real-time video analytics with SSD-MobileNet-V1: the application
 * the paper's introduction motivates (CHA "is particularly well-suited
 * to edge servers and ... real-time video analytics"; Ncore "has been
 * deployed in third-party video analytics prototypes").
 *
 * Processes a short synthetic frame sequence: the detector backbone
 * and heads run on Ncore (the 300x300 input fully resident in the
 * GroupedRf stem layout), and the SSD tail — score sigmoid and
 * non-maximum suppression over 1917 anchors x 91 classes — runs on
 * the x86 cores, exactly the split that dominates SSD's x86 latency
 * share in paper Table IX.
 *
 * Run: ./build/examples/video_analytics [frames]
 */

#include <cstdio>
#include <cstdlib>

#include "gcl/compiler.h"
#include "mlperf/pipeline.h"
#include "models/zoo.h"
#include "runtime/device.h"

using namespace ncore;

int
main(int argc, char **argv)
{
    int frames = argc > 1 ? std::atoi(argv[1]) : 2;
    if (frames < 1)
        frames = 1;

    std::printf("building SSD-MobileNet-V1 (300x300, 91 classes)...\n");
    SharedModel model = LoadedModel::create(compile(buildSsdMobileNetV1()));
    const Loadable &loadable = model->loadable();
    const CompiledSubgraph &stem_sg = loadable.subgraphs[0];
    const TensorLayout &in_lay = stem_sg.layouts.at(stem_sg.inputs[0]);
    std::printf("  input layout %s, %d data-RAM rows\n",
                in_lay.kind == LayoutKind::GroupedRf ? "GroupedRf"
                : in_lay.dense                       ? "dense"
                                                     : "Interleaved",
                in_lay.rows());

    NcoreDevice dev(model);

    const GirTensor &in_desc =
        loadable.graph.tensor(loadable.graph.inputs()[0]);

    InferenceTiming last;
    Rng rng(31);
    for (int f = 0; f < frames; ++f) {
        Tensor frame(in_desc.shape, DType::UInt8, in_desc.quant);
        frame.fillRandom(rng);
        std::printf("frame %d: running detector (cycle-accurate "
                    "simulation; ~10s)...\n",
                    f);
        InferenceResult res = dev.exec.infer({frame});
        last = res.timing;

        // Detections: rows of {class, score, y1, x1, y2, x2}.
        const Tensor &dets = res.outputs.at(0);
        int shown = 0;
        for (int i = 0; i < dets.shape().dim(0) && shown < 5; ++i) {
            float cls = dets.floatAt(i * 6 + 0);
            if (cls < 0)
                break;
            std::printf("  det: class %3.0f  score %.3f  box "
                        "[%.2f %.2f %.2f %.2f]\n",
                        cls, dets.floatAt(i * 6 + 1),
                        dets.floatAt(i * 6 + 2), dets.floatAt(i * 6 + 3),
                        dets.floatAt(i * 6 + 4),
                        dets.floatAt(i * 6 + 5));
            ++shown;
        }
        if (shown == 0)
            std::printf("  (no detections above threshold on this "
                        "synthetic frame)\n");
    }

    double frame_ms = (last.ncoreSeconds + last.x86Seconds()) * 1e3;
    std::printf("\nper-frame latency: %.2f ms (Ncore %.2f + x86 %.2f; "
                "paper single-batch SSD: 1.54 ms)\n",
                frame_ms, last.ncoreSeconds * 1e3,
                last.x86Seconds() * 1e3);

    WorkloadProfile prof;
    prof.ncoreSeconds = last.ncoreSeconds;
    prof.x86Seconds = last.x86Seconds();
    prof.batchingSupported = true; // Post-deadline batched NMS.
    std::printf("sustained stream capacity on 8 cores with batched "
                "post-processing: %.0f frames/sec\n",
                observedIps(prof, 8));
    return 0;
}
