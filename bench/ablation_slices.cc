/**
 * @file
 * Ablation: slice count. The paper stresses that Ncore's slice-based
 * layout "could be easily modified to fit whatever area in CHA would
 * eventually be reserved" (IV-B) — the SIMD row is easy to slice and
 * expand. This bench instantiates the machine at 8/16/32 slices,
 * measures sustained MAC throughput on the cycle simulator, and shows
 * the area/throughput tradeoff the designers navigated.
 */

#include <cstdio>

#include "bench/table_util.h"
#include "x86/cost_model.h"

int
main()
{
    using namespace ncore;
    printTitle("Ablation -- slice count (the paper's 'easy to slice "
               "and expand' design axis)");
    std::printf("%-8s %10s %10s %12s %12s %14s\n", "Slices", "Row B",
                "SRAM MB", "int8 GOPS", "bf16 GOPS", "vs 16 slices");

    const int counts[3] = {8, 16, 32};
    double gops[3];
    for (int i = 0; i < 3; ++i) {
        MachineConfig cfg = chaNcoreConfig();
        cfg.slices = counts[i];
        gops[i] = measureDenseMacGops(cfg, LaneType::U8, 2048);
    }
    const double base = gops[1];
    for (int i = 0; i < 3; ++i) {
        MachineConfig cfg = chaNcoreConfig();
        cfg.slices = counts[i];
        std::printf("%-8d %10d %10lld %12.0f %12.0f %13.2fx\n",
                    counts[i], cfg.rowBytes(),
                    (long long)((cfg.dataRamBytes() +
                                 cfg.weightRamBytes()) >>
                                20),
                    gops[i],
                    ncorePeakGops(DType::BFloat16, cfg.lanes()),
                    gops[i] / base);
    }

    std::printf("\nCompute throughput scales linearly with slices; the "
                "DRAM interface (%.1f GB/s) does not, so weight-"
                "streamed layers become bandwidth-bound: at 32 slices "
                "a layer needs %.1f MACs/weight-byte to stay "
                "compute-bound (16 slices: half that).\n",
                chaSocConfig().dramPeakBytesPerSec / 1e9,
                32.0 * 256.0 * 2.5e9 /
                    (chaSocConfig().dramPeakBytesPerSec * 0.85));
    std::printf("The shipped 16-slice / 16 MB point matches the area "
                "actually reserved in CHA (34.4 mm2, 17%% of the "
                "die).\n");
    return 0;
}
