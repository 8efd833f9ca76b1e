/**
 * @file
 * Regenerates paper Table II: peak throughput (GOPS) of one CNS x86
 * core vs Ncore at 2.5 GHz across datatypes. The analytic peaks come
 * from the machine parameters; the Ncore int8 and bf16 numbers are
 * additionally *measured* by running a dense MAC loop on the cycle
 * simulator and counting lane-MACs per cycle.
 */

#include <cstdio>

#include "bench/table_util.h"
#include "x86/cost_model.h"

int
main()
{
    using namespace ncore;

    printTitle("Table II -- Peak Throughput (GOPS/sec), paper vs this "
               "reproduction");
    std::printf("%-22s %10s %10s %10s\n", "Processor", "8b", "bfloat16",
                "FP32");
    std::printf("%-22s %10.0f %10.0f %10.0f   (analytic, Table II: "
                "106 / 80 / 80)\n",
                "1x CNS x86 2.5GHz", cnsPeakGops(DType::Int8),
                cnsPeakGops(DType::BFloat16),
                cnsPeakGops(DType::Float32));
    std::printf("%-22s %10.0f %10.0f %10s   (analytic, Table II: "
                "20,480 / 6,826 / N/A)\n",
                "Ncore 2.5GHz", ncorePeakGops(DType::Int8),
                ncorePeakGops(DType::BFloat16), "N/A");

    const MachineConfig cfg = chaNcoreConfig();
    double meas8 = measureDenseMacGops(cfg, LaneType::U8, 4096);
    double measbf = measureDenseMacGops(cfg, LaneType::BF16, 4096);
    double meas16 = measureDenseMacGops(cfg, LaneType::I16, 4096);
    std::printf("%-22s %10.0f %10.0f %10s   (measured on the cycle "
                "simulator; int16 = %.0f)\n",
                "Ncore (measured)", meas8, measbf, "N/A", meas16);

    std::printf("\nShape check: Ncore int8 peak is %.0fx one CNS "
                "core's (paper: ~193x).\n",
                ncorePeakGops(DType::Int8) / cnsPeakGops(DType::Int8));
    return 0;
}
