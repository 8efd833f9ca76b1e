/**
 * @file
 * Ablation: datatype choice (paper II-A6 and Table I). Measures
 * sustained MAC throughput per supported datatype on the cycle
 * simulator and shows the accuracy/performance tradeoff the designers
 * describe: int8/uint8 as the primary inference types, bfloat16 as the
 * no-retraining fallback (3 clocks), int16 for wide-range intermediate
 * precision (4 clocks).
 */

#include <cstdio>

#include "bench/table_util.h"
#include "x86/cost_model.h"

int
main()
{
    using namespace ncore;
    printTitle("Ablation -- datatypes (paper Table I options: INT8 / "
               "UINT8 / INT16 / BFloat16 selected; FP32 rejected)");
    std::printf("%-10s %10s %12s %14s %s\n", "Type", "clocks",
                "GOPS (meas)", "GNMT est. ms", "role (paper II-A6)");

    struct RowDef
    {
        LaneType t;
        const char *name;
        const char *role;
    };
    const RowDef defs[3] = {
        {LaneType::U8, "uint8",
         "primary inference type (quantized, no retraining)"},
        {LaneType::BF16, "bf16",
         "fallback for accuracy-sensitive nets; GNMT ran in bf16"},
        {LaneType::I16, "int16",
         "wide-range intermediates between int8 stages"},
    };
    const double gnmt_gmacs = 3.9; // Table V characterization.
    for (const RowDef &d : defs) {
        double gops = measureDenseMacGops(chaNcoreConfig(), d.t, 2048);
        double est_ms = gnmt_gmacs * 2.0 / gops * 1e3;
        std::printf("%-10s %10d %12.0f %14.2f %s\n", d.name,
                    npuClocksForDtype(d.t == LaneType::U8
                                          ? DType::UInt8
                                          : d.t == LaneType::BF16
                                                ? DType::BFloat16
                                                : DType::Int16),
                    gops, est_ms, d.role);
    }
    std::printf("\nbf16 costs 3x the clocks of int8 (Table II: 6,826 "
                "vs 20,480 GOPS) but avoids quantization-aware "
                "retraining — the tradeoff that let GNMT ship on "
                "schedule (paper VI-B).\n");
    return 0;
}
