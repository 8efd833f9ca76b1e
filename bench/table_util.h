/**
 * @file
 * Helpers shared by the table/figure benches: fixed-width table
 * rendering, ASCII log-scale bar charts (Figs 11/12 render
 * multi-order-of-magnitude comparisons on a log axis) and the dense-MAC
 * probe behind the peak-throughput tables.
 */

#ifndef NCORE_BENCH_TABLE_UTIL_H
#define NCORE_BENCH_TABLE_UTIL_H

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/machine.h"
#include "ncore/machine.h"

namespace ncore {

inline void
printRule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

inline void
printTitle(const std::string &title)
{
    std::printf("\n");
    printRule();
    std::printf("%s\n", title.c_str());
    printRule();
}

/** Format a value that may be absent (negative = '-'). */
inline std::string
cell(double v, int decimals = 2)
{
    if (v < 0)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

/** One horizontal log-scale bar. */
inline void
printLogBar(const std::string &label, double value, double lo, double hi,
            const char *unit)
{
    const int width = 46;
    std::string bar;
    if (value > 0) {
        double f = (std::log10(value) - std::log10(lo)) /
                   (std::log10(hi) - std::log10(lo));
        f = std::fmin(std::fmax(f, 0.0), 1.0);
        bar.assign(size_t(1 + f * (width - 1)), '#');
    }
    std::printf("  %-24s |%-*s| %s %s\n", label.c_str(), width,
                bar.c_str(), value > 0 ? cell(value).c_str() : "-",
                value > 0 ? unit : "");
}

/**
 * Sustained MAC GOPS of `cfg` for one lane type, measured on the cycle
 * simulator: AccZero, one back-to-back Rep MAC of `reps` iterations,
 * Halt; lane-MACs per simulated second.
 */
inline double
measureDenseMacGops(const MachineConfig &cfg, LaneType type,
                    uint32_t reps)
{
    Machine m(cfg, chaSocConfig());

    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    Instruction mac;
    mac.ctrl.op = CtrlOp::Rep;
    mac.ctrl.imm = reps;
    mac.dataRead.enable = true;
    mac.weightRead.enable = true;
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = type;
    mac.npu.a = RowSrc::DataRead;
    mac.npu.b = RowSrc::WeightRead;
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;

    std::vector<EncodedInstruction> enc;
    for (const Instruction &in : {zero, mac, halt})
        enc.push_back(encodeInstruction(in));
    m.writeIram(0, enc);
    m.clearPerf();
    m.start(0);
    m.run();

    double ops = 2.0 * double(m.perf().macOps);
    double seconds = double(m.perf().cycles) / cfg.clockHz;
    return ops / seconds / 1e9;
}

} // namespace ncore

#endif // NCORE_BENCH_TABLE_UTIL_H
