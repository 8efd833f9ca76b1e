/**
 * @file
 * Regenerates the paper's evaluation (section VI) from one measurement:
 * Tables VII-IX, Figs. 11-14 and the batching ablation are all computed
 * from the same four workload profiles, so main() simulates them once
 * and prints each table/figure in turn. Exits non-zero when a shape
 * check fails: MobileNet and ResNet-50 have the lowest latency of the
 * integrated submissions (Table VII), the right portion dominates each
 * model (Table IX), saturation core counts are within +/-1 of the paper
 * (Fig. 13), observed <= expected (Fig. 14).
 *
 *   paper_eval              all tables, figures and shape checks
 *   paper_eval --markdown   only the "ours" rows of Tables VII-IX, as
 *                           EXPERIMENTS.md writes them
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/table_util.h"
#include "bench/vendor_data.h"
#include "mlperf/loadgen.h"
#include "mlperf/profiles.h"

namespace ncore {
namespace {

/** Our Table VII row: SingleStream p90 latency (ms) per CNN workload
 *  (GNMT was not submitted in SingleStream: memory-bound, Offline
 *  only — paper VI-A). */
std::array<double, 3>
oursLatencyMs(const std::vector<WorkloadProfile> &profiles)
{
    std::array<double, 3> ours{};
    for (int i = 0; i < 3; ++i) {
        const WorkloadProfile &p = profiles[size_t(i)];
        SingleStreamResult ss = runSingleStream(
            [&](int) { return singleStreamSeconds(p); }, 256);
        ours[size_t(i)] = ss.p90 * 1e3;
    }
    return ours;
}

/** Our Table VIII row: Offline IPS per workload at 8 cores. */
std::array<double, 4>
oursThroughputIps(const std::vector<WorkloadProfile> &profiles)
{
    std::array<double, 4> ours{};
    for (int i = 0; i < 4; ++i)
        ours[size_t(i)] = observedIps(profiles[size_t(i)], 8);
    return ours;
}

/**
 * Regenerates paper Table VII and Fig. 11: SingleStream latency of the
 * integrated chip-vendor MLPerf v0.5 submissions. Ncore's rows come
 * from the cycle-accurate simulation (through the MLPerf-style
 * SingleStream scenario, p90 over jittered queries); the other
 * systems' rows are their published submissions, exactly as the paper
 * quotes them.
 */
bool
table7Fig11Latency(const std::vector<WorkloadProfile> &profiles)
{
    const std::array<double, 3> ours = oursLatencyMs(profiles);

    printTitle("Table VII -- SingleStream latency (ms): measured Ncore "
               "vs published submissions");
    std::printf("%-26s %12s %12s %14s %8s\n", "System", "MobileNetV1",
                "ResNet50", "SSD-MobileNet", "GNMT");
    std::printf("%-26s %12s %12s %14s %8s\n", "Centaur Ncore (ours)",
                cell(ours[0]).c_str(), cell(ours[1]).c_str(),
                cell(ours[2]).c_str(), "-");
    VendorRow paper = paperNcoreLatency();
    std::printf("%-26s %12s %12s %14s %8s\n", paper.system,
                cell(paper.values[0]).c_str(),
                cell(paper.values[1]).c_str(),
                cell(paper.values[2]).c_str(), "-");
    int n = 0;
    const VendorRow *rows = publishedLatencies(&n);
    for (int i = 0; i < n; ++i)
        std::printf("%-26s %12s %12s %14s %8s\n", rows[i].system,
                    cell(rows[i].values[0]).c_str(),
                    cell(rows[i].values[1]).c_str(),
                    cell(rows[i].values[2]).c_str(),
                    cell(rows[i].values[3]).c_str());

    // Fig. 11: log-scale latency chart per model.
    const char *models[3] = {"MobileNet-V1", "ResNet-50-V1.5",
                             "SSD-MobileNet-V1"};
    printTitle("Fig. 11 -- Latency (ms, log scale)");
    for (int m = 0; m < 3; ++m) {
        std::printf("\n%s:\n", models[m]);
        printLogBar("Ncore (ours)", ours[m], 0.1, 20.0, "ms");
        printLogBar("Ncore (paper)", paper.values[m], 0.1, 20.0, "ms");
        for (int i = 0; i < n; ++i)
            printLogBar(rows[i].system, rows[i].values[m], 0.1, 20.0,
                        "ms");
    }

    // Shape criteria from the paper's evaluation.
    bool best_mobilenet = true;
    const VendorRow *resnet_rival = nullptr; // Fastest other ResNet.
    for (int i = 0; i < n; ++i) {
        if (rows[i].values[0] > 0 && rows[i].values[0] < ours[0])
            best_mobilenet = false;
        if (rows[i].values[1] > 0 &&
            (!resnet_rival || rows[i].values[1] < resnet_rival->values[1]))
            resnet_rival = &rows[i];
    }
    std::printf("\nShape check -- lowest MobileNet-V1 latency of all "
                "integrated submissions: %s (paper: yes)\n",
                best_mobilenet ? "yes" : "NO");
    const bool best_resnet = ours[1] < resnet_rival->values[1];
    std::printf("Shape check -- lowest ResNet-50 latency: %s — ours "
                "%.3f ms vs %s %.2f ms, gap %+.3f ms (paper: yes)\n",
                best_resnet ? "yes" : "NO", ours[1],
                resnet_rival->system, resnet_rival->values[1],
                ours[1] - resnet_rival->values[1]);
    return best_mobilenet && best_resnet;
}

/**
 * Regenerates paper Table VIII and Fig. 12: Offline throughput of the
 * integrated chip-vendor submissions. Ncore's numbers come from the
 * measured workload components composed through the multicore
 * batching pipeline (8 cores, paper VI-C): MobileNet and ResNet were
 * run multi-batched; SSD ran single-batch (its NMS lacked batching at
 * submission time); GNMT ran Offline through the TF stack.
 */
void
table8Fig12Throughput(const std::vector<WorkloadProfile> &profiles)
{
    const std::array<double, 4> ours = oursThroughputIps(profiles);

    printTitle("Table VIII -- Offline throughput (inputs/sec): "
               "measured Ncore vs published submissions");
    std::printf("%-26s %12s %12s %14s %8s\n", "System", "MobileNetV1",
                "ResNet50", "SSD-MobileNet", "GNMT");
    std::printf("%-26s %12s %12s %14s %8s\n", "Centaur Ncore (ours)",
                cell(ours[0]).c_str(), cell(ours[1]).c_str(),
                cell(ours[2]).c_str(), cell(ours[3]).c_str());
    VendorRow paper = paperNcoreThroughput();
    std::printf("%-26s %12s %12s %14s %8s\n", paper.system,
                cell(paper.values[0]).c_str(),
                cell(paper.values[1]).c_str(),
                cell(paper.values[2]).c_str(),
                cell(paper.values[3]).c_str());
    int n = 0;
    const VendorRow *rows = publishedThroughputs(&n);
    for (int i = 0; i < n; ++i)
        std::printf("%-26s %12s %12s %14s %8s\n", rows[i].system,
                    cell(rows[i].values[0]).c_str(),
                    cell(rows[i].values[1]).c_str(),
                    cell(rows[i].values[2]).c_str(),
                    cell(rows[i].values[3]).c_str());

    const char *models[4] = {"MobileNet-V1", "ResNet-50-V1.5",
                             "SSD-MobileNet-V1", "GNMT"};
    std::printf("\nNcore time per input behind the (ours) row:\n");
    for (int m = 0; m < 4; ++m) {
        const WorkloadProfile &p = profiles[size_t(m)];
        std::printf("  %-18s %9.3f ms  %s\n", models[m],
                    p.ncoreSeconds * 1e3,
                    p.ncoreModeled
                        ? "modeled (batch-64 max(MAC, DMA) cost model, "
                          "not simulated cycles)"
                        : "simulated");
    }
    printTitle("Fig. 12 -- Throughput (inputs/sec, log scale)");
    for (int m = 0; m < 4; ++m) {
        std::printf("\n%s:\n", models[m]);
        printLogBar("Ncore (ours)", ours[m], 10.0, 40000.0, "IPS");
        printLogBar("Ncore (paper)", paper.values[m], 10.0, 40000.0,
                    "IPS");
        for (int i = 0; i < n; ++i)
            printLogBar(rows[i].system, rows[i].values[m], 10.0,
                        40000.0, "IPS");
    }

    // Per-unit comparisons the paper highlights (VI-B).
    double per_ice = 10567.20 / 24.0; // 2x NNP-I = 24 ICEs.
    double per_xeon = 5965.62 / 112.0;
    std::printf("\nShape check -- ResNet-50 per 4096-byte engine: "
                "Ncore %.0f vs NNP-I ICE %.0f IPS -> %.2fx "
                "(paper: 2.77x)\n",
                ours[1], per_ice, ours[1] / per_ice);
    std::printf("Shape check -- Ncore ResNet-50 equals %.1f "
                "VNNI Xeon cores (paper: ~23)\n",
                ours[1] / per_xeon);
    std::printf("Shape check -- MobileNet within ~10%% of AGX Xavier: "
                "ratio %.2f (paper: 0.93)\n",
                ours[0] / 6520.75);
}

/**
 * Regenerates paper Table IX: the Ncore vs x86 portions of each CNN's
 * single-batch latency. Following the paper's methodology, the Ncore
 * portion is measured with Ncore's built-in event logging (the
 * subgraph start/end markers the GCL emits) and the x86 portion is
 * the remainder of the SingleStream latency.
 */
bool
table9LatencyBreakdown(const std::vector<WorkloadProfile> &profiles)
{
    printTitle("Table IX -- Proportions of x86 and Ncore work in "
               "single-batch latency (measured | paper)");
    std::printf("%-18s %9s %16s %16s  | %7s %14s %14s\n", "Model",
                "Total", "Ncore portion", "x86 portion", "Total",
                "Ncore", "x86");

    int pn = 0;
    const BreakdownRow *paper = paperBreakdown(&pn);
    bool order_ok = true;

    double shares[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
        const WorkloadProfile &p = profiles[size_t(i)];
        double total = singleStreamSeconds(p) * 1e3;
        double nc = p.ncoreSeconds * 1e3;
        double x = p.x86Seconds * 1e3;
        shares[i] = x / total;
        std::printf("%-18s %7.2fms %9.2fms (%2.0f%%) %9.2fms (%2.0f%%)"
                    "  | %5.2fms %7.2fms (%2.0f%%) %5.2fms (%2.0f%%)\n",
                    workloadName(Workload(i)), total, nc,
                    100.0 * nc / total, x, 100.0 * x / total,
                    paper[i].totalMs, paper[i].ncoreMs,
                    100.0 * paper[i].ncoreMs / paper[i].totalMs,
                    paper[i].x86Ms,
                    100.0 * paper[i].x86Ms / paper[i].totalMs);
    }

    // Shape: ResNet is Ncore-dominated; MobileNet and SSD are
    // x86-dominated, SSD most of all (NMS).
    order_ok &= shares[1] < 0.5;            // ResNet mostly Ncore.
    order_ok &= shares[0] > 0.5;            // MobileNet mostly x86.
    order_ok &= shares[2] > shares[0];      // SSD worst (NMS tail).
    std::printf("\nShape check -- ResNet Ncore-dominated, MobileNet "
                "x86-dominated, SSD the most x86-bound: %s\n",
                order_ok ? "yes" : "NO");

    std::printf("\nBatching speedups implied (paper VI-C: ~2x "
                "MobileNet, ~1.3x ResNet, ~1x SSD):\n");
    for (int i = 0; i < 3; ++i) {
        const WorkloadProfile &p = profiles[size_t(i)];
        double single = 1.0 / singleStreamSeconds(p);
        double batched = observedIps(p, 8);
        std::printf("  %-18s %5.2fx\n", workloadName(Workload(i)),
                    batched / single);
    }
    return order_ok;
}

/**
 * Regenerates paper Fig. 13: expected maximum MLPerf throughput as a
 * function of x86 core count, assuming batching hides the x86 work
 * behind Ncore's latency. Derived from the measured Table IX
 * components through the pipeline model (one core drives Ncore; the
 * rest process pre/post/framework work concurrently).
 */
bool
fig13ExpectedScaling(const std::vector<WorkloadProfile> &profiles)
{
    printTitle("Fig. 13 -- Expected max throughput (IPS) vs x86 core "
               "count");
    std::printf("%-6s %14s %14s %16s\n", "Cores", "MobileNetV1",
                "ResNet50", "SSD-MobileNet");
    for (int cores = 1; cores <= 8; ++cores) {
        std::printf("%-6d %14.0f %14.0f %16.0f\n", cores,
                    expectedIps(profiles[0], cores),
                    expectedIps(profiles[1], cores),
                    expectedIps(profiles[2], cores));
    }

    std::printf("\nCores to reach the expected maximum "
                "(paper: ResNet 2, MobileNet 4, SSD 5):\n");
    const int paper_cores[3] = {4, 2, 5};
    bool ok = true;
    for (int i = 0; i < 3; ++i) {
        int c = coresToSaturate(profiles[size_t(i)]);
        std::printf("  %-18s %d (paper: %d)\n",
                    workloadName(Workload(i)), c, paper_cores[i]);
        ok &= c >= paper_cores[i] - 1 && c <= paper_cores[i] + 1;
    }
    std::printf("\nShape check -- saturation core counts within +/-1 "
                "of the paper: %s\n",
                ok ? "yes" : "NO");
    return ok;
}

/**
 * Regenerates paper Fig. 14: observed MLPerf throughput vs x86 core
 * count. Unlike the idealized Fig. 13 curves, the observed ones
 * saturate below the expected maximum because of x86 overhead not
 * attributable to TFLite or MLPerf accounting (paper VI-C); the
 * pipeline model carries that as the calibrated unhidden serial term.
 * SSD ran single-batch (no NMS batching), so its curve is flat.
 */
bool
fig14ObservedScaling(const std::vector<WorkloadProfile> &profiles)
{
    printTitle("Fig. 14 -- Observed throughput (IPS) vs x86 core "
               "count (batched MobileNet/ResNet; single-batch SSD)");
    std::printf("%-6s %14s %14s %16s\n", "Cores", "MobileNetV1",
                "ResNet50", "SSD-MobileNet");
    for (int cores = 1; cores <= 8; ++cores) {
        std::printf("%-6d %14.0f %14.0f %16.0f\n", cores,
                    observedIps(profiles[0], cores),
                    observedIps(profiles[1], cores),
                    observedIps(profiles[2], cores));
    }

    std::printf("\nObserved asymptote vs expected maximum "
                "(the Fig. 13/14 gap):\n");
    bool gap_ok = true;
    for (int i = 0; i < 3; ++i) {
        const WorkloadProfile &p = profiles[size_t(i)];
        double obs = observedIps(p, 8);
        double exp = expectedIps(p, 8);
        std::printf("  %-18s observed %7.0f / expected %7.0f = "
                    "%4.0f%%\n",
                    workloadName(Workload(i)), obs, exp,
                    100.0 * obs / exp);
        gap_ok &= obs <= exp + 1e-9;
    }
    std::printf("\nShape check -- observed curves saturate at or below "
                "expected: %s\n",
                gap_ok ? "yes" : "NO");

    // Paper anchor points for the asymptotes.
    std::printf("Paper observed asymptotes: MobileNet 6042, ResNet "
                "1218, SSD 652 IPS.\n");
    return gap_ok;
}

/**
 * Ablation: x86-side batching (paper VI-C). Offline throughput with
 * the multicore batching pipeline on vs single-batch execution, per
 * workload — reproducing the paper's observation that batching buys
 * ~2x on MobileNet (x86-dominated), ~1.3x on ResNet (Ncore-dominated)
 * and nothing on SSD at submission time (NMS had no batching), plus
 * the post-deadline SSD upside the paper reports (~2-3x).
 */
void
ablationBatching(const std::vector<WorkloadProfile> &profiles)
{
    printTitle("Ablation -- multicore batching of the x86 work "
               "(8 cores)");
    std::printf("%-18s %14s %14s %9s %s\n", "Model", "single-batch",
                "batched IPS", "speedup", "(paper)");
    const char *paper[3] = {"~2x", "~1.3x", "1x (3x after fixes)"};
    for (int i = 0; i < 3; ++i) {
        WorkloadProfile p = profiles[size_t(i)];
        double single = 1.0 / singleStreamSeconds(p);
        p.batchingSupported = true;
        double batched = observedIps(p, 8);
        if (i == 2) {
            // SSD as submitted: no NMS batching.
            std::printf("%-18s %14.0f %14.0f %8.2fx %s\n",
                        workloadName(Workload(i)), single, single,
                        1.0, "(submitted)");
        }
        std::printf("%-18s %14.0f %14.0f %8.2fx paper %s\n",
                    workloadName(Workload(i)), single, batched,
                    batched / single, paper[i]);
    }

    std::printf("\nBatching hides the x86 share behind Ncore, so the "
                "speedup tracks each network's x86 fraction "
                "(Table IX): the more x86-bound, the more batching "
                "buys.\n");
}

/** `v` rounded to an integer with thousands separators: 4,508. */
std::string
thousands(double v)
{
    const std::string digits = std::to_string(std::llround(v));
    std::string out;
    for (size_t i = 0; i < digits.size(); ++i) {
        if (i > 0 && (digits.size() - i) % 3 == 0)
            out += ',';
        out += digits[i];
    }
    return out;
}

/**
 * Print the "ours" rows of Tables VII, VIII and IX exactly as
 * EXPERIMENTS.md writes them (ctest Bench.experiments_rows requires
 * each line verbatim in that file).
 */
void
printMarkdownRows(const std::vector<WorkloadProfile> &profiles)
{
    const std::array<double, 3> lat = oursLatencyMs(profiles);
    std::printf("| **Ncore (ours, simulated)** | **%.2f** | **%.2f** | "
                "**%.2f** |\n",
                lat[0], lat[1], lat[2]);

    const std::array<double, 4> ips = oursThroughputIps(profiles);
    std::printf("| **Ncore (ours)** | **%s** | **%s** | **%s** | "
                "**%.2f** |\n",
                thousands(ips[0]).c_str(), thousands(ips[1]).c_str(),
                thousands(ips[2]).c_str(), ips[3]);

    int pn = 0;
    const BreakdownRow *paper = paperBreakdown(&pn);
    for (int i = 0; i < 3; ++i) {
        const WorkloadProfile &p = profiles[size_t(i)];
        const double total = singleStreamSeconds(p) * 1e3;
        const double nc = p.ncoreSeconds * 1e3;
        const double x = p.x86Seconds * 1e3;
        const BreakdownRow &pr = paper[i];
        std::printf("| %s | %.2f | %.2f | %.2f (%.0f%%) | %.2f (%.0f%%) "
                    "| %.2f (%.0f%%) | %.2f (%.0f%%) |\n",
                    workloadName(Workload(i)), pr.totalMs, total,
                    pr.ncoreMs, 100.0 * pr.ncoreMs / pr.totalMs, nc,
                    100.0 * nc / total, pr.x86Ms,
                    100.0 * pr.x86Ms / pr.totalMs, x,
                    100.0 * x / total);
    }
}

} // namespace
} // namespace ncore

int
main(int argc, char **argv)
{
    using namespace ncore;
    const bool markdown =
        argc == 2 && std::string_view(argv[1]) == "--markdown";
    if (argc > 1 && !markdown) {
        std::fprintf(stderr, "usage: paper_eval [--markdown]\n");
        return 2;
    }
    const std::vector<WorkloadProfile> profiles = measureAllWorkloads();
    if (markdown) {
        printMarkdownRows(profiles);
        return 0;
    }

    // Non-short-circuit: every table prints even after a failed check.
    bool ok = table7Fig11Latency(profiles);
    table8Fig12Throughput(profiles);
    ok &= table9LatencyBreakdown(profiles);
    ok &= fig13ExpectedScaling(profiles);
    ok &= fig14ObservedScaling(profiles);
    ablationBatching(profiles);
    return ok ? 0 : 1;
}
