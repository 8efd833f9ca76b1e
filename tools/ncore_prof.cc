/**
 * @file
 * ncore_prof: command-line front end of the microarchitectural cycle
 * profiler (telemetry/profile.h). Runs one cycle-exact inference of a
 * benchmark workload on the simulated Ncore with the profiler
 * attached and prints the per-layer roofline report — cycle budget,
 * exclusive stall buckets, VLIW slot occupancy, achieved-vs-peak MAC
 * utilization and bytes moved per graph op.
 *
 *   ncore_prof [--model=mobilenet|resnet50|ssd|gnmt|all]
 *              [--engine=fast|generic] [--json=<path>]
 *
 * Text goes to stdout; --json additionally writes the machine-
 * readable report (one file per model; with --model=all the model key
 * is inserted before the extension). Several models are profiled on
 * one thread each; their reports are printed and written in the order
 * above once all threads are done, so the output matches a sequential
 * run. The report is deterministic: identical across runs, and
 * bit-identical across the two execution engines (the profiler hooks
 * the step path they share).
 */

#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "mlperf/profiles.h"

namespace ncore {
namespace {

struct ModelArg
{
    const char *flag;
    Workload w;
};

constexpr ModelArg kModels[] = {
    {"mobilenet", Workload::MobileNetV1},
    {"resnet50", Workload::ResNet50},
    {"ssd", Workload::SsdMobileNet},
    {"gnmt", Workload::Gnmt},
};

/** "prof.json" + "gnmt" -> "prof.gnmt.json". */
std::string
jsonPathFor(const std::string &base, Workload w, bool multi)
{
    if (!multi)
        return base;
    const size_t dot = base.rfind('.');
    const std::string key = workloadKey(w);
    if (dot == std::string::npos || base.find('/', dot) != std::string::npos)
        return base + "." + key;
    return base.substr(0, dot) + "." + key + base.substr(dot);
}

int
profMain(const std::vector<Workload> &workloads, ExecEngine engine,
         const char *json_path)
{
    const bool multi = workloads.size() > 1;
    // Each profile run builds its own model and simulator Machine, as
    // in measureAllWorkloads, so the threads share no mutable state.
    std::vector<ProfileReport> reports(workloads.size());
    {
        std::vector<std::jthread> threads;
        for (size_t i = 0; i < workloads.size(); ++i) {
            fprintf(stderr, "profiling %s (cycle-exact simulation)...\n",
                    workloadName(workloads[i]));
            threads.emplace_back([&reports, engine, i, w = workloads[i]] {
                reports[i] = profileWorkloadReport(w, engine);
            });
        }
    } // jthreads join here.
    for (size_t i = 0; i < workloads.size(); ++i) {
        const ProfileReport &rep = reports[i];
        fputs(rep.text().c_str(), stdout);
        if (json_path) {
            const std::string path =
                jsonPathFor(json_path, workloads[i], multi);
            if (!writeProfileJson(rep, path)) {
                fprintf(stderr, "cannot write %s\n", path.c_str());
                return 1;
            }
            fprintf(stderr, "wrote %s\n", path.c_str());
        }
    }
    return 0;
}

} // namespace
} // namespace ncore

int
main(int argc, char **argv)
{
    using namespace ncore;
    // Which kModels entries were asked for: repeats and overlaps with
    // --model=all count once, so no two threads write one JSON file.
    bool selected[std::size(kModels)] = {};
    ExecEngine engine = ExecEngine::Specialized;
    const char *json_path = nullptr;

    for (int i = 1; i < argc; ++i) {
        if (!strncmp(argv[i], "--model=", 8)) {
            const char *m = argv[i] + 8;
            const bool all = !strcmp(m, "all");
            bool found = false;
            for (size_t k = 0; k < std::size(kModels); ++k)
                if (all || !strcmp(m, kModels[k].flag)) {
                    selected[k] = true;
                    found = true;
                }
            if (!found) {
                fprintf(stderr, "unknown model '%s'\n", m);
                return 2;
            }
        } else if (!strncmp(argv[i], "--engine=", 9)) {
            const char *e = argv[i] + 9;
            if (!strcmp(e, "fast"))
                engine = ExecEngine::Specialized;
            else if (!strcmp(e, "generic"))
                engine = ExecEngine::Generic;
            else {
                fprintf(stderr, "unknown engine '%s'\n", e);
                return 2;
            }
        } else if (!strncmp(argv[i], "--json=", 7)) {
            json_path = argv[i] + 7;
        } else {
            fprintf(stderr,
                    "usage: %s [--model=mobilenet|resnet50|ssd|gnmt|all]"
                    " [--engine=fast|generic] [--json=<path>]\n",
                    argv[0]);
            return 2;
        }
    }
    std::vector<Workload> workloads;
    for (size_t k = 0; k < std::size(kModels); ++k)
        if (selected[k])
            workloads.push_back(kModels[k].w);
    if (workloads.empty())
        workloads.push_back(Workload::MobileNetV1);
    return profMain(workloads, engine, json_path);
}
