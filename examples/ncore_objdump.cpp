/**
 * @file
 * ncore-objdump: compile MobileNet-V1 and inspect the resulting
 * Loadable — the graph, the partitioning, per-subgraph resource plans,
 * and a disassembly of the 128-bit VLIW programs (decoded with the
 * same bit-exact decoder the sequencer uses).
 *
 * Usage:
 *   ./build/examples/ncore_objdump [--disasm N]
 *
 * --disasm N sets how many instructions of each subgraph to
 * disassemble (default 24).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "gcl/compiler.h"
#include "models/zoo.h"

using namespace ncore;

int
main(int argc, char **argv)
{
    int disasm_count = 24;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--disasm") == 0 && i + 1 < argc) {
            disasm_count = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr, "usage: %s [--disasm N]\n", argv[0]);
            return 2;
        }
    }

    Loadable ld = compile(buildMobileNetV1());
    const Graph &g = ld.graph;

    std::printf("graph '%s': %zu nodes, %d tensors, %.2f GMACs, "
                "%.2fM weights\n",
                g.name().c_str(), g.nodes().size(), g.numTensors(),
                double(g.totalMacs()) / 1e9,
                double(g.totalWeights()) / 1e6);

    int ncore_nodes = 0, x86_nodes = 0;
    for (int a : ld.nodeAssignment)
        (a >= 0 ? ncore_nodes : x86_nodes)++;
    std::printf("partition: %d nodes on Ncore across %zu subgraph(s), "
                "%d on x86\n\n",
                ncore_nodes, ld.subgraphs.size(), x86_nodes);

    for (size_t s = 0; s < ld.subgraphs.size(); ++s) {
        const CompiledSubgraph &sg = ld.subgraphs[s];
        std::printf("subgraph %zu:\n", s);
        std::printf("  program        %zu instructions (%zu IRAM "
                    "banks streamed)\n",
                    sg.code.size(),
                    (sg.code.size() + 255) / 256);
        std::printf("  data RAM       %d rows peak (of 2048)\n",
                    sg.dataRowsUsed);
        std::printf("  weight RAM     %d rows (%s)\n",
                    sg.weightRowsUsed,
                    sg.weightsPersistent
                        ? "persistent on-chip"
                        : "DMA-streamed ping-pong");
        if (!sg.weightsPersistent)
            std::printf("  weight stream  %.2f MB in %zu chunks\n",
                        double(sg.streamImage.size()) / 1e6,
                        sg.chunks.size());
        else
            std::printf("  weight image   %.2f MB preloaded\n",
                        double(sg.persistentWeights.size()) / 1e6);
        std::printf("  requant table  %zu entries\n", sg.rqTable.size());

        std::printf("\n  disassembly (first %d instructions):\n",
                    disasm_count);
        for (int i = 0; i < disasm_count &&
                        i < int(sg.code.size());
             ++i) {
            Instruction in = decodeInstruction(sg.code[size_t(i)]);
            std::printf("    %04x: %016llx%016llx  %s\n", i,
                        (unsigned long long)sg.code[size_t(i)].hi,
                        (unsigned long long)sg.code[size_t(i)].lo,
                        in.toString().c_str());
        }
        std::printf("\n");
    }
    return 0;
}
