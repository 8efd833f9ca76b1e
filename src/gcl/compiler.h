/**
 * @file
 * The GCL compiler driver: optimization passes -> delegate-style
 * partitioning -> layout selection -> scratchpad memory planning ->
 * NKL code generation -> Loadable.
 */

#ifndef NCORE_GCL_COMPILER_H
#define NCORE_GCL_COMPILER_H

#include "gcl/loadable.h"

namespace ncore {

struct CompileOptions
{
    /// Force the DMA streaming path even when weights would fit
    /// on-chip (tests and ablation studies).
    bool forceStreaming = false;
};

/**
 * True when the Ncore backend can execute this node (the delegate's
 * compatibility query).
 */
bool ncoreSupports(const Graph &g, const Node &n);

/**
 * Compile a (quantized) graph: runs the standard passes, partitions
 * nodes between Ncore and x86, and generates one CompiledSubgraph per
 * maximal Ncore region.
 */
Loadable compile(Graph g, const CompileOptions &opts = {});

} // namespace ncore

#endif // NCORE_GCL_COMPILER_H
