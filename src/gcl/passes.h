/**
 * @file
 * GCL graph-level optimization passes (paper V-B): explicit-pad fusion
 * into convolutions and pools (the MLPerf ResNet-50 reference graph
 * case) and dead-node elimination. The zoo's graphs arrive with batch
 * norms folded and activations fused, so those passes are not modeled.
 */

#ifndef NCORE_GCL_PASSES_H
#define NCORE_GCL_PASSES_H

#include "gir/graph.h"

namespace ncore {

/**
 * Fuse an explicit Pad node into a following Conv2D / DepthwiseConv2D /
 * pool by adding to its padding attributes. Returns nodes fused.
 */
int fusePads(Graph &g);

/** Drop nodes whose outputs are never used (after fusion). */
int eliminateDeadNodes(Graph &g);

/** Run the standard pipeline in order; returns total rewrites. */
int runStandardPasses(Graph &g);

} // namespace ncore

#endif // NCORE_GCL_PASSES_H
