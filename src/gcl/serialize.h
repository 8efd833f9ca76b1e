/**
 * @file
 * Loadable serialization: the paper's Loadable is a deployable
 * artifact ("contains everything needed to execute the DL model on
 * Ncore", V-B) — compile once with the GCL, ship the bytes, load them
 * with the runtime on any host. The format is a versioned binary
 * stream of the optimized graph (tensors with constant payloads,
 * nodes, attributes) plus every compiled subgraph (code, requant
 * tables, masks, layouts, weight images and DMA plans).
 */

#ifndef NCORE_GCL_SERIALIZE_H
#define NCORE_GCL_SERIALIZE_H

#include <cstdint>
#include <string>
#include <vector>

#include "gcl/loadable.h"

namespace ncore {

/** Serialize a Loadable into a byte stream. */
std::vector<uint8_t> serializeLoadable(const Loadable &loadable);

/** Reconstruct a Loadable from serialized bytes (fatal on a bad or
 *  version-mismatched stream). */
Loadable deserializeLoadable(const std::vector<uint8_t> &bytes);

/** Convenience: write/read the stream to a file. */
void saveLoadable(const Loadable &loadable, const std::string &path);
Loadable loadLoadable(const std::string &path);

} // namespace ncore

#endif // NCORE_GCL_SERIALIZE_H
