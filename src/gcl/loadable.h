/**
 * @file
 * The Ncore Loadable: "the final result is an Ncore Loadable which
 * contains everything needed to execute the DL model on Ncore"
 * (paper V-B) — compiled programs, requant tables, weight images
 * (persistent or DMA-streamed), tensor placements, and the x86/Ncore
 * node assignment the delegate uses at run time.
 */

#ifndef NCORE_GCL_LOADABLE_H
#define NCORE_GCL_LOADABLE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "gir/graph.h"
#include "isa/encoding.h"
#include "nkl/kernels.h"
#include "nkl/layout.h"
#include "soc/sysmem.h"
#include "telemetry/profile.h"

namespace ncore {

/** One DMA-streamed weight chunk (one layer's weight image). */
struct StreamChunk
{
    uint64_t dramOffset = 0; ///< Offset within the stream image.
    uint32_t rows = 0;       ///< Rows to transfer.
    uint32_t targetRow = 0;  ///< Destination weight RAM row.

    bool operator==(const StreamChunk &) const = default;
};

/** A compiled Ncore-resident subgraph. */
struct CompiledSubgraph
{
    /// Indices (into the optimized graph's node list) this covers.
    std::vector<int> nodeIds;
    /// Boundary tensors, in the order the runtime binds them.
    std::vector<TensorId> inputs;
    std::vector<TensorId> outputs;
    /// Device placement of every tensor touched by the subgraph.
    std::unordered_map<TensorId, TensorLayout> layouts;
    MaskTable masks;

    /// The full program (the Machine streams it through IRAM banks).
    std::vector<EncodedInstruction> code;
    /// Requant table image (entry i -> table slot i).
    std::vector<RequantEntry> rqTable;

    /// Weight handling: either one persistent image loaded at row 0
    /// once, or a DRAM-resident stream image moved per inference.
    bool weightsPersistent = true;
    std::vector<uint8_t> persistentWeights;
    std::vector<uint8_t> streamImage;
    std::vector<StreamChunk> chunks;

    /// Bookkeeping for reports.
    int dataRowsUsed = 0;
    int weightRowsUsed = 0;

    /// Event-log tags: per layer, (nodeId << 2) | 1 at start, | 2 at
    /// end; subgraph start/end use kStartTag / kEndTag (aliases of the
    /// profiler's canonical values so CycleProfile reports decode
    /// loadable event streams).
    static constexpr uint32_t kStartTag = kProfileSubgraphStart;
    static constexpr uint32_t kEndTag = kProfileSubgraphEnd;
    /// DMA queue every stream chunk is kicked on, in chunk order.
    static constexpr int kStreamQueue = 0;
};

/** Everything the runtime needs to execute one model. */
struct Loadable
{
    Graph graph; ///< The optimized graph.
    /// Per graph node: -1 = x86, else index into subgraphs.
    std::vector<int> nodeAssignment;
    std::vector<CompiledSubgraph> subgraphs;
};

/**
 * An immutable loaded model shared by N runtime contexts: the Loadable
 * (weights, requant tables, programs). Contexts driving machines that
 * share one SystemMemory additionally share a single DRAM copy of any
 * DMA-streamed weight image, so per-context load cost and memory are
 * reduced to context state (scratchpad rows, descriptors, decode
 * shadows).
 *
 * Ownership rule: a LoadedModel is reached only through
 * std::shared_ptr<const LoadedModel>; it outlives every runtime bound
 * to it and is never mutated after create() (the stream-image
 * placement map is the one mutex-guarded lazy member).
 */
class LoadedModel
{
  public:
    /** Take ownership of a compiled Loadable. */
    static std::shared_ptr<const LoadedModel> create(Loadable ld);

    const Loadable &loadable() const { return loadable_; }

    /**
     * DRAM base per subgraph of the streamed weight image inside `mem`
     * (0 for persistent-weight subgraphs). The image is allocated and
     * written on the first call for a given SystemMemory; later
     * contexts on the same memory reuse the same placement.
     * Thread-safe.
     */
    const std::vector<uint64_t> &streamBases(SystemMemory &mem) const;

  private:
    explicit LoadedModel(Loadable ld);

    Loadable loadable_;

    mutable std::mutex streamMu_;
    /// SystemMemory::id() -> bases.
    mutable std::unordered_map<uint64_t, std::vector<uint64_t>>
        streamBases_;
};

using SharedModel = std::shared_ptr<const LoadedModel>;

} // namespace ncore

#endif // NCORE_GCL_LOADABLE_H
