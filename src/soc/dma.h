/**
 * @file
 * Ncore's DMA engines and their timing model.
 *
 * Paper facts modeled here (III, IV-A, IV-C3): Ncore sits on CHA's
 * bidirectional ring (512 b = 64 B per cycle per direction, 1 cycle per
 * ring stop); the memory controller provides 102 GB/s peak over four
 * DDR4-3200 channels; Ncore can run simultaneous DMA reads and writes
 * concurrently with execution; DMA can optionally read through the shared
 * L3 ("the extra hop through the L3 minimally increases the latency to
 * DRAM"); the driver configures base-address windows of up to 4 GB.
 *
 * The engine is advanced in Ncore clock cycles by the Ncore machine.
 * Each queue is a FIFO: only its oldest outstanding transfer moves data,
 * so a queue delivers transfers in kick order. The heads of the queues
 * drain at the minimum of the ring per-direction bandwidth and their
 * fair share of DRAM bandwidth; data is copied functionally when the
 * modeled transfer completes, so programs observe the data only after
 * a DmaFence (exactly the discipline the NKL emits).
 */

#ifndef NCORE_SOC_DMA_H
#define NCORE_SOC_DMA_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/machine.h"
#include "soc/sysmem.h"

namespace ncore {

/** Abstract row port into Ncore's internal RAMs (implemented by Machine). */
class RamRowPort
{
  public:
    virtual ~RamRowPort() = default;
    /** Write one full row into the data or weight RAM. */
    virtual void dmaWriteRow(bool weight_ram, uint32_t row,
                             const uint8_t *bytes) = 0;
    /** Read one full row out of the data or weight RAM. */
    virtual void dmaReadRow(bool weight_ram, uint32_t row,
                            uint8_t *bytes) const = 0;
    /** Row size in bytes. */
    virtual uint32_t rowBytes() const = 0;
};

/** One DMA descriptor, written by the runtime into the descriptor table. */
struct DmaDescriptor
{
    bool valid = false;
    bool toNcore = true;      ///< true: DRAM -> Ncore; false: Ncore -> DRAM.
    bool weightRam = false;   ///< Which internal RAM.
    bool viaL3 = false;       ///< Read through the coherent L3 path.
    uint32_t ramRow = 0;      ///< First internal row.
    uint32_t rowCount = 0;    ///< Rows to move.
    uint64_t sysAddr = 0;     ///< DRAM address (within the DMA window).
    uint8_t queue = 0;        ///< Completion queue, 0..3.

    /// Sparse-weight decompression (paper VII): the DRAM side holds a
    /// compressed stream of `compressedBytes` which the engine expands
    /// to rowCount full rows against `zeroByte`. Only the compressed
    /// bytes cross the ring/DRAM, so sparse layers stream faster.
    bool compressed = false;
    uint32_t compressedBytes = 0;
    uint8_t zeroByte = 0;
};

/** Counters the debug/perf infrastructure exposes (paper IV-F). */
struct DmaStats
{
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    uint64_t transfers = 0;
    uint64_t busyCycles = 0;   ///< Cycles with at least one active transfer.
};

/** The DMA subsystem: descriptor table, queues and bandwidth model. */
class DmaEngine
{
  public:
    DmaEngine(const SocConfig &soc, SystemMemory *mem, RamRowPort *ram);

    static constexpr int kDescriptors = 4096;
    static constexpr int kQueues = 4;

    /** Runtime-side: program a descriptor slot. */
    void setDescriptor(int idx, const DmaDescriptor &desc);

    /** Queue the transfer in descriptor slot idx at the tail of its
     *  queue (from CtrlOp::DmaKick). */
    void kick(int idx);

    /** Transfers kicked on queue q that have not completed. */
    int outstanding(int q) const;

    /** True while queue q has outstanding transfers. */
    bool queueBusy(int q) const { return outstanding(q) > 0; }

    /** True while any transfer is outstanding. */
    bool anyBusy() const;

    /** Advance the model by n Ncore cycles. */
    void advance(uint64_t n);

    /** Drain all queues immediately (host-side synchronous access). */
    void drainAll();

    const DmaStats &stats() const { return stats_; }

    /** Bytes/cycle of DRAM bandwidth the model grants in total. */
    double dramBytesPerCycle() const { return dramBytesPerCycle_; }

  private:
    struct Active
    {
        DmaDescriptor desc;
        double bytesMoved = 0;   ///< Modeled progress.
        uint64_t totalBytes = 0;
        uint64_t latencyLeft = 0; ///< Startup latency cycles remaining,
                                  ///< paid once the transfer is head.
    };

    void complete(const Active &a);

    SocConfig soc_;
    SystemMemory *mem_;
    RamRowPort *ram_;
    std::vector<DmaDescriptor> table_;
    std::vector<Active> active_; ///< Outstanding transfers, kick order.
    std::array<int, kQueues> queueDepth_{};
    DmaStats stats_;
    double dramBytesPerCycle_;
    uint64_t baseLatency_;
    uint64_t l3ExtraLatency_;
};

} // namespace ncore

#endif // NCORE_SOC_DMA_H
