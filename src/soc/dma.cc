#include "dma.h"

#include "soc/compress.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace ncore {

DmaEngine::DmaEngine(const SocConfig &soc, SystemMemory *mem,
                     RamRowPort *ram)
    : soc_(soc), mem_(mem), ram_(ram), table_(kDescriptors)
{
    dramBytesPerCycle_ =
        soc.dramPeakBytesPerSec * soc.dramEfficiency / soc.clockHz;
    // First-access latency: a handful of ring hops plus DDR4 access time
    // (~90 ns at 2.5 GHz).
    baseLatency_ = 225;
    // "The extra hop through the L3 minimally increases the latency."
    l3ExtraLatency_ = 30;
}

void
DmaEngine::setDescriptor(int idx, const DmaDescriptor &desc)
{
    fatal_if(idx < 0 || idx >= kDescriptors, "DMA descriptor %d", idx);
    fatal_if(desc.queue >= kQueues, "DMA queue %d out of range", desc.queue);
    fatal_if(desc.compressed && !desc.toNcore,
             "decompression only applies to reads into Ncore");
    uint64_t bytes = desc.compressed
                         ? desc.compressedBytes
                         : uint64_t(desc.rowCount) * ram_->rowBytes();
    fatal_if(desc.sysAddr + bytes > uint64_t(soc_.dmaWindowBytes),
             "DMA descriptor %d outside the driver-configured 4GB window",
             idx);
    table_[idx] = desc;
    table_[idx].valid = true;
}

void
DmaEngine::kick(int idx)
{
    fatal_if(idx < 0 || idx >= kDescriptors, "DMA kick %d", idx);
    const DmaDescriptor &d = table_[idx];
    fatal_if(!d.valid, "DMA kick of unprogrammed descriptor %d", idx);
    Active a;
    a.desc = d;
    // Only the bytes that actually cross DRAM/ring gate the transfer;
    // the decompressor expands in flight.
    a.totalBytes = d.compressed
                       ? d.compressedBytes
                       : uint64_t(d.rowCount) * ram_->rowBytes();
    a.latencyLeft = baseLatency_ + (d.viaL3 ? l3ExtraLatency_ : 0);
    if (a.totalBytes == 0)
        return;
    active_.push_back(a);
    ++queueDepth_[d.queue];
    ++stats_.transfers;
}

int
DmaEngine::outstanding(int q) const
{
    panic_if(q < 0 || q >= kQueues, "bad DMA queue %d", q);
    return queueDepth_[size_t(q)];
}

bool
DmaEngine::anyBusy() const
{
    return !active_.empty();
}

void
DmaEngine::advance(uint64_t n)
{
    // Coarse stepping: give each queue head (the oldest transfer of its
    // queue; active_ is in kick order) its fair share of DRAM bandwidth
    // per direction, capped by the ring's 64 B/cycle/direction. A head
    // that completes mid-step hands the cycles it did not need to the
    // next transfer of its queue.
    while (n > 0 && !active_.empty()) {
        uint64_t step = std::min<uint64_t>(n, 64);
        n -= step;
        stats_.busyCycles += step;

        int readers = 0, writers = 0;
        unsigned heads = 0;
        for (const Active &a : active_) {
            unsigned bit = 1u << a.desc.queue;
            if (heads & bit)
                continue;
            heads |= bit;
            if (a.latencyLeft < step)
                (a.desc.toNcore ? readers : writers)++;
        }

        std::array<uint64_t, kQueues> usable;
        usable.fill(step);
        for (size_t i = 0; i < active_.size();) {
            Active &a = active_[i];
            // 0 once the queue's head has used up this step.
            uint64_t &left = usable[a.desc.queue];
            uint64_t burn = std::min(a.latencyLeft, left);
            a.latencyLeft -= burn;
            left -= burn;
            if (left == 0) {
                ++i;
                continue;
            }
            int peers = a.desc.toNcore ? readers : writers;
            double share = dramBytesPerCycle_ / std::max(peers, 1);
            double rate = std::min(share, double(soc_.ringBytesPerCycle));
            double moved = a.bytesMoved + rate * double(left);
            if (moved < double(a.totalBytes)) {
                a.bytesMoved = moved;
                left = 0;
                ++i;
                continue;
            }
            uint64_t used = uint64_t(
                std::ceil((double(a.totalBytes) - a.bytesMoved) / rate));
            left -= std::min(used, left);
            complete(a);
            --queueDepth_[a.desc.queue];
            active_.erase(active_.begin() + ptrdiff_t(i));
        }
    }
}

void
DmaEngine::drainAll()
{
    while (!active_.empty())
        advance(1024);
}

void
DmaEngine::complete(const Active &a)
{
    const DmaDescriptor &d = a.desc;
    uint32_t rb = ram_->rowBytes();

    if (d.compressed) {
        std::vector<uint8_t> stream(d.compressedBytes);
        mem_->read(d.sysAddr, stream.data(), stream.size());
        std::vector<uint8_t> rows(size_t(d.rowCount) * rb);
        decompressRows(stream.data(), stream.size(), int(d.rowCount),
                       d.zeroByte, rows.data());
        for (uint32_t r = 0; r < d.rowCount; ++r)
            ram_->dmaWriteRow(d.weightRam, d.ramRow + r,
                              rows.data() + size_t(r) * rb);
        stats_.bytesRead += d.compressedBytes;
        return;
    }

    std::vector<uint8_t> buf(rb);
    for (uint32_t r = 0; r < d.rowCount; ++r) {
        uint64_t sys = d.sysAddr + uint64_t(r) * rb;
        if (d.toNcore) {
            mem_->read(sys, buf.data(), rb);
            ram_->dmaWriteRow(d.weightRam, d.ramRow + r, buf.data());
            stats_.bytesRead += rb;
        } else {
            ram_->dmaReadRow(d.weightRam, d.ramRow + r, buf.data());
            mem_->write(sys, buf.data(), rb);
            stats_.bytesWritten += rb;
        }
    }
}

} // namespace ncore
