/**
 * @file
 * CHA system DRAM: the four-channel DDR4-3200 pool behind the ring bus
 * (paper section III). Functionally a flat byte store with a bump
 * allocator used by the simulated kernel driver to carve out Ncore's DMA
 * window; timing is handled by the DmaEngine's bandwidth model.
 */

#ifndef NCORE_SOC_SYSMEM_H
#define NCORE_SOC_SYSMEM_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/logging.h"
#include "common/machine.h"

namespace ncore {

/**
 * Flat system memory with a page-sparse backing store of 64 KiB pages.
 * Data accesses copy whole page spans, so a multi-megabyte weight
 * stream costs one page lookup per 64 KiB rather than per byte.
 *
 * Thread-safety: allocation is mutex-guarded (several device contexts
 * may be brought up concurrently against one shared memory). Data
 * accesses are not synchronized — the serving engine's invariant is
 * that shared regions (streamed weight images) are written once at
 * model-load time and only read afterwards, and reads of immutable
 * pages never mutate the page table.
 */
class SystemMemory
{
  public:
    explicit SystemMemory(int64_t capacity_bytes = 4ll << 30)
        : capacity_(capacity_bytes), id_(nextId())
    {}

    SystemMemory(const SystemMemory &) = delete;
    SystemMemory &operator=(const SystemMemory &) = delete;

    int64_t capacity() const { return capacity_; }

    /**
     * Identity of this memory's current contents, for caches of what
     * was placed in it: never shared by two instances, and renewed by
     * reset(), so a stale key cannot match a later memory that happens
     * to reuse a destroyed one's address.
     */
    uint64_t id() const { return id_; }

    /** Allocate a block; returns its base address. Thread-safe. */
    uint64_t
    allocate(uint64_t bytes, uint64_t align = 64)
    {
        std::lock_guard<std::mutex> lock(allocMu_);
        uint64_t base = (brk_ + align - 1) / align * align;
        fatal_if(base + bytes > static_cast<uint64_t>(capacity_),
                 "system memory exhausted: need %llu at %llu, cap %lld",
                 static_cast<unsigned long long>(bytes),
                 static_cast<unsigned long long>(base),
                 static_cast<long long>(capacity_));
        brk_ = base + bytes;
        return base;
    }

    /** Release everything (between benchmark runs). */
    void
    reset()
    {
        std::lock_guard<std::mutex> lock(allocMu_);
        brk_ = 0;
        pages_.clear();
        id_ = nextId();
    }

    uint64_t
    bytesAllocated() const
    {
        std::lock_guard<std::mutex> lock(allocMu_);
        return brk_;
    }

    /** Copy bytes in, one page span at a time; allocates each page
     *  the range touches on first write. */
    void
    write(uint64_t addr, const uint8_t *src, uint64_t bytes)
    {
        while (bytes > 0) {
            uint64_t off = addr & kPageMask;
            uint64_t span = std::min(bytes, kPageSize - off);
            std::memcpy(pageFor(addr).data() + off, src, span);
            addr += span;
            src += span;
            bytes -= span;
        }
    }

    /** Copy bytes out, one page span at a time; pages never written
     *  read as zero and stay unallocated (reads never mutate the page
     *  table). */
    void
    read(uint64_t addr, uint8_t *dst, uint64_t bytes) const
    {
        while (bytes > 0) {
            uint64_t off = addr & kPageMask;
            uint64_t span = std::min(bytes, kPageSize - off);
            if (const std::vector<uint8_t> *p = findPage(addr))
                std::memcpy(dst, p->data() + off, span);
            else
                std::memset(dst, 0, span);
            addr += span;
            dst += span;
            bytes -= span;
        }
    }

  private:
    static constexpr uint64_t kPageBits = 16;
    static constexpr uint64_t kPageSize = 1ull << kPageBits;
    static constexpr uint64_t kPageMask = kPageSize - 1;

    static uint64_t
    nextId()
    {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
    }

    std::vector<uint8_t> &
    pageFor(uint64_t addr)
    {
        uint64_t pn = addr >> kPageBits;
        if (pn >= pages_.size())
            pages_.resize(pn + 1);
        if (pages_[pn].empty())
            pages_[pn].resize(kPageSize, 0);
        return pages_[pn];
    }

    const std::vector<uint8_t> *
    findPage(uint64_t addr) const
    {
        uint64_t pn = addr >> kPageBits;
        if (pn >= pages_.size() || pages_[pn].empty())
            return nullptr;
        return &pages_[pn];
    }

    int64_t capacity_;
    mutable std::mutex allocMu_;
    uint64_t brk_ = 0;
    uint64_t id_;
    std::vector<std::vector<uint8_t>> pages_;
};

} // namespace ncore

#endif // NCORE_SOC_SYSMEM_H
