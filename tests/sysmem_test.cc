/**
 * @file
 * SystemMemory tests: seeded random reads and writes differentially
 * checked against a byte-at-a-time reference model (empty, one-byte
 * and multi-page lengths, spans straddling 64 KiB page boundaries,
 * never-written pages reading as zero), ids that are never reused,
 * and multi-row DMA streams in both directions from a page-straddling
 * base on an ECC-modeled machine.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/machine.h"
#include "common/rng.h"
#include "ncore/machine.h"
#include "soc/sysmem.h"

namespace ncore {
namespace {

constexpr uint64_t kPage = 64 * 1024;

/** The obvious model: one flat byte array, copied a byte at a time. */
class ReferenceMemory
{
  public:
    explicit ReferenceMemory(uint64_t bytes) : bytes_(bytes, 0) {}

    void
    write(uint64_t addr, const uint8_t *src, uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            bytes_[addr + i] = src[i];
    }

    void
    read(uint64_t addr, uint8_t *dst, uint64_t n) const
    {
        for (uint64_t i = 0; i < n; ++i)
            dst[i] = bytes_[addr + i];
    }

  private:
    std::vector<uint8_t> bytes_;
};

std::vector<uint8_t>
randomBytes(Rng &rng, uint64_t n)
{
    std::vector<uint8_t> v(n);
    for (uint8_t &b : v)
        b = uint8_t(rng.next64());
    return v;
}

/** Lengths that exercise the span walk's edge cases. */
uint64_t
pickLength(Rng &rng)
{
    switch (rng.nextBelow(6)) {
    case 0:
        return 0;
    case 1:
        return 1;
    case 2:
        return kPage;
    case 3:
        return 3 * kPage + rng.nextBelow(kPage);
    default:
        return rng.nextBelow(2 * kPage);
    }
}

/** Addresses near page boundaries about half the time. */
uint64_t
pickAddr(Rng &rng, uint64_t region, uint64_t len)
{
    uint64_t addr;
    if (rng.nextBelow(2) == 0) {
        uint64_t boundary = kPage * (1 + rng.nextBelow(region / kPage - 1));
        addr = boundary - std::min(boundary, rng.nextBelow(64));
    } else {
        addr = rng.nextBelow(region);
    }
    return std::min(addr, region - len);
}

TEST(SystemMemoryTest, UnwrittenMemoryReadsZero)
{
    SystemMemory mem;
    std::vector<uint8_t> buf(3 * kPage + 17, 0xa5);
    mem.read(5 * kPage - 9, buf.data(), buf.size());
    for (size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i], 0) << i;

    // A write to one page leaves its neighbours unwritten.
    uint8_t one = 0x3c;
    mem.write(2 * kPage + 5, &one, 1);
    mem.read(kPage, buf.data(), buf.size());
    for (size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i], i == kPage + 5 ? 0x3c : 0) << i;
}

TEST(SystemMemoryTest, ZeroLengthAccessesAreNoOps)
{
    SystemMemory mem;
    uint8_t byte = 0x77;
    mem.write(kPage - 1, &byte, 0);
    mem.read(kPage - 1, &byte, 0);
    EXPECT_EQ(byte, 0x77);
    mem.read(kPage - 1, &byte, 1);
    EXPECT_EQ(byte, 0);
}

TEST(SystemMemoryTest, SpanCopiesMatchByteReference)
{
    constexpr uint64_t kRegion = 24 * kPage;
    for (uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        SystemMemory mem;
        ReferenceMemory ref(kRegion);
        for (int op = 0; op < 300; ++op) {
            uint64_t len = pickLength(rng);
            uint64_t addr = pickAddr(rng, kRegion, len);
            if (rng.nextBelow(2) == 0) {
                std::vector<uint8_t> data = randomBytes(rng, len);
                mem.write(addr, data.data(), len);
                ref.write(addr, data.data(), len);
            } else {
                std::vector<uint8_t> got(len, 0xee), want(len);
                mem.read(addr, got.data(), len);
                ref.read(addr, want.data(), len);
                ASSERT_EQ(got, want) << "seed " << seed << " op " << op
                                     << " addr " << addr << " len "
                                     << len;
            }
        }
        // Full sweep at the end, including pages never written.
        std::vector<uint8_t> got(kRegion), want(kRegion);
        mem.read(0, got.data(), kRegion);
        ref.read(0, want.data(), kRegion);
        EXPECT_EQ(got, want) << "seed " << seed;
    }
}

TEST(SystemMemoryTest, IdIsNeverReused)
{
    // Caches of staged images key on id(): a memory built where a
    // destroyed one lived, or a reset memory, must not match.
    uint64_t first;
    {
        SystemMemory mem;
        first = mem.id();
    }
    SystemMemory mem;
    EXPECT_NE(mem.id(), first);
    const uint64_t before = mem.id();
    uint8_t byte = 0x5a;
    mem.write(0, &byte, 1);
    EXPECT_EQ(mem.id(), before);
    mem.reset();
    EXPECT_NE(mem.id(), before);
    EXPECT_NE(mem.id(), first);
    mem.read(0, &byte, 1);
    EXPECT_EQ(byte, 0);
}

TEST(SystemMemoryTest, SparseHighAddressesStayIndependent)
{
    SystemMemory mem;
    const uint64_t hi = (3ull << 30) - 3; // Straddles a page.
    std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6};
    mem.write(hi, data.data(), data.size());
    std::vector<uint8_t> back(data.size());
    mem.read(hi, back.data(), back.size());
    EXPECT_EQ(back, data);
    uint8_t low = 0xff;
    mem.read(hi - kPage, &low, 1);
    EXPECT_EQ(low, 0);
}

// ---------------- DMA streams over page boundaries ----------------

class SysmemDmaTest : public ::testing::Test
{
  protected:
    SysmemDmaTest()
        : m(chaNcoreConfig(), chaSocConfig(), nullptr, /*model_ecc=*/true)
    {}

    void
    transfer(bool to_ncore, bool weight_ram, uint32_t ram_row,
             uint32_t rows, uint64_t sys_addr)
    {
        DmaDescriptor d;
        d.toNcore = to_ncore;
        d.weightRam = weight_ram;
        d.ramRow = ram_row;
        d.rowCount = rows;
        d.sysAddr = sys_addr;
        d.queue = 0;
        m.dma().setDescriptor(0, d);
        m.dma().kick(0);
        m.dma().drainAll();
    }

    /** Read every row in [first, first + rows) through the ECC scrub. */
    std::vector<uint8_t>
    scrubRows(bool weight_ram, int first, int rows)
    {
        const size_t rb = size_t(m.rowBytesInt());
        std::vector<uint8_t> out(rb * size_t(rows));
        for (int r = 0; r < rows; ++r)
            m.hostReadRow(weight_ram, first + r, out.data() + rb * r);
        return out;
    }

    Machine m;
};

TEST_F(SysmemDmaTest, RowsStreamAcrossPageBoundaries)
{
    const uint64_t rb = uint64_t(m.rowBytesInt());
    constexpr uint32_t kRows = 40; // 160 KiB: spans three pages.
    uint64_t region = m.sysmem().allocate(4 * kPage, kPage);
    // 64-byte aligned, so row 0 straddles the first page boundary.
    uint64_t in_base = region + kPage - 5 * 64;

    Rng rng(8);
    std::vector<uint8_t> image = randomBytes(rng, kRows * rb);
    m.sysmem().write(in_base, image.data(), image.size());

    // DRAM -> weight RAM.
    transfer(true, true, 100, kRows, in_base);
    EXPECT_EQ(scrubRows(true, 100, kRows), image);

    // Data RAM -> DRAM at a different straddling offset; bytes outside
    // the transfer stay as they were.
    std::vector<uint8_t> rows = randomBytes(rng, kRows * rb);
    for (uint32_t r = 0; r < kRows; ++r)
        m.hostWriteRow(false, int(200 + r), rows.data() + rb * r);
    uint64_t out_base = m.sysmem().allocate(4 * kPage, kPage) + 3 * 64;
    transfer(false, false, 200, kRows, out_base);

    std::vector<uint8_t> back(kRows * rb + 2 * 64);
    m.sysmem().read(out_base - 64, back.data(), back.size());
    for (size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(back[i], 0) << i;
        ASSERT_EQ(back[back.size() - 1 - i], 0) << i;
    }
    EXPECT_TRUE(std::equal(rows.begin(), rows.end(), back.begin() + 64));

    // Round trip: the written-back image streams into the data RAM.
    transfer(true, false, 300, kRows, out_base);
    EXPECT_EQ(scrubRows(false, 300, kRows), rows);

    EXPECT_EQ(m.dma().stats().bytesRead, 2 * kRows * rb);
    EXPECT_EQ(m.dma().stats().bytesWritten, kRows * rb);
    for (SramBank *bank : {&m.dataRam(), &m.weightRam()}) {
        EXPECT_EQ(bank->eccStats().corrected, 0u);
        EXPECT_EQ(bank->eccStats().uncorrectable, 0u);
    }
}

} // namespace
} // namespace ncore
