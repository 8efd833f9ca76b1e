/**
 * @file
 * DMA engine tests: functional transfers in both directions, fence
 * semantics from Ncore programs, bandwidth/latency modeling, window
 * protection, and concurrency with execution.
 */

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/machine.h"
#include "ncore/machine.h"

namespace ncore {
namespace {

std::vector<EncodedInstruction>
enc(const std::vector<Instruction> &prog)
{
    std::vector<EncodedInstruction> out;
    for (const Instruction &in : prog)
        out.push_back(encodeInstruction(in));
    return out;
}

class DmaTest : public ::testing::Test
{
  protected:
    DmaTest() : m(chaNcoreConfig(), chaSocConfig()) {}
    Machine m;
};

TEST_F(DmaTest, HostKickedReadReachesWeightRam)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> pattern(rb * 4);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = uint8_t(i * 7);
    uint64_t addr = m.sysmem().allocate(pattern.size());
    m.sysmem().write(addr, pattern.data(), pattern.size());

    DmaDescriptor d;
    d.toNcore = true;
    d.weightRam = true;
    d.ramRow = 100;
    d.rowCount = 4;
    d.sysAddr = addr;
    d.queue = 0;
    m.dma().setDescriptor(0, d);
    m.dma().kick(0);
    m.dma().drainAll();

    std::vector<uint8_t> row(rb);
    for (int r = 0; r < 4; ++r) {
        m.hostReadRow(true, 100 + r, row.data());
        for (int i = 0; i < rb; ++i)
            ASSERT_EQ(row[i], pattern[r * rb + i]) << r << ":" << i;
    }
    EXPECT_EQ(m.dma().stats().bytesRead, uint64_t(4 * rb));
}

TEST_F(DmaTest, WritebackReachesSystemMemory)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> row(rb, 0xcd);
    m.hostWriteRow(false, 7, row.data());

    uint64_t addr = m.sysmem().allocate(rb);
    DmaDescriptor d;
    d.toNcore = false;
    d.weightRam = false;
    d.ramRow = 7;
    d.rowCount = 1;
    d.sysAddr = addr;
    d.queue = 1;
    m.dma().setDescriptor(1, d);
    m.dma().kick(1);
    m.dma().drainAll();

    std::vector<uint8_t> back(rb);
    m.sysmem().read(addr, back.data(), rb);
    for (int i = 0; i < rb; ++i)
        ASSERT_EQ(back[i], 0xcd);
}

TEST_F(DmaTest, ProgramKickAndFenceSeesData)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> pattern(rb);
    for (int i = 0; i < rb; ++i)
        pattern[i] = uint8_t(i % 251);
    uint64_t addr = m.sysmem().allocate(rb);
    m.sysmem().write(addr, pattern.data(), rb);

    DmaDescriptor d;
    d.toNcore = true;
    d.weightRam = false;
    d.ramRow = 50;
    d.rowCount = 1;
    d.sysAddr = addr;
    d.queue = 2;
    m.dma().setDescriptor(5, d);

    // Program: kick DMA, fence on its queue, copy row 50 to row 51.
    Instruction kick;
    kick.ctrl.op = CtrlOp::DmaKick;
    kick.ctrl.imm = 5;
    Instruction fence;
    fence.ctrl.op = CtrlOp::DmaFence;
    fence.ctrl.reg = 2;
    Instruction setr0;
    setr0.ctrl.op = CtrlOp::SetAddrRow;
    setr0.ctrl.reg = 0;
    setr0.ctrl.imm = 50;
    Instruction setr1;
    setr1.ctrl.op = CtrlOp::SetAddrRow;
    setr1.ctrl.reg = 1;
    setr1.ctrl.imm = 51;
    Instruction copy;
    copy.dataRead.enable = true;
    copy.ndu0.op = NduOp::Bypass;
    copy.ndu0.srcA = RowSrc::DataRead;
    copy.ndu0.dst = 0;
    copy.write.enable = true;
    copy.write.addrReg = 1;
    copy.write.src = RowSrc::N0;
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;

    m.writeIram(0, enc({kick, setr0, setr1, fence, copy, halt}));
    m.start(0);
    ASSERT_EQ(m.run(1 << 22).reason, StopReason::Halted);

    std::vector<uint8_t> out(rb);
    m.hostReadRow(false, 51, out.data());
    for (int i = 0; i < rb; ++i)
        ASSERT_EQ(out[i], pattern[i]);
    EXPECT_GT(m.perf().dmaFenceStalls, 0u);
}

TEST_F(DmaTest, BandwidthModelBoundsTransferTime)
{
    // 256 rows = 1 MB. At ~34.8 modeled bytes/cycle (102.4 GB/s * 0.85 /
    // 2.5 GHz) this must take at least 1 MB / 64 B/cyc (ring bound) and
    // roughly 1 MB / 34.8 B/cyc (DRAM bound) plus startup latency.
    const int rb = m.rowBytesInt();
    uint64_t addr = m.sysmem().allocate(uint64_t(256) * rb);
    DmaDescriptor d;
    d.toNcore = true;
    d.weightRam = true;
    d.ramRow = 0;
    d.rowCount = 256;
    d.sysAddr = addr;
    d.queue = 0;
    m.dma().setDescriptor(0, d);
    m.dma().kick(0);

    uint64_t cycles = 0;
    while (m.dma().anyBusy()) {
        m.dma().advance(64);
        cycles += 64;
        ASSERT_LT(cycles, 10u * 1000 * 1000);
    }
    double bytes = 256.0 * rb;
    double dram_bound = bytes / m.dma().dramBytesPerCycle();
    EXPECT_GT(double(cycles), dram_bound * 0.9);
    EXPECT_LT(double(cycles), dram_bound * 1.5 + 1000);
}

TEST_F(DmaTest, DescriptorOutsideWindowRejected)
{
    DmaDescriptor d;
    d.toNcore = true;
    d.ramRow = 0;
    d.rowCount = 1;
    d.sysAddr = uint64_t(chaSocConfig().dmaWindowBytes); // 1 past end.
    EXPECT_DEATH(m.dma().setDescriptor(0, d), "window");
}

TEST_F(DmaTest, ConcurrentQueuesBothComplete)
{
    const int rb = m.rowBytesInt();
    uint64_t a1 = m.sysmem().allocate(uint64_t(16) * rb);
    uint64_t a2 = m.sysmem().allocate(uint64_t(16) * rb);
    std::vector<uint8_t> p1(size_t(16) * rb, 0x11);
    std::vector<uint8_t> p2(size_t(16) * rb, 0x22);
    m.sysmem().write(a1, p1.data(), p1.size());
    m.sysmem().write(a2, p2.data(), p2.size());

    DmaDescriptor d1;
    d1.toNcore = true;
    d1.weightRam = true;
    d1.ramRow = 0;
    d1.rowCount = 16;
    d1.sysAddr = a1;
    d1.queue = 0;
    DmaDescriptor d2 = d1;
    d2.weightRam = false;
    d2.ramRow = 32;
    d2.sysAddr = a2;
    d2.queue = 1;
    m.dma().setDescriptor(0, d1);
    m.dma().setDescriptor(1, d2);
    m.dma().kick(0);
    m.dma().kick(1);
    m.dma().drainAll();

    std::vector<uint8_t> row(rb);
    m.hostReadRow(true, 3, row.data());
    EXPECT_EQ(row[0], 0x11);
    m.hostReadRow(false, 35, row.data());
    EXPECT_EQ(row[0], 0x22);
    EXPECT_FALSE(m.dma().queueBusy(0));
    EXPECT_FALSE(m.dma().queueBusy(1));
}

/** Stage `rows` rows of `fill` in DRAM and program descriptor `idx` to
 *  move them into weight RAM row 0 on queue 0. */
void
stageWeightRows(Machine &m, int idx, uint32_t rows, uint8_t fill)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> bytes(size_t(rows) * rb, fill);
    uint64_t addr = m.sysmem().allocate(bytes.size());
    m.sysmem().write(addr, bytes.data(), bytes.size());
    DmaDescriptor d;
    d.toNcore = true;
    d.weightRam = true;
    d.ramRow = 0;
    d.rowCount = rows;
    d.sysAddr = addr;
    d.queue = 0;
    m.dma().setDescriptor(idx, d);
}

TEST_F(DmaTest, QueueCompletesTransfersInKickOrder)
{
    // Both transfers write the same rows, so the RAM shows which one
    // landed last. The head gets the full DRAM rate, and the second
    // moves nothing until the head completes.
    const int rb = m.rowBytesInt();
    stageWeightRows(m, 0, 64, 0x11);
    stageWeightRows(m, 1, 64, 0x22);
    const double alone = 64.0 * rb / m.dma().dramBytesPerCycle();
    m.dma().kick(0);
    m.dma().kick(1);
    EXPECT_EQ(m.dma().outstanding(0), 2);

    std::vector<uint8_t> row(rb);
    uint64_t cycles = 0;
    while (m.dma().outstanding(0) == 2) {
        m.dma().advance(1);
        ++cycles;
    }
    EXPECT_EQ(m.dma().outstanding(0), 1);
    EXPECT_GT(double(cycles), alone);
    EXPECT_LT(double(cycles), alone + 300); // + start latency, no more.
    m.hostReadRow(true, 5, row.data());
    EXPECT_EQ(row[0], 0x11);

    uint64_t first = cycles;
    while (m.dma().queueBusy(0)) {
        m.dma().advance(1);
        ++cycles;
    }
    EXPECT_GT(double(cycles - first), alone);
    EXPECT_LT(double(cycles - first), alone + 300);
    m.hostReadRow(true, 5, row.data());
    EXPECT_EQ(row[0], 0x22);
    EXPECT_EQ(m.dma().stats().bytesRead, uint64_t(128) * rb);
}

TEST_F(DmaTest, CountedFenceWaitsForOlderTransfers)
{
    // A short transfer, then a long one, on one queue. `dmafence q0 #1`
    // returns once the short one is in; `dmafence q0 #0` drains.
    const int rb = m.rowBytesInt();
    stageWeightRows(m, 0, 16, 0x33);
    stageWeightRows(m, 1, 512, 0x44);
    auto ctrl = [](CtrlOp op, uint32_t imm, uint8_t reg = 0) {
        Instruction in;
        in.ctrl.op = op;
        in.ctrl.imm = imm;
        in.ctrl.reg = reg;
        return in;
    };
    Instruction halt = ctrl(CtrlOp::Halt, 0);

    m.writeIram(0, enc({ctrl(CtrlOp::DmaKick, 0), ctrl(CtrlOp::DmaKick, 1),
                        ctrl(CtrlOp::DmaFence, 1), halt}));
    m.start(0);
    ASSERT_EQ(m.run(1 << 22).reason, StopReason::Halted);
    EXPECT_EQ(m.dma().outstanding(0), 1);
    const double short_cycles = 16.0 * rb / m.dma().dramBytesPerCycle();
    EXPECT_GT(double(m.perf().dmaFenceStalls), short_cycles);
    EXPECT_LT(double(m.perf().dmaFenceStalls), short_cycles + 300);
    std::vector<uint8_t> row(rb);
    m.hostReadRow(true, 3, row.data());
    EXPECT_EQ(row[0], 0x33);

    m.writeIram(0, enc({ctrl(CtrlOp::DmaFence, 0), halt}));
    m.start(0);
    ASSERT_EQ(m.run(1 << 22).reason, StopReason::Halted);
    EXPECT_FALSE(m.dma().queueBusy(0));
    m.hostReadRow(true, 3, row.data());
    EXPECT_EQ(row[0], 0x44);
}

TEST_F(DmaTest, L3PathAddsLatency)
{
    const int rb = m.rowBytesInt();
    uint64_t addr = m.sysmem().allocate(rb);

    auto time_one = [&](bool via_l3) {
        DmaDescriptor d;
        d.toNcore = true;
        d.ramRow = 200;
        d.rowCount = 1;
        d.sysAddr = addr;
        d.queue = 3;
        d.viaL3 = via_l3;
        m.dma().setDescriptor(9, d);
        m.dma().kick(9);
        uint64_t cycles = 0;
        while (m.dma().queueBusy(3)) {
            m.dma().advance(1);
            ++cycles;
        }
        return cycles;
    };

    uint64_t direct = time_one(false);
    uint64_t via_l3 = time_one(true);
    EXPECT_GT(via_l3, direct);
    // "Minimally increases the latency": within tens of cycles.
    EXPECT_LE(via_l3 - direct, 64u);
}

} // namespace
} // namespace ncore
