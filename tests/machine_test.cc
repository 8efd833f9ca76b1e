/**
 * @file
 * Ncore machine tests: 8-bit execution pipeline semantics, NDU dataflow
 * ops, sequencer loops and reps, debug features, ECC scrubbing, IRAM
 * streaming and its plan table, and the ROM self-test.
 */

#include <algorithm>
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
    out.reserve(prog.size());
    for (const Instruction &in : prog)
        out.push_back(encodeInstruction(in));
    return out;
}

class MachineTest : public ::testing::Test
{
  protected:
    MachineTest() : m(chaNcoreConfig(), chaSocConfig()) {}

    void
    runProgram(std::vector<Instruction> prog)
    {
        Instruction halt;
        halt.ctrl.op = CtrlOp::Halt;
        prog.push_back(halt);
        m.writeIram(0, enc(prog));
        m.start(0);
        RunResult res = m.run(1 << 22);
        ASSERT_EQ(res.reason, StopReason::Halted);
    }

    std::vector<uint8_t>
    readData(int row)
    {
        std::vector<uint8_t> v(size_t(m.rowBytesInt()));
        m.hostReadRow(false, row, v.data());
        return v;
    }

    void
    writeData(int row, const std::vector<uint8_t> &v)
    {
        ASSERT_EQ(int(v.size()), m.rowBytesInt());
        m.hostWriteRow(false, row, v.data());
    }

    void
    writeWeight(int row, const std::vector<uint8_t> &v)
    {
        m.hostWriteRow(true, row, v.data());
    }

    /** SetAddrRow helper instruction. */
    static Instruction
    setRow(int reg, int row)
    {
        Instruction in;
        in.ctrl.op = CtrlOp::SetAddrRow;
        in.ctrl.reg = uint8_t(reg);
        in.ctrl.imm = uint32_t(row);
        return in;
    }

    static Instruction
    setByte(int reg, int byte)
    {
        Instruction in;
        in.ctrl.op = CtrlOp::SetAddrByte;
        in.ctrl.reg = uint8_t(reg);
        in.ctrl.imm = uint32_t(byte);
        return in;
    }

    static Instruction
    setInc(int reg, int row_inc, int byte_inc)
    {
        Instruction in;
        in.ctrl.op = CtrlOp::SetAddrInc;
        in.ctrl.reg = uint8_t(reg);
        in.ctrl.imm = uint32_t(((row_inc & 0x3ff) << 10) |
                               (byte_inc & 0x3ff));
        return in;
    }

    /** Load data row (addr reg 0) into N register `dst` via Bypass. */
    static Instruction
    loadData(int dst, bool inc = false)
    {
        Instruction in;
        in.dataRead.enable = true;
        in.dataRead.reg = 0;
        in.dataRead.postInc = inc;
        in.ndu0.op = NduOp::Bypass;
        in.ndu0.srcA = RowSrc::DataRead;
        in.ndu0.dst = uint8_t(dst);
        return in;
    }

    /** Store row source to data RAM via addr reg 1. */
    static Instruction
    storeData(RowSrc src, bool inc = false)
    {
        Instruction in;
        in.write.enable = true;
        in.write.addrReg = 1;
        in.write.postInc = inc;
        in.write.src = src;
        return in;
    }

    Machine m;
};

TEST_F(MachineTest, RomSelfTestPasses)
{
    EXPECT_TRUE(m.selfTest());
}

TEST_F(MachineTest, SplatStoreRoundTrip)
{
    Instruction splat;
    splat.ctrl.imm = 0xab;
    splat.ndu0.op = NduOp::SplatImm;
    splat.ndu0.dst = 2;
    runProgram({setRow(1, 5), splat, storeData(RowSrc::N2)});
    auto row = readData(5);
    for (uint8_t b : row)
        EXPECT_EQ(b, 0xab);
}

TEST_F(MachineTest, MacInt8MatchesScalar)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> a(rb), b(rb);
    for (int i = 0; i < rb; ++i) {
        a[i] = uint8_t(int8_t((i * 7) % 255 - 127));
        b[i] = uint8_t(int8_t((i * 13) % 251 - 125));
    }
    writeData(0, a);
    writeWeight(0, b);

    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    Instruction mac;
    mac.dataRead.enable = true;
    mac.weightRead.enable = true;
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::I8;
    mac.npu.a = RowSrc::DataRead;
    mac.npu.b = RowSrc::WeightRead;
    Instruction copy;
    copy.out.op = OutOp::CopyAcc32;
    copy.out.param = 0;

    runProgram({setRow(0, 0), setRow(2, 0), setRow(1, 10), zero,
                mac, copy, storeData(RowSrc::OutLo)});

    auto out = readData(10);
    for (int i = 0; i < rb / 4; ++i) {
        int32_t got;
        std::memcpy(&got, out.data() + i * 4, 4);
        int32_t want = int32_t(int8_t(a[i])) * int32_t(int8_t(b[i]));
        ASSERT_EQ(got, want) << "lane " << i;
    }
}

TEST_F(MachineTest, MacU8AppliesZeroOffsets)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> a(rb, 100), b(rb, 7);
    writeData(0, a);
    writeWeight(0, b);

    Instruction zoff;
    zoff.ctrl.op = CtrlOp::SetZeroOff;
    zoff.ctrl.imm = (90u << 8) | 10u; // data zero 90, weight zero 10.
    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    Instruction mac;
    mac.dataRead.enable = true;
    mac.weightRead.enable = true;
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::U8;
    mac.npu.zeroOff = true;
    mac.npu.a = RowSrc::DataRead;
    mac.npu.b = RowSrc::WeightRead;
    Instruction copy;
    copy.out.op = OutOp::CopyAcc32;

    runProgram({setRow(0, 0), setRow(2, 0), setRow(1, 10), zoff, zero,
                mac, copy, storeData(RowSrc::OutLo)});

    auto out = readData(10);
    int32_t got;
    std::memcpy(&got, out.data(), 4);
    EXPECT_EQ(got, (100 - 90) * (7 - 10)); // -30
}

TEST_F(MachineTest, RepWindowReplicatesAcrossGroups)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> src(rb);
    for (int i = 0; i < rb; ++i)
        src[i] = uint8_t(i % 251);
    writeData(0, src);

    Instruction op;
    op.dataRead.enable = true;
    op.ndu0.op = NduOp::RepWindow;
    op.ndu0.srcA = RowSrc::DataRead;
    op.ndu0.dst = 0;
    op.ndu0.addrReg = 3;
    op.ndu0.param = uint8_t(NduStride::S1);

    runProgram({setRow(0, 0), setByte(3, 100), setRow(1, 20), op,
                storeData(RowSrc::N0)});
    auto out = readData(20);
    for (int g = 0; g < rb / 64; ++g)
        for (int j = 0; j < 64; ++j)
            ASSERT_EQ(out[g * 64 + j], src[(100 + j) % rb])
                << g << "," << j;
}

TEST_F(MachineTest, GroupBcastBroadcastsPerGroup)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> src(rb);
    for (int i = 0; i < rb; ++i)
        src[i] = uint8_t((i * 31) % 253);
    writeWeight(0, src);

    Instruction op;
    op.weightRead.enable = true;
    op.weightRead.reg = 2;
    op.ndu0.op = NduOp::GroupBcast;
    op.ndu0.srcA = RowSrc::WeightRead;
    op.ndu0.dst = 1;
    op.ndu0.addrReg = 4;
    op.ndu0.param = uint8_t(NduStride::S64);

    runProgram({setRow(2, 0), setByte(4, 5), setRow(1, 21), op,
                storeData(RowSrc::N1)});
    auto out = readData(21);
    for (int g = 0; g < rb / 64; ++g)
        for (int j = 0; j < 64; ++j)
            ASSERT_EQ(out[g * 64 + j], src[(5 + g * 64) % rb]);
}

TEST_F(MachineTest, WindowGatherWithGroupStride)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> src(rb);
    for (int i = 0; i < rb; ++i)
        src[i] = uint8_t((i * 3 + 1) % 255);
    writeData(0, src);

    Instruction op;
    op.dataRead.enable = true;
    op.ndu0.op = NduOp::WindowGather;
    op.ndu0.srcA = RowSrc::DataRead;
    op.ndu0.dst = 3;
    op.ndu0.addrReg = 5;
    op.ndu0.param = uint8_t(NduStride::S128);

    runProgram({setRow(0, 0), setByte(5, 64), setRow(1, 22), op,
                storeData(RowSrc::N3)});
    auto out = readData(22);
    for (int g = 0; g < rb / 64; ++g)
        for (int j = 0; j < 64; ++j)
            ASSERT_EQ(out[g * 64 + j], src[(64 + g * 128 + j) % rb]);
}

TEST_F(MachineTest, RotateMovesBytesWithWraparound)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> src(rb);
    for (int i = 0; i < rb; ++i)
        src[i] = uint8_t(i % 256);
    writeData(0, src);

    Instruction op;
    op.dataRead.enable = true;
    op.ndu0.op = NduOp::Rotate;
    op.ndu0.srcA = RowSrc::DataRead;
    op.ndu0.dst = 0;
    op.ndu0.addrReg = 6;

    runProgram({setRow(0, 0), setByte(6, 64), setRow(1, 23), op,
                storeData(RowSrc::N0)});
    auto out = readData(23);
    for (int i = 0; i < rb; ++i)
        ASSERT_EQ(out[i], src[(i + 64) % rb]);
}

TEST_F(MachineTest, Compress2ExtractsStridedBytes)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> src(rb);
    for (int i = 0; i < rb; ++i)
        src[i] = uint8_t(i & 0xff);
    writeData(0, src);

    Instruction op;
    op.dataRead.enable = true;
    op.ndu0.op = NduOp::Compress2;
    op.ndu0.srcA = RowSrc::DataRead;
    op.ndu0.dst = 0;
    op.ndu0.param = 1; // odd phase

    runProgram({setRow(0, 0), setRow(1, 24), op, storeData(RowSrc::N0)});
    auto out = readData(24);
    for (int g = 0; g < rb / 64; ++g)
        for (int j = 0; j < 64; ++j)
            ASSERT_EQ(out[g * 64 + j], src[g * 64 + ((2 * j + 1) & 63)]);
}

TEST_F(MachineTest, MergeMaskSelectsPerByte)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> mask(rb), a(rb, 0x11), b(rb, 0x22);
    for (int i = 0; i < rb; ++i)
        mask[i] = (i % 3 == 0) ? 1 : 0;
    writeData(0, mask);
    writeData(1, a);
    writeData(2, b);

    // Load mask into P0, then A into N0, B into N1, then merge.
    Instruction lm;
    lm.dataRead.enable = true;
    lm.dataRead.postInc = true;
    lm.ndu0.op = NduOp::LoadMask;
    lm.ndu0.srcA = RowSrc::DataRead;
    lm.ndu0.dst = 0;
    Instruction la = loadData(0, true);
    Instruction lb = loadData(1, true);
    Instruction merge;
    merge.ndu0.op = NduOp::MergeMask;
    merge.ndu0.srcA = RowSrc::N0;
    merge.ndu0.srcB = RowSrc::N1;
    merge.ndu0.dst = 2;
    merge.ndu0.param = 0; // P0, not inverted

    runProgram({setRow(0, 0), setInc(0, 1, 0), setRow(1, 30), lm, la, lb,
                merge, storeData(RowSrc::N2)});
    auto out = readData(30);
    for (int i = 0; i < rb; ++i)
        ASSERT_EQ(out[i], mask[i] ? 0x11 : 0x22);
}

TEST_F(MachineTest, Requant8WithReluAndZeroPoint)
{
    RequantEntry e;
    e.rq = computeRequant(0.25f, 10);
    e.outType = DType::UInt8;
    e.actMin = 10; // ReLU in the quantized domain: clamp at zero point.
    e.actMax = 255;
    m.writeRequantEntry(7, e);

    const int rb = m.rowBytesInt();
    std::vector<uint8_t> a(rb, 0);
    a[0] = uint8_t(int8_t(100));
    a[1] = uint8_t(int8_t(-100));
    writeData(0, a);
    std::vector<uint8_t> ones(rb, 1);
    writeWeight(0, ones);

    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    Instruction mac;
    mac.dataRead.enable = true;
    mac.weightRead.enable = true;
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::I8;
    mac.npu.a = RowSrc::DataRead;
    mac.npu.b = RowSrc::WeightRead;
    Instruction rq;
    rq.out.op = OutOp::Requant8;
    rq.out.act = ActFn::Relu;
    rq.out.rqIndex = 7;

    runProgram({setRow(0, 0), setRow(2, 0), setRow(1, 31), zero, mac, rq,
                storeData(RowSrc::OutLo)});
    auto out = readData(31);
    EXPECT_EQ(out[0], 35);  // 100*0.25 + 10
    EXPECT_EQ(out[1], 10);  // -15 clamps to zero point (ReLU)
    EXPECT_EQ(out[2], 10);  // 0 -> zero point
}

TEST_F(MachineTest, AccLoadBiasRep64)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> biasRow(rb, 0);
    for (int j = 0; j < 64; ++j) {
        int32_t v = j * 1000 - 32000;
        std::memcpy(biasRow.data() + j * 4, &v, 4);
    }
    writeWeight(0, biasRow);

    Instruction ld;
    ld.weightRead.enable = true;
    ld.weightRead.reg = 2;
    ld.npu.op = NpuOp::AccLoadBias;
    ld.npu.a = RowSrc::WeightRead;
    ld.npu.b = RowSrc(uint8_t(BiasMode::Rep64));
    Instruction copy;
    copy.out.op = OutOp::CopyAcc32;

    runProgram({setRow(2, 0), setRow(1, 32), ld, copy,
                storeData(RowSrc::OutLo)});
    auto out = readData(32);
    for (int j = 0; j < 64; ++j) {
        int32_t got;
        std::memcpy(&got, out.data() + j * 4, 4);
        EXPECT_EQ(got, j * 1000 - 32000);
    }
}

TEST_F(MachineTest, HardwareLoopIterates)
{
    // Store the splat value to successive rows inside a loop of 5.
    Instruction begin;
    begin.ctrl.op = CtrlOp::LoopBegin;
    begin.ctrl.reg = 0;
    begin.ctrl.imm = 5;
    Instruction splat;
    splat.ctrl.imm = 0x33;
    splat.ndu0.op = NduOp::SplatImm;
    splat.ndu0.dst = 0;
    Instruction st = storeData(RowSrc::N0, true);
    st.ctrl.op = CtrlOp::LoopEnd;
    st.ctrl.reg = 0;

    runProgram({setRow(1, 40), setInc(1, 1, 0), begin, splat, st});
    for (int r = 40; r < 45; ++r) {
        auto row = readData(r);
        EXPECT_EQ(row[0], 0x33) << "row " << r;
    }
    auto after = readData(45);
    EXPECT_EQ(after[0], 0); // Loop ran exactly 5 times.
}

TEST_F(MachineTest, RepExecutesBodyNTimes)
{
    // acc += 1 executed 37 times via Rep on a single instruction.
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> ones(rb, 1);
    writeData(0, ones);

    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    Instruction add;
    add.ctrl.op = CtrlOp::Rep;
    add.ctrl.imm = 37;
    add.dataRead.enable = true;
    add.npu.op = NpuOp::Add;
    add.npu.type = LaneType::I8;
    add.npu.a = RowSrc::DataRead;
    Instruction copy;
    copy.out.op = OutOp::CopyAcc32;

    runProgram({setRow(0, 0), setRow(1, 41), zero, add, copy,
                storeData(RowSrc::OutLo)});
    auto out = readData(41);
    int32_t got;
    std::memcpy(&got, out.data(), 4);
    EXPECT_EQ(got, 37);
}

TEST_F(MachineTest, PredicatedAccumulation)
{
    const int rb = m.rowBytesInt();
    std::vector<uint8_t> a(rb), thr(rb, 50), ones(rb, 1);
    for (int i = 0; i < rb; ++i)
        a[i] = uint8_t(i % 100);
    writeData(0, a);
    writeData(1, thr);
    writeData(2, ones);

    // P0 = a > 50, then acc += 1 where P0.
    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    Instruction ldA = loadData(0, true);
    Instruction ldT = loadData(1, true);
    Instruction cmp;
    cmp.npu.op = NpuOp::CmpGtP0;
    cmp.npu.type = LaneType::U8;
    cmp.npu.a = RowSrc::N0;
    cmp.npu.b = RowSrc::N1;
    Instruction add;
    add.dataRead.enable = true;
    add.npu.op = NpuOp::Add;
    add.npu.type = LaneType::U8;
    add.npu.a = RowSrc::DataRead;
    add.npu.pred = Pred::P0;
    Instruction copy;
    copy.out.op = OutOp::CopyAcc32;

    runProgram({setRow(0, 0), setInc(0, 1, 0), setRow(1, 42), zero, ldA,
                ldT, cmp, add, copy, storeData(RowSrc::OutLo)});
    auto out = readData(42);
    for (int i = 0; i < rb / 4; ++i) {
        int32_t got;
        std::memcpy(&got, out.data() + i * 4, 4);
        EXPECT_EQ(got, (i % 100) > 50 ? 1 : 0) << i;
    }
}

TEST_F(MachineTest, MacFwdTakesOperandFromAdjacentSlice)
{
    const int rb = m.rowBytesInt();
    const int slice = m.config().sliceBytes;
    std::vector<uint8_t> a(rb), ones(rb, 1);
    for (int i = 0; i < rb; ++i)
        a[i] = uint8_t(i % 127);
    writeData(0, a);
    writeWeight(0, ones);

    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    Instruction mac;
    mac.dataRead.enable = true;
    mac.weightRead.enable = true;
    mac.npu.op = NpuOp::MacFwd;
    mac.npu.type = LaneType::I8;
    mac.npu.a = RowSrc::DataRead;
    mac.npu.b = RowSrc::WeightRead;
    Instruction copy;
    copy.out.op = OutOp::CopyAcc32;

    runProgram({setRow(0, 0), setRow(2, 0), setRow(1, 43), zero, mac,
                copy, storeData(RowSrc::OutLo)});
    auto out = readData(43);
    for (int i = 0; i < rb / 4; ++i) {
        int32_t got;
        std::memcpy(&got, out.data() + i * 4, 4);
        EXPECT_EQ(got, (i + slice) % rb % 127) << i;
    }
}

TEST_F(MachineTest, EventLogRecordsTagsWithCycles)
{
    Instruction e1;
    e1.ctrl.op = CtrlOp::Event;
    e1.ctrl.imm = 1001;
    Instruction nop;
    Instruction e2;
    e2.ctrl.op = CtrlOp::Event;
    e2.ctrl.imm = 1002;
    runProgram({e1, nop, nop, e2});

    auto events = m.eventLog().snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].tag, 1001u);
    EXPECT_EQ(events[1].tag, 1002u);
    EXPECT_EQ(events[1].cycle - events[0].cycle, 3u);
}

TEST_F(MachineTest, PerfCountersTrackWork)
{
    m.clearPerf();
    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    Instruction mac;
    mac.ctrl.op = CtrlOp::Rep;
    mac.ctrl.imm = 10;
    mac.dataRead.enable = true;
    mac.weightRead.enable = true;
    mac.npu.op = NpuOp::Mac;
    mac.npu.a = RowSrc::DataRead;
    mac.npu.b = RowSrc::WeightRead;
    runProgram({zero, mac});

    EXPECT_EQ(m.perf().macOps, uint64_t(10 * m.rowBytesInt()));
    EXPECT_GE(m.perf().instructions, 12u);
}

TEST_F(MachineTest, NStepBreakpointPausesEveryNCycles)
{
    Instruction nop;
    std::vector<Instruction> prog(100, nop);
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    m.writeIram(0, enc(prog));
    m.setNStep(10);
    m.start(0);

    int pauses = 0;
    while (true) {
        RunResult res = m.run(1 << 20);
        if (res.reason == StopReason::Halted)
            break;
        ASSERT_EQ(res.reason, StopReason::NStep);
        ++pauses;
        ASSERT_LT(pauses, 1000);
    }
    EXPECT_EQ(pauses, 10);
    m.setNStep(0);
}

TEST_F(MachineTest, CounterWrapBreakpointFires)
{
    Instruction nop;
    std::vector<Instruction> prog(50, nop);
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    m.writeIram(0, enc(prog));
    m.setWrapBreakpoint(0xffffffffu - 20, true);
    m.start(0);
    RunResult res = m.run(1 << 20);
    EXPECT_EQ(res.reason, StopReason::CounterWrap);
    m.setWrapBreakpoint(0, false);
}

TEST_F(MachineTest, EccScrubCorrectsSingleBitFault)
{
    Machine em(chaNcoreConfig(), chaSocConfig(), nullptr,
               /*model_ecc=*/true);
    std::vector<uint8_t> row(size_t(em.rowBytesInt()), 0x77);
    em.hostWriteRow(false, 3, row.data());
    em.dataRam().flipBit(3, 137);

    std::vector<uint8_t> back(size_t(em.rowBytesInt()));
    em.hostReadRow(false, 3, back.data());
    EXPECT_EQ(back[137 / 8], 0x77);
    EXPECT_EQ(em.dataRam().eccStats().corrected, 1u);
    EXPECT_EQ(em.dataRam().eccStats().uncorrectable, 0u);
}

TEST_F(MachineTest, EccDetectsDoubleBitFault)
{
    Machine em(chaNcoreConfig(), chaSocConfig(), nullptr, true);
    std::vector<uint8_t> row(size_t(em.rowBytesInt()), 0x10);
    em.hostWriteRow(false, 4, row.data());
    em.dataRam().flipBit(4, 5);
    em.dataRam().flipBit(4, 9); // Same 64-bit granule.

    std::vector<uint8_t> back(size_t(em.rowBytesInt()));
    em.hostReadRow(false, 4, back.data());
    EXPECT_EQ(em.dataRam().eccStats().uncorrectable, 1u);
}

TEST_F(MachineTest, StreamedProgramRefillsEachBankItLeaves)
{
    // 3.5 banks of nops plus a halt: both banks are loaded up front,
    // then bank 0 is reloaded as the pc leaves it (cycle 255) and bank
    // 1 as the pc wraps back to bank 0 (cycle 511). The last segment
    // leaves nothing to load at cycle 767.
    std::vector<Instruction> prog(size_t(Machine::kBankInstrs) * 7 / 2);
    prog.back().ctrl.op = CtrlOp::Halt;
    for (ExecEngine engine :
         {ExecEngine::Generic, ExecEngine::Specialized}) {
        SCOPED_TRACE(engine == ExecEngine::Generic ? "generic"
                                                    : "specialized");
        Machine::Options opts;
        opts.execEngine = engine;
        Machine sm(chaNcoreConfig(), chaSocConfig(), nullptr, false, opts);
        std::vector<uint64_t> refills;
        RunResult res = sm.runStreamed(enc(prog), &refills);
        EXPECT_EQ(res.reason, StopReason::Halted);
        EXPECT_EQ(res.cycles, uint64_t(prog.size()));
        EXPECT_EQ(refills, (std::vector<uint64_t>{255, 511}));
    }
}

TEST_F(MachineTest, PlanTableKeysOnEncodingNotBuffer)
{
    // Nops, then a splat of `value` stored to data row 5 in the third
    // bank-sized segment, which streaming loads on a refill.
    auto program = [](uint8_t value) {
        std::vector<Instruction> prog(600);
        prog[590] = setRow(1, 5);
        prog[591].ctrl.imm = value;
        prog[591].ndu0.op = NduOp::SplatImm;
        prog[591].ndu0.dst = 0;
        prog[591].write.enable = true;
        prog[591].write.addrReg = 1;
        prog[591].write.src = RowSrc::N0;
        prog.back().ctrl.op = CtrlOp::Halt;
        return enc(prog);
    };
    const size_t rb = size_t(m.rowBytesInt());
    std::vector<EncodedInstruction> buf = program(0x11);
    ASSERT_EQ(m.runStreamed(buf).reason, StopReason::Halted);
    EXPECT_EQ(readData(5), std::vector<uint8_t>(rb, 0x11));
    const size_t entries = m.planTableSize();
    EXPECT_EQ(entries, 4u); // Nop, SetAddrRow, splat, halt.

    // Program B in A's buffer: the refill must load B's splat.
    const std::vector<EncodedInstruction> b = program(0x22);
    std::copy(b.begin(), b.end(), buf.begin());
    ASSERT_EQ(m.runStreamed(buf).reason, StopReason::Halted);
    EXPECT_EQ(readData(5), std::vector<uint8_t>(rb, 0x22));
    EXPECT_EQ(m.planTableSize(), entries + 1);

    // 100 distinct encodings more than the table holds: reaching the
    // bound empties it once, and the last 101 (with the halt) remain.
    Machine fresh(chaNcoreConfig(), chaSocConfig());
    std::vector<Instruction> many;
    for (size_t i = 0; i < Machine::kPlanTableEntries + 100; ++i)
        many.push_back(setRow(0, int(i)));
    many.emplace_back().ctrl.op = CtrlOp::Halt;
    ASSERT_EQ(fresh.runStreamed(enc(many)).reason, StopReason::Halted);
    EXPECT_EQ(fresh.planTableSize(), 101u);
}

TEST_F(MachineTest, WriteToExecutingBankFails)
{
    std::vector<Instruction> bank0(Machine::kBankInstrs);
    m.writeIram(0, enc(bank0));
    m.start(0);
    EXPECT_DEATH(m.writeIram(0, enc({Instruction{}})),
                 "while Ncore executes");
}

TEST_F(MachineTest, SigmoidLutApplied)
{
    std::array<uint8_t, 256> lut{};
    for (int i = 0; i < 256; ++i)
        lut[i] = uint8_t(255 - i); // Recognizable mapping.
    m.writeLut(0, lut);

    RequantEntry e;
    e.rq = computeRequant(0.5f, 0);
    e.outType = DType::UInt8;
    e.actMin = 0;
    e.actMax = 255;
    m.writeRequantEntry(1, e);

    const int rb = m.rowBytesInt();
    std::vector<uint8_t> a(rb, 40), ones(rb, 1);
    writeData(0, a);
    writeWeight(0, ones);

    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    Instruction mac;
    mac.dataRead.enable = true;
    mac.weightRead.enable = true;
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::U8;
    mac.npu.a = RowSrc::DataRead;
    mac.npu.b = RowSrc::WeightRead;
    Instruction rq;
    rq.out.op = OutOp::Requant8;
    rq.out.act = ActFn::Sigmoid;
    rq.out.rqIndex = 1;

    runProgram({setRow(0, 0), setRow(2, 0), setRow(1, 33), zero, mac, rq,
                storeData(RowSrc::OutLo)});
    auto out = readData(33);
    EXPECT_EQ(out[0], 255 - 20); // requant(40) = 20, then LUT.
}

} // namespace
} // namespace ncore
