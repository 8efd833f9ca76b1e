/**
 * @file
 * ISA tests: the 128-bit encoding round-trips every field, rejects
 * overflowing fields, and the disassembler renders every op.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "isa/encoding.h"
#include "isa/instruction.h"

namespace ncore {
namespace {

Instruction
randomInstruction(Rng &rng)
{
    Instruction in;
    in.ctrl.op = CtrlOp(rng.nextBelow(13));
    in.ctrl.reg = uint8_t(rng.nextBelow(8));
    in.ctrl.imm = uint32_t(rng.nextBelow(1u << 20));
    in.dataRead.enable = rng.nextBelow(2);
    in.dataRead.reg = uint8_t(rng.nextBelow(8));
    in.dataRead.postInc = rng.nextBelow(2);
    in.weightRead.enable = rng.nextBelow(2);
    in.weightRead.reg = uint8_t(rng.nextBelow(8));
    in.weightRead.postInc = rng.nextBelow(2);
    for (NduSlot *n : {&in.ndu0, &in.ndu1}) {
        n->op = NduOp(rng.nextBelow(10));
        n->srcA = RowSrc(rng.nextBelow(12));
        n->srcB = RowSrc(rng.nextBelow(12));
        n->dst = uint8_t(rng.nextBelow(4));
        n->addrReg = uint8_t(rng.nextBelow(8));
        n->addrInc = rng.nextBelow(2);
        n->param = uint8_t(rng.nextBelow(64));
    }
    in.npu.op = NpuOp(rng.nextBelow(14));
    in.npu.type = LaneType(rng.nextBelow(4));
    in.npu.a = RowSrc(rng.nextBelow(12));
    in.npu.b = RowSrc(rng.nextBelow(12));
    in.npu.zeroOff = rng.nextBelow(2);
    in.npu.pred = Pred(rng.nextBelow(4));
    in.out.op = OutOp(rng.nextBelow(6));
    in.out.act = ActFn(rng.nextBelow(5));
    in.out.rqIndex = uint8_t(rng.nextBelow(256));
    in.out.param = uint8_t(rng.nextBelow(4));
    in.write.enable = rng.nextBelow(2);
    in.write.weightRam = rng.nextBelow(2);
    in.write.addrReg = uint8_t(rng.nextBelow(8));
    in.write.postInc = rng.nextBelow(2);
    in.write.src = RowSrc(rng.nextBelow(12));
    return in;
}

TEST(IsaEncoding, RoundTripsRandomInstructions)
{
    Rng rng(2024);
    for (int i = 0; i < 5000; ++i) {
        Instruction in = randomInstruction(rng);
        EncodedInstruction enc = encodeInstruction(in);
        Instruction back = decodeInstruction(enc);
        ASSERT_EQ(in, back) << "trial " << i << ": " << in.toString();
    }
}

TEST(IsaEncoding, DefaultInstructionEncodesToZero)
{
    EncodedInstruction enc = encodeInstruction(Instruction{});
    EXPECT_EQ(enc.lo, 0u);
    EXPECT_EQ(enc.hi, 0u);
}

TEST(IsaEncoding, DistinctInstructionsDistinctWords)
{
    Instruction a;
    Instruction b;
    b.npu.op = NpuOp::Mac;
    EXPECT_FALSE(encodeInstruction(a) == encodeInstruction(b));
}

TEST(IsaEncoding, ImmOverflowPanics)
{
    Instruction in;
    in.ctrl.imm = 1u << 20; // 21 bits: overflows the 20-bit field.
    EXPECT_DEATH(encodeInstruction(in), "overflows");
}

TEST(IsaEncoding, Exactly128Bits)
{
    // The encoder finish() checks this internally; a successful
    // round-trip of the widest-field instruction proves the layout.
    Instruction in;
    in.ctrl.op = CtrlOp::Halt;
    in.ctrl.reg = 7;
    in.ctrl.imm = (1u << 20) - 1;
    in.out.rqIndex = 255;
    in.ndu0.param = 63;
    in.ndu1.param = 63;
    EXPECT_EQ(decodeInstruction(encodeInstruction(in)), in);
}

TEST(IsaDisasm, EveryOpHasAName)
{
    for (int i = 0; i < 10; ++i)
        EXPECT_STRNE(nduOpName(NduOp(i)), "?");
    for (int i = 0; i < 14; ++i)
        EXPECT_STRNE(npuOpName(NpuOp(i)), "?");
    for (int i = 0; i < 6; ++i)
        EXPECT_STRNE(outOpName(OutOp(i)), "?");
    for (int i = 0; i < 13; ++i)
        EXPECT_STRNE(ctrlOpName(CtrlOp(i)), "?");
}

TEST(IsaDisasm, RendersAConvInnerLoop)
{
    // The Fig. 6 pattern: rep N { wread; bcast64; mac; } in one word.
    Instruction in;
    in.ctrl.op = CtrlOp::Rep;
    in.ctrl.imm = 3;
    in.weightRead.enable = true;
    in.weightRead.reg = 3;
    in.ndu0.op = NduOp::GroupBcast;
    in.ndu0.srcA = RowSrc::WeightRead;
    in.ndu0.dst = 1;
    in.ndu0.addrReg = 5;
    in.ndu0.addrInc = true;
    in.npu.op = NpuOp::Mac;
    in.npu.a = RowSrc::N0;
    in.npu.b = RowSrc::N1;
    std::string s = in.toString();
    EXPECT_NE(s.find("rep"), std::string::npos);
    EXPECT_NE(s.find("bcast64"), std::string::npos);
    EXPECT_NE(s.find("mac"), std::string::npos);
}

TEST(IsaDisasm, DmaFencePrintsItsCount)
{
    Instruction in;
    in.ctrl.op = CtrlOp::DmaFence;
    in.ctrl.reg = 1;
    in.ctrl.imm = 2;
    EXPECT_EQ(in.toString().find("dmafence q1 outstanding<=2"), 0u)
        << in.toString();
}

TEST(Isa, StrideDecoding)
{
    EXPECT_EQ(nduStrideBytes(NduStride::S0), 0);
    EXPECT_EQ(nduStrideBytes(NduStride::S1), 1);
    EXPECT_EQ(nduStrideBytes(NduStride::S2), 2);
    EXPECT_EQ(nduStrideBytes(NduStride::S64), 64);
    EXPECT_EQ(nduStrideBytes(NduStride::S128), 128);
    EXPECT_EQ(nduStrideBytes(NduStride::S256), 256);
}

} // namespace
} // namespace ncore
