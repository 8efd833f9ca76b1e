/**
 * @file
 * ISA tests: the 128-bit encoding round-trips every field, rejects
 * overflowing fields, and the disassembler renders every op.
 */

#include <gtest/gtest.h>

#include <vector>

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

/** One encoded field: its width and how to set it in an Instruction. */
struct Field
{
    const char *name;
    int bits;
    void (*set)(Instruction &, uint32_t);
};

/** Every field in encoding order (isa/encoding.h's layout). */
std::vector<Field>
fieldTable()
{
#define NCORE_FIELD(name, bits, lvalue, type)                                \
    Field{name, bits,                                                        \
          [](Instruction &in, uint32_t v) { in.lvalue = type(v); }}
    std::vector<Field> f = {
        NCORE_FIELD("ctrl.op", 4, ctrl.op, CtrlOp),
        NCORE_FIELD("ctrl.reg", 3, ctrl.reg, uint8_t),
        NCORE_FIELD("ctrl.imm", 20, ctrl.imm, uint32_t),
        NCORE_FIELD("dataRead.enable", 1, dataRead.enable, bool),
        NCORE_FIELD("dataRead.reg", 3, dataRead.reg, uint8_t),
        NCORE_FIELD("dataRead.postInc", 1, dataRead.postInc, bool),
        NCORE_FIELD("weightRead.enable", 1, weightRead.enable, bool),
        NCORE_FIELD("weightRead.reg", 3, weightRead.reg, uint8_t),
        NCORE_FIELD("weightRead.postInc", 1, weightRead.postInc, bool),
        NCORE_FIELD("ndu0.op", 4, ndu0.op, NduOp),
        NCORE_FIELD("ndu0.srcA", 4, ndu0.srcA, RowSrc),
        NCORE_FIELD("ndu0.srcB", 4, ndu0.srcB, RowSrc),
        NCORE_FIELD("ndu0.dst", 2, ndu0.dst, uint8_t),
        NCORE_FIELD("ndu0.addrReg", 3, ndu0.addrReg, uint8_t),
        NCORE_FIELD("ndu0.addrInc", 1, ndu0.addrInc, bool),
        NCORE_FIELD("ndu0.param", 6, ndu0.param, uint8_t),
        NCORE_FIELD("ndu1.op", 4, ndu1.op, NduOp),
        NCORE_FIELD("ndu1.srcA", 4, ndu1.srcA, RowSrc),
        NCORE_FIELD("ndu1.srcB", 4, ndu1.srcB, RowSrc),
        NCORE_FIELD("ndu1.dst", 2, ndu1.dst, uint8_t),
        NCORE_FIELD("ndu1.addrReg", 3, ndu1.addrReg, uint8_t),
        NCORE_FIELD("ndu1.addrInc", 1, ndu1.addrInc, bool),
        NCORE_FIELD("ndu1.param", 6, ndu1.param, uint8_t),
        NCORE_FIELD("npu.op", 4, npu.op, NpuOp),
        NCORE_FIELD("npu.type", 2, npu.type, LaneType),
        NCORE_FIELD("npu.a", 4, npu.a, RowSrc),
        NCORE_FIELD("npu.b", 4, npu.b, RowSrc),
        NCORE_FIELD("npu.zeroOff", 1, npu.zeroOff, bool),
        NCORE_FIELD("npu.pred", 2, npu.pred, Pred),
        NCORE_FIELD("out.op", 3, out.op, OutOp),
        NCORE_FIELD("out.act", 3, out.act, ActFn),
        NCORE_FIELD("out.rqIndex", 8, out.rqIndex, uint8_t),
        NCORE_FIELD("out.param", 2, out.param, uint8_t),
        NCORE_FIELD("write.enable", 1, write.enable, bool),
        NCORE_FIELD("write.weightRam", 1, write.weightRam, bool),
        NCORE_FIELD("write.addrReg", 3, write.addrReg, uint8_t),
        NCORE_FIELD("write.postInc", 1, write.postInc, bool),
        NCORE_FIELD("write.src", 4, write.src, RowSrc),
    };
#undef NCORE_FIELD
    return f;
}

/** Bit-serial reference encoder: field i's value, LSB first, in order. */
EncodedInstruction
referenceEncode(const std::vector<Field> &fields,
                const std::vector<uint32_t> &values)
{
    EncodedInstruction w;
    int pos = 0;
    for (size_t i = 0; i < fields.size(); ++i)
        for (int b = 0; b < fields[i].bits; ++b, ++pos)
            if ((values[i] >> b) & 1)
                (pos < 64 ? w.lo : w.hi) |= uint64_t(1) << (pos % 64);
    return w;
}

/**
 * Each field alone at 0 and at its maximum (every other field 0): the
 * word matches the bit-serial reference and decodes back. The fields
 * that straddle bit 64 split across the two words.
 */
TEST(IsaEncoding, FieldBoundaries)
{
    const std::vector<Field> fields = fieldTable();
    int total = 0, straddling = 0;
    for (const Field &f : fields) {
        straddling += total < 64 && total + f.bits > 64;
        total += f.bits;
    }
    ASSERT_EQ(total, kInstructionBits);
    EXPECT_GT(straddling, 0);

    for (size_t i = 0; i < fields.size(); ++i) {
        const uint32_t max = (uint32_t(1) << fields[i].bits) - 1;
        for (uint32_t v : {0u, max}) {
            SCOPED_TRACE(testing::Message() << fields[i].name << " = " << v);
            Instruction in;
            fields[i].set(in, v);
            std::vector<uint32_t> values(fields.size(), 0);
            values[i] = v;
            const EncodedInstruction enc = encodeInstruction(in);
            const EncodedInstruction ref = referenceEncode(fields, values);
            EXPECT_EQ(enc.lo, ref.lo);
            EXPECT_EQ(enc.hi, ref.hi);
            EXPECT_EQ(decodeInstruction(enc), in);
        }
    }

    // Every field at its maximum at once: all 128 bits set.
    Instruction all;
    for (const Field &f : fields)
        f.set(all, (uint32_t(1) << f.bits) - 1);
    const EncodedInstruction enc = encodeInstruction(all);
    EXPECT_EQ(enc.lo, ~uint64_t(0));
    EXPECT_EQ(enc.hi, ~uint64_t(0));
    EXPECT_EQ(decodeInstruction(enc), all);
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
