#include "encoding.h"

#include "common/logging.h"

namespace ncore {

namespace {

/**
 * Sequential field writer over a 128-bit pair: each field is ORed in
 * whole, split across the lo/hi word boundary when it straddles bit 64.
 */
class BitWriter
{
  public:
    void
    put(uint32_t value, int bits)
    {
        panic_if(bits <= 0 || bits > 32, "bad field width %d", bits);
        panic_if(bits < 32 && value >= (1u << bits),
                 "field value %u overflows %d bits", value, bits);
        panic_if(pos_ + bits > kInstructionBits,
                 "encoding exceeds 128 bits");
        const uint64_t v = value;
        if (pos_ >= 64) {
            word_.hi |= v << (pos_ - 64);
        } else {
            word_.lo |= v << pos_;
            if (pos_ + bits > 64)
                word_.hi |= v >> (64 - pos_);
        }
        pos_ += bits;
    }

    EncodedInstruction
    finish() const
    {
        panic_if(pos_ != kInstructionBits,
                 "encoding used %d of 128 bits", pos_);
        return word_;
    }

  private:
    EncodedInstruction word_;
    int pos_ = 0;
};

/** Sequential field reader over a 128-bit pair, the writer's inverse. */
class BitReader
{
  public:
    explicit BitReader(const EncodedInstruction &w) : word_(w) {}

    uint32_t
    get(int bits)
    {
        panic_if(pos_ + bits > kInstructionBits,
                 "decoding exceeds 128 bits");
        uint64_t v;
        if (pos_ >= 64) {
            v = word_.hi >> (pos_ - 64);
        } else {
            v = word_.lo >> pos_;
            if (pos_ + bits > 64)
                v |= word_.hi << (64 - pos_);
        }
        pos_ += bits;
        return uint32_t(v & ((uint64_t(1) << bits) - 1));
    }

    void
    checkDone() const
    {
        panic_if(pos_ != kInstructionBits,
                 "decoding used %d of 128 bits", pos_);
    }

  private:
    EncodedInstruction word_;
    int pos_ = 0;
};

void
putAddrRef(BitWriter &w, const AddrRef &a)
{
    w.put(a.enable ? 1 : 0, 1);
    w.put(a.reg, 3);
    w.put(a.postInc ? 1 : 0, 1);
}

AddrRef
getAddrRef(BitReader &r)
{
    AddrRef a;
    a.enable = r.get(1);
    a.reg = static_cast<uint8_t>(r.get(3));
    a.postInc = r.get(1);
    return a;
}

void
putNdu(BitWriter &w, const NduSlot &n)
{
    w.put(static_cast<uint32_t>(n.op), 4);
    w.put(static_cast<uint32_t>(n.srcA), 4);
    w.put(static_cast<uint32_t>(n.srcB), 4);
    w.put(n.dst, 2);
    w.put(n.addrReg, 3);
    w.put(n.addrInc ? 1 : 0, 1);
    w.put(n.param, 6);
}

NduSlot
getNdu(BitReader &r)
{
    NduSlot n;
    n.op = static_cast<NduOp>(r.get(4));
    n.srcA = static_cast<RowSrc>(r.get(4));
    n.srcB = static_cast<RowSrc>(r.get(4));
    n.dst = static_cast<uint8_t>(r.get(2));
    n.addrReg = static_cast<uint8_t>(r.get(3));
    n.addrInc = r.get(1);
    n.param = static_cast<uint8_t>(r.get(6));
    return n;
}

} // namespace

EncodedInstruction
encodeInstruction(const Instruction &inst)
{
    BitWriter w;
    w.put(static_cast<uint32_t>(inst.ctrl.op), 4);
    w.put(inst.ctrl.reg, 3);
    w.put(inst.ctrl.imm, 20);
    putAddrRef(w, inst.dataRead);
    putAddrRef(w, inst.weightRead);
    putNdu(w, inst.ndu0);
    putNdu(w, inst.ndu1);
    w.put(static_cast<uint32_t>(inst.npu.op), 4);
    w.put(static_cast<uint32_t>(inst.npu.type), 2);
    w.put(static_cast<uint32_t>(inst.npu.a), 4);
    w.put(static_cast<uint32_t>(inst.npu.b), 4);
    w.put(inst.npu.zeroOff ? 1 : 0, 1);
    w.put(static_cast<uint32_t>(inst.npu.pred), 2);
    w.put(static_cast<uint32_t>(inst.out.op), 3);
    w.put(static_cast<uint32_t>(inst.out.act), 3);
    w.put(inst.out.rqIndex, 8);
    w.put(inst.out.param, 2);
    w.put(inst.write.enable ? 1 : 0, 1);
    w.put(inst.write.weightRam ? 1 : 0, 1);
    w.put(inst.write.addrReg, 3);
    w.put(inst.write.postInc ? 1 : 0, 1);
    w.put(static_cast<uint32_t>(inst.write.src), 4);
    return w.finish();
}

Instruction
decodeInstruction(const EncodedInstruction &enc)
{
    BitReader r(enc);
    Instruction inst;
    inst.ctrl.op = static_cast<CtrlOp>(r.get(4));
    inst.ctrl.reg = static_cast<uint8_t>(r.get(3));
    inst.ctrl.imm = r.get(20);
    inst.dataRead = getAddrRef(r);
    inst.weightRead = getAddrRef(r);
    inst.ndu0 = getNdu(r);
    inst.ndu1 = getNdu(r);
    inst.npu.op = static_cast<NpuOp>(r.get(4));
    inst.npu.type = static_cast<LaneType>(r.get(2));
    inst.npu.a = static_cast<RowSrc>(r.get(4));
    inst.npu.b = static_cast<RowSrc>(r.get(4));
    inst.npu.zeroOff = r.get(1);
    inst.npu.pred = static_cast<Pred>(r.get(2));
    inst.out.op = static_cast<OutOp>(r.get(3));
    inst.out.act = static_cast<ActFn>(r.get(3));
    inst.out.rqIndex = static_cast<uint8_t>(r.get(8));
    inst.out.param = static_cast<uint8_t>(r.get(2));
    inst.write.enable = r.get(1);
    inst.write.weightRam = r.get(1);
    inst.write.addrReg = static_cast<uint8_t>(r.get(3));
    inst.write.postInc = r.get(1);
    inst.write.src = static_cast<RowSrc>(r.get(4));
    r.checkDone();
    return inst;
}

} // namespace ncore
