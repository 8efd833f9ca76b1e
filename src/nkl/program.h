/**
 * @file
 * ProgramBuilder: the NKL's assembler layer. Kernels are emitted as
 * structural Instructions ("hand-tuned inner kernels written in
 * assembly", paper V-B) and encoded to 128-bit words for the loadable.
 */

#ifndef NCORE_NKL_PROGRAM_H
#define NCORE_NKL_PROGRAM_H

#include <vector>

#include "isa/encoding.h"
#include "isa/instruction.h"

namespace ncore {

/** Accumulates a straight-line Ncore program. */
class ProgramBuilder
{
  public:
    void
    emit(const Instruction &in)
    {
        code_.push_back(in);
    }

    /** ctrl-only helpers ------------------------------------------------ */

    void
    setRow(int reg, int row)
    {
        emit(ctrl(CtrlOp::SetAddrRow, reg, uint32_t(row)));
    }

    void
    setByte(int reg, int byte)
    {
        emit(ctrl(CtrlOp::SetAddrByte, reg, uint32_t(byte)));
    }

    void
    setInc(int reg, int row_inc, int byte_inc)
    {
        fatal_if(row_inc < -512 || row_inc > 511 || byte_inc < -512 ||
                     byte_inc > 511,
                 "address increment out of the signed 10-bit range");
        emit(ctrl(CtrlOp::SetAddrInc, reg,
                  uint32_t(((row_inc & 0x3ff) << 10) |
                           (byte_inc & 0x3ff))));
    }

    void
    setWrap(int reg, int count)
    {
        emit(ctrl(CtrlOp::SetAddrWrap, reg, uint32_t(count)));
    }

    void
    setZeroOff(uint8_t data_zero, uint8_t weight_zero)
    {
        emit(ctrl(CtrlOp::SetZeroOff, 0,
                  (uint32_t(data_zero) << 8) | weight_zero));
    }

    void
    event(uint32_t tag)
    {
        emit(ctrl(CtrlOp::Event, 0, tag));
    }

    void
    dmaKick(int desc)
    {
        emit(ctrl(CtrlOp::DmaKick, 0, uint32_t(desc)));
    }

    /** Stall until `queue` has at most `outstanding` transfers left. */
    void
    dmaFence(int queue, int outstanding = 0)
    {
        emit(ctrl(CtrlOp::DmaFence, queue, uint32_t(outstanding)));
    }

    void
    halt()
    {
        emit(ctrl(CtrlOp::Halt, 0, 0));
    }

    /** Load predicate register `preg` from the mask row at `row`,
     *  using address register `areg`. */
    void
    loadMask(int areg, int row, int preg)
    {
        Instruction in;
        in.ctrl.op = CtrlOp::SetAddrRow;
        in.ctrl.reg = uint8_t(areg);
        in.ctrl.imm = uint32_t(row);
        in.dataRead.enable = true;
        in.dataRead.reg = uint8_t(areg);
        in.ndu0.op = NduOp::LoadMask;
        in.ndu0.srcA = RowSrc::DataRead;
        in.ndu0.dst = uint8_t(preg);
        emit(in);
    }

    /** Splat a byte into an N register. */
    void
    splat(int ndst, uint8_t value)
    {
        Instruction in;
        in.ctrl.imm = value;
        in.ndu0.op = NduOp::SplatImm;
        in.ndu0.dst = uint8_t(ndst);
        emit(in);
    }

    size_t size() const { return code_.size(); }
    const std::vector<Instruction> &instructions() const { return code_; }
    std::vector<Instruction> &instructions() { return code_; }

    std::vector<EncodedInstruction>
    encode() const
    {
        std::vector<EncodedInstruction> out;
        out.reserve(code_.size());
        for (const Instruction &in : code_)
            out.push_back(encodeInstruction(in));
        return out;
    }

  private:
    static Instruction
    ctrl(CtrlOp op, int reg, uint32_t imm)
    {
        Instruction in;
        in.ctrl.op = op;
        in.ctrl.reg = uint8_t(reg);
        in.ctrl.imm = imm;
        return in;
    }

    std::vector<Instruction> code_;
};

} // namespace ncore

#endif // NCORE_NKL_PROGRAM_H
