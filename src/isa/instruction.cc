#include "instruction.h"

#include <cstdio>

namespace ncore {

const char *
rowSrcName(RowSrc s)
{
    switch (s) {
      case RowSrc::None: return "-";
      case RowSrc::DataRead: return "dram";
      case RowSrc::WeightRead: return "wtram";
      case RowSrc::Imm: return "imm";
      case RowSrc::N0: return "n0";
      case RowSrc::N1: return "n1";
      case RowSrc::N2: return "n2";
      case RowSrc::N3: return "n3";
      case RowSrc::OutLo: return "outlo";
      case RowSrc::OutHi: return "outhi";
      case RowSrc::DataReadHi: return "dram.hi";
      case RowSrc::WeightReadHi: return "wtram.hi";
    }
    return "?";
}

const char *
nduOpName(NduOp o)
{
    switch (o) {
      case NduOp::None: return "nop";
      case NduOp::Bypass: return "bypass";
      case NduOp::Rotate: return "rotate";
      case NduOp::WindowGather: return "wgather";
      case NduOp::RepWindow: return "repwin";
      case NduOp::GroupBcast: return "bcast64";
      case NduOp::Compress2: return "compress2";
      case NduOp::MergeMask: return "merge";
      case NduOp::SplatImm: return "splat";
      case NduOp::LoadMask: return "loadmask";
    }
    return "?";
}

const char *
npuOpName(NpuOp o)
{
    switch (o) {
      case NpuOp::None: return "nop";
      case NpuOp::Mac: return "mac";
      case NpuOp::MacFwd: return "macfwd";
      case NpuOp::Add: return "add";
      case NpuOp::Sub: return "sub";
      case NpuOp::Min: return "min";
      case NpuOp::Max: return "max";
      case NpuOp::And: return "and";
      case NpuOp::Or: return "or";
      case NpuOp::Xor: return "xor";
      case NpuOp::AccZero: return "acczero";
      case NpuOp::AccLoadBias: return "ldbias";
      case NpuOp::CmpGtP0: return "cmpgt.p0";
      case NpuOp::CmpGtP1: return "cmpgt.p1";
    }
    return "?";
}

const char *
outOpName(OutOp o)
{
    switch (o) {
      case OutOp::None: return "nop";
      case OutOp::Requant8: return "rq8";
      case OutOp::Requant16: return "rq16";
      case OutOp::StoreBf16: return "stbf16";
      case OutOp::CopyAcc32: return "acc32";
      case OutOp::ActOnly8: return "act8";
    }
    return "?";
}

const char *
ctrlOpName(CtrlOp o)
{
    switch (o) {
      case CtrlOp::None: return "nop";
      case CtrlOp::Rep: return "rep";
      case CtrlOp::LoopBegin: return "loop";
      case CtrlOp::LoopEnd: return "endloop";
      case CtrlOp::SetAddrRow: return "setrow";
      case CtrlOp::SetAddrByte: return "setbyte";
      case CtrlOp::SetAddrInc: return "setinc";
      case CtrlOp::SetAddrWrap: return "setwrap";
      case CtrlOp::SetZeroOff: return "setzoff";
      case CtrlOp::DmaKick: return "dmakick";
      case CtrlOp::DmaFence: return "dmafence";
      case CtrlOp::Event: return "event";
      case CtrlOp::Halt: return "halt";
    }
    return "?";
}

const char *
issueSlotName(IssueSlot s)
{
    switch (s) {
      case IssueSlot::Ctrl: return "ctrl";
      case IssueSlot::DataRead: return "data_read";
      case IssueSlot::WeightRead: return "weight_read";
      case IssueSlot::Ndu0: return "ndu0";
      case IssueSlot::Ndu1: return "ndu1";
      case IssueSlot::Npu: return "npu";
      case IssueSlot::Out: return "out";
      case IssueSlot::Write: return "write";
    }
    return "?";
}

std::string
Instruction::toString() const
{
    char buf[256];
    std::string s;

    if (ctrl.op == CtrlOp::DmaFence) {
        std::snprintf(buf, sizeof(buf), "dmafence q%u outstanding<=%u; ",
                      ctrl.reg, ctrl.imm);
        s += buf;
    } else if (ctrl.op != CtrlOp::None) {
        std::snprintf(buf, sizeof(buf), "%s r%u #%u; ",
                      ctrlOpName(ctrl.op), ctrl.reg, ctrl.imm);
        s += buf;
    }
    if (dataRead.enable) {
        std::snprintf(buf, sizeof(buf), "dread a%u%s; ", dataRead.reg,
                      dataRead.postInc ? "+" : "");
        s += buf;
    }
    if (weightRead.enable) {
        std::snprintf(buf, sizeof(buf), "wread a%u%s; ", weightRead.reg,
                      weightRead.postInc ? "+" : "");
        s += buf;
    }
    for (const NduSlot *n : {&ndu0, &ndu1}) {
        if (n->op == NduOp::None)
            continue;
        std::snprintf(buf, sizeof(buf), "%s n%u,%s,%s a%u%s p%u; ",
                      nduOpName(n->op), n->dst, rowSrcName(n->srcA),
                      rowSrcName(n->srcB), n->addrReg,
                      n->addrInc ? "+" : "", n->param);
        s += buf;
    }
    if (npu.op != NpuOp::None) {
        std::snprintf(buf, sizeof(buf), "%s %s,%s%s; ", npuOpName(npu.op),
                      rowSrcName(npu.a), rowSrcName(npu.b),
                      npu.zeroOff ? " zoff" : "");
        s += buf;
    }
    if (out.op != OutOp::None) {
        std::snprintf(buf, sizeof(buf), "%s rq%u %s; ", outOpName(out.op),
                      out.rqIndex, actFnName(out.act));
        s += buf;
    }
    if (write.enable) {
        std::snprintf(buf, sizeof(buf), "%s a%u%s <- %s; ",
                      write.weightRam ? "wstore" : "dstore", write.addrReg,
                      write.postInc ? "+" : "", rowSrcName(write.src));
        s += buf;
    }
    if (s.empty())
        s = "nop";
    return s;
}

} // namespace ncore
