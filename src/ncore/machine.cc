#include "machine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/bf16.h"
#include "common/saturate.h"
#include "ncore/simd.h"

namespace ncore {

namespace {

/** Signed 10-bit field extraction for SetAddrInc. */
int16_t
signed10(uint32_t v)
{
    v &= 0x3ff;
    return static_cast<int16_t>(v & 0x200 ? int32_t(v) - 0x400
                                          : int32_t(v));
}

/** A byte offset normalized into [0, rb), as `((off % rb) + rb) % rb`. */
int
normByte(int32_t off, int rb)
{
    return off >= 0 && off < rb ? off : ((off % rb) + rb) % rb;
}

/**
 * Whether every byte offset that register `a` holds over `reps` more
 * byte bumps fits int32, the transient one before a wrap snaps back
 * included, and its iteration count is below its wrap count. Then the
 * closed-form walk computes exactly what bumpByte would.
 */
bool
walkFits(const AddrReg &a, uint64_t reps)
{
    const int64_t inc = std::abs(int64_t(a.byteInc));
    if (a.wrapCount == 0)
        return std::abs(int64_t(a.byte)) + int64_t(reps) * inc <=
               INT32_MAX;
    if (a.iter >= a.wrapCount)
        return false;
    const int64_t base = int64_t(a.byte) - int64_t(a.iter) * a.byteInc;
    return std::abs(base) + int64_t(a.wrapCount) * inc <= INT32_MAX;
}

/** Taps before `a` wraps (its row then changes), or "never". */
uint64_t
tapsToWrap(const AddrReg &a)
{
    return a.wrapCount ? a.wrapCount - a.iter : UINT64_MAX;
}

/** n byte bumps of `a` in one step (n <= tapsToWrap(a)), as bumpByte. */
void
advanceByte(AddrReg &a, int n)
{
    a.byte += n * a.byteInc;
    if (a.wrapCount && (a.iter += uint32_t(n)) == a.wrapCount) {
        a.iter = 0;
        a.byte -= int32_t(a.byteInc) * int32_t(a.wrapCount);
        a.row += a.rowInc;
    }
}

/**
 * Fills one chunk's operand panels (ConvPanels) through a tier's
 * ConvRepFill, a stretch of taps at a time: n taps that read one data
 * and one weight row at byte offsets d + i * dInc and w + i * wInc
 * (i < n, each normalized into the row). GroupBcast data runs of
 * consecutive bytes of one row, which wrap at the row end, carry over
 * from one stretch to the next and are widened when they end.
 */
class PanelFiller
{
  public:
    PanelFiller(ConvPanels &pn, const ConvRepFill &fill, int rb,
                bool gather, int ws, int32_t za, int32_t zb)
        : pn_(pn), fill_(fill), rb_(rb), gather_(gather), ws_(ws), za_(za),
          zb_(zb)
    {
    }

    void
    add(int k, int n, const uint8_t *drow, int32_t d, int d_inc,
        const uint8_t *wrow, int32_t w, int w_inc)
    {
        addWeights(k, n, wrow, w, w_inc);
        if (gather_) {
            for (int i = 0; i < n; ++i) {
                pn_.rows[k + i] = drow;
                pn_.offs[k + i] = normByte(d + i * d_inc, rb_);
            }
        } else if (d_inc == 1) {
            addRun(drow, normByte(d, rb_), k, n);
        } else {
            for (int i = 0; i < n; ++i)
                addRun(drow, normByte(d + i * d_inc, rb_), k + i, 1);
        }
    }

    /** Widen the pending data run; call once the chunk is complete. */
    void
    flush()
    {
        if (runN_)
            fill_.dataRun(pn_.data, runK_, runN_, runRow_, runOff_,
                          pn_.groupStride, rb_, za_);
        runN_ = 0;
    }

  private:
    void
    addWeights(int k, int n, const uint8_t *wrow, int32_t w, int w_inc)
    {
        // Windows in the row at a fixed step: straight from the row.
        const int first = normByte(w, rb_);
        const int64_t last = first + int64_t(n - 1) * w_inc;
        if (ws_ == 1 && std::min<int64_t>(first, last) >= 0 &&
            std::max<int64_t>(first, last) + 64 <= rb_) {
            fill_.weightTaps(pn_.wt, k, n, wrow + first, w_inc, zb_);
            return;
        }
        // Strided or wrapping windows: gather each one.
        uint8_t buf[64];
        for (int i = 0; i < n; ++i) {
            for (int j = 0, at = normByte(w + i * w_inc, rb_); j < 64; ++j) {
                buf[j] = wrow[at];
                if ((at += ws_) >= rb_)
                    at -= rb_;
            }
            fill_.weightTaps(pn_.wt, k + i, 1, buf, 0, zb_);
        }
    }

    void
    addRun(const uint8_t *row, int off, int k, int n)
    {
        if (runN_ && row == runRow_ && off == runOff_ + runN_) {
            runN_ += n;
            return;
        }
        flush();
        runRow_ = row;
        runOff_ = off;
        runK_ = k;
        runN_ = n;
    }

    ConvPanels &pn_;
    const ConvRepFill &fill_;
    const int rb_;
    const bool gather_;
    const int ws_;
    const int32_t za_, zb_;
    const uint8_t *runRow_ = nullptr;
    int runOff_ = 0, runK_ = 0, runN_ = 0;
};

} // namespace

Machine::Machine(const MachineConfig &cfg, const SocConfig &soc,
                 SystemMemory *sysmem, bool model_ecc, const Options &opts)
    : cfg_(cfg), soc_(soc), rowBytes_(cfg.rowBytes()),
      dataRam_("dataRam", cfg.ramRows, rowBytes_, model_ecc),
      weightRam_("weightRam", cfg.ramRows, rowBytes_, model_ecc),
      iram_(kPcSpace), decoded_(kPcSpace), plans_(kPcSpace),
      fastExec_(opts.execEngine == ExecEngine::Specialized),
      simdTier_(fastExec_ ? resolveSimdTier(opts.simd)
                          : SimdTier::Scalar)
{
    panic_if(rowBytes_ % 64 != 0, "row bytes must be a multiple of 64");
    for (auto &r : n_)
        r.assign(rowBytes_, 0);
    outLo_.assign(rowBytes_, 0);
    outHi_.assign(rowBytes_, 0);
    dataLo_.assign(rowBytes_, 0);
    dataHi_.assign(rowBytes_, 0);
    weightLo_.assign(rowBytes_, 0);
    weightHi_.assign(rowBytes_, 0);
    immRow_.assign(rowBytes_, 0);
    pred_[0].assign(rowBytes_, 1);
    pred_[1].assign(rowBytes_, 1);
    nduScratch_.assign(rowBytes_, 0);
    acc_.assign(rowBytes_, 0);
    if (fastExec_) {
        convWt_.assign(size_t(ConvPanels::kPairs) * 64, 0);
        convData_.assign(size_t(rowBytes_ / 64) * ConvPanels::kGroupStride,
                         0);
        convPanels_.wt = convWt_.data();
        convPanels_.data = convData_.data();
    }

    for (auto &e : rqTable_)
        e = RequantEntry{};
    for (auto &l : luts_)
        l.fill(0);

    if (sysmem) {
        sysmem_ = sysmem;
    } else {
        ownedMem_ = std::make_unique<SystemMemory>(soc.dmaWindowBytes);
        sysmem_ = ownedMem_.get();
    }
    dma_ = std::make_unique<DmaEngine>(soc, sysmem_, this);

    loadRom();
}

Machine::~Machine() = default;

void
Machine::reset()
{
    dataRam_.clear();
    weightRam_.clear();
    for (auto &r : n_)
        std::fill(r.begin(), r.end(), 0);
    std::fill(outLo_.begin(), outLo_.end(), 0);
    std::fill(outHi_.begin(), outHi_.end(), 0);
    std::fill(acc_.begin(), acc_.end(), 0);
    std::fill(pred_[0].begin(), pred_[0].end(), 1);
    std::fill(pred_[1].begin(), pred_[1].end(), 1);
    addr_ = {};
    loopStack_.clear();
    dataZeroOff_ = weightZeroOff_ = 0;
    pc_ = 0;
    running_ = false;
    perf_ = PerfCounters{};
    eventLog_.clear();
    nStepCredit_ = 0;
    std::fill(iram_.begin(), iram_.begin() + kRomBase,
              EncodedInstruction{});
    for (int i = 0; i < kRomBase; ++i) {
        decoded_[i] = Instruction{};
        plans_[i] = planFor(decoded_[i]);
    }
    loadRom();
}

void
Machine::publishStats(Stats &into) const
{
    into.add(stats::kNcoreCycles, perf_.cycles);
    into.add(stats::kNcoreInstructions, perf_.instructions);
    into.add(stats::kNcoreMacOps, perf_.macOps);
    into.add(stats::kNcoreNduOps, perf_.nduOps);
    into.add(stats::kNcoreRamReads, perf_.ramReads);
    into.add(stats::kNcoreRamWrites, perf_.ramWrites);
    into.add(stats::kNcoreDmaFenceStalls, perf_.dmaFenceStalls);
    into.add(stats::kNcoreEvents, eventLog_.totalRecorded());

    const DmaStats &d = dma_->stats();
    into.add(stats::kDmaBytesRead, d.bytesRead);
    into.add(stats::kDmaBytesWritten, d.bytesWritten);
    into.add(stats::kDmaTransfers, d.transfers);
    into.add(stats::kDmaBusyCycles, d.busyCycles);

    into.add(stats::kEccCorrectedData, dataRam_.eccStats().corrected);
    into.add(stats::kEccUncorrectableData,
             dataRam_.eccStats().uncorrectable);
    into.add(stats::kEccCorrectedWeight, weightRam_.eccStats().corrected);
    into.add(stats::kEccUncorrectableWeight,
             weightRam_.eccStats().uncorrectable);

    // Info gauge: which exec engine + SIMD kernel tier produced these
    // numbers (constant 1; the labels carry the information).
    into.set(stats::execEngineInfo(fastExec_ ? "specialized" : "generic",
                                   simdTierName(simdTier_)),
             1.0);

    if (prof_) {
        // Keep the profiler's DMA byte view current before exposing
        // it (counters otherwise sync only at marks and detach).
        prof_->syncDma(d.bytesRead, d.bytesWritten);
        prof_->publish(into);
    }
}

void
Machine::setProfile(CycleProfile *p)
{
    const DmaStats &d = dma_->stats();
    if (prof_ && prof_ != p)
        prof_->syncDma(d.bytesRead, d.bytesWritten); // Finalize.
    prof_ = p;
    if (prof_)
        prof_->attach(rowBytes_, d.bytesRead, d.bytesWritten);
}

void
Machine::profileMark(const char *name, bool begin, uint64_t useful_macs)
{
    if (!prof_)
        return;
    const DmaStats &d = dma_->stats();
    prof_->hostMark(name, begin, perf_.cycles, d.bytesRead,
                    d.bytesWritten, useful_macs);
}

PlanBindings
Machine::planBindings()
{
    PlanBindings b;
    b.rb = rowBytes_;
    b.acc = acc_.data();
    for (int i = 0; i < 4; ++i)
        b.n[i] = n_[i].data();
    b.outLo = outLo_.data();
    b.outHi = outHi_.data();
    b.dataLo = dataLo_.data();
    b.dataHi = dataHi_.data();
    b.weightLo = weightLo_.data();
    b.weightHi = weightHi_.data();
    b.immRow = immRow_.data();
    b.pred[0] = pred_[0].data();
    b.pred[1] = pred_[1].data();
    b.scratch = nduScratch_.data();
    b.rqTable = rqTable_.data();
    return b;
}

ExecPlan
Machine::planFor(const Instruction &in)
{
    return fastExec_ ? buildExecPlan(in, planBindings(), simdTier_)
                     : interpreterPlan(in);
}

std::string
Machine::execDescription() const
{
    if (!fastExec_)
        return "generic";
    return std::string("specialized/") + simdTierName(simdTier_);
}

// --------------------------------------------------------------------
// Host interface
// --------------------------------------------------------------------

void
Machine::writeIram(int bank, std::span<const EncodedInstruction> code,
                   int offset)
{
    fatal_if(bank < 0 || bank > 1, "IRAM bank %d out of range", bank);
    fatal_if(offset < 0 ||
                 offset + int(code.size()) > kBankInstrs,
             "IRAM segment of %zu instrs at offset %d overflows a bank",
             code.size(), offset);
    fatal_if(running_ && pc_ / kBankInstrs == bank,
             "host write to IRAM bank %d while Ncore executes from it",
             bank);
    const int base = bank * kBankInstrs + offset;
    for (size_t i = 0; i < code.size(); ++i) {
        // A slot is a function of its encoding alone (exec_specialized.h),
        // so a content key is exact, whatever buffer the code came from.
        auto it = planTable_.find(code[i]);
        if (it == planTable_.end()) {
            if (planTable_.size() >= kPlanTableEntries)
                planTable_.clear();
            const Instruction in = decodeInstruction(code[i]);
            it = planTable_.emplace(code[i], DecodedSlot{in, planFor(in)})
                     .first;
        }
        iram_[base + i] = code[i];
        decoded_[base + i] = it->second.decoded;
        plans_[base + i] = it->second.plan;
    }
}

void
Machine::hostWriteRow(bool weight_ram, int row, const uint8_t *bytes)
{
    (weight_ram ? weightRam_ : dataRam_).writeRow(row, bytes);
}

void
Machine::hostReadRow(bool weight_ram, int row, uint8_t *bytes)
{
    const uint8_t *p = (weight_ram ? weightRam_ : dataRam_).readRow(row);
    std::memcpy(bytes, p, rowBytes_);
}

void
Machine::writeRequantEntry(int idx, const RequantEntry &e)
{
    fatal_if(idx < 0 || idx >= int(rqTable_.size()),
             "requant entry %d out of range", idx);
    rqTable_[idx] = e;
}

void
Machine::writeLut(int idx, const std::array<uint8_t, 256> &lut)
{
    fatal_if(idx < 0 || idx >= int(luts_.size()), "LUT %d", idx);
    luts_[idx] = lut;
}

void
Machine::start(int pc)
{
    fatal_if(pc < 0 || pc >= kPcSpace, "start pc %d out of range", pc);
    pc_ = pc;
    loopStack_.clear();
    running_ = true;
    // Each program launch (re)binds the machine to the launching
    // thread; run() enforces the binding below.
    ownerThread_ = std::this_thread::get_id();
}

// --------------------------------------------------------------------
// DMA row port
// --------------------------------------------------------------------

void
Machine::dmaWriteRow(bool weight_ram, uint32_t row, const uint8_t *bytes)
{
    (weight_ram ? weightRam_ : dataRam_).writeRow(int(row), bytes);
}

void
Machine::dmaReadRow(bool weight_ram, uint32_t row, uint8_t *bytes) const
{
    const SramBank &bank = weight_ram ? weightRam_ : dataRam_;
    std::memcpy(bytes, bank.rowPtr(int(row)), rowBytes_);
}

uint32_t
Machine::rowBytes() const
{
    return uint32_t(rowBytes_);
}

// --------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------

RunResult
Machine::run(uint64_t max_cycles)
{
    // A Machine is single-thread-affine per program launch: start()
    // binds the launching thread, and only that thread may step the
    // program. Sequential hand-off between threads (load on one,
    // execute on another, synchronized through a queue or join) is
    // fine; concurrent use of one Machine never is.
    fatal_if(running_ && ownerThread_ != std::this_thread::get_id(),
             "Machine::run from a thread other than the one that "
             "called start(); a Machine is single-thread-affine");
    RunResult res;
    while (running_ && res.cycles < max_cycles) {
        uint64_t c = step();
        res.cycles += c;
        dma_->advance(c);
        if (wrapBp_.enabled) {
            uint64_t before = wrapBp_.counter;
            wrapBp_.counter = uint32_t(before + c);
            if (before + c > 0xffffffffull) {
                res.reason = StopReason::CounterWrap;
                return res;
            }
        }
        if (nStep_ > 0) {
            nStepCredit_ += c;
            if (nStepCredit_ >= nStep_) {
                nStepCredit_ = 0;
                res.reason = StopReason::NStep;
                return res;
            }
        }
    }
    res.reason = running_ ? StopReason::MaxCycles : StopReason::Halted;
    return res;
}

RunResult
Machine::runStreamed(std::span<const EncodedInstruction> code,
                     std::vector<uint64_t> *refills, uint64_t max_cycles)
{
    stream_ = code;
    streamNext_ = 0;
    refills_ = refills;
    loadNextSegment(0);
    loadNextSegment(1);
    start(0);
    RunResult res = run(max_cycles);
    stream_ = {};
    refills_ = nullptr;
    return res;
}

/** Load the streamed program's next bank-sized segment, if any. */
bool
Machine::loadNextSegment(int bank)
{
    if (streamNext_ >= stream_.size())
        return false;
    size_t n = std::min(stream_.size() - streamNext_, size_t(kBankInstrs));
    writeIram(bank, stream_.subspan(streamNext_, n));
    streamNext_ += n;
    return true;
}

void
Machine::advancePc()
{
    int pc = pc_;
    int next = pc + 1;
    int left = -1;
    if (pc < kRomBase) {
        if (next == kBankInstrs) {
            left = 0; // Crossed into bank 1; bank 0 writable again.
        } else if (next == kRomBase) {
            next = 0; // Wrap from bank 1 back to bank 0.
            left = 1;
        }
    } else {
        panic_if(next >= kPcSpace, "pc ran off the end of the ROM");
    }
    pc_ = next;
    // Reload the bank just left once pc_ is out of it. The crossing
    // instruction's cost is not yet in perf_.cycles.
    if (left >= 0 && loadNextSegment(left) && refills_)
        refills_->push_back(perf_.cycles);
}

uint64_t
Machine::step()
{
    panic_if(!running_, "step() on a halted Ncore");
    const Instruction &in = decoded_[pc_];
    ExecPlan &plan = plans_[pc_];

    uint64_t reps = 1;
    uint64_t fence_stall = 0;
    bool halted = false;
    bool looped_back = false;

    // Control slot: setup class ops execute before the body.
    switch (in.ctrl.op) {
      case CtrlOp::None:
        break;
      case CtrlOp::Rep:
        reps = std::max<uint32_t>(in.ctrl.imm, 1);
        break;
      case CtrlOp::LoopBegin:
        break; // Handled after the body.
      case CtrlOp::LoopEnd:
        break; // Handled after the body.
      case CtrlOp::SetAddrRow:
        addr_[in.ctrl.reg].row = int32_t(in.ctrl.imm);
        break;
      case CtrlOp::SetAddrByte:
        addr_[in.ctrl.reg].byte = int32_t(in.ctrl.imm);
        addr_[in.ctrl.reg].iter = 0;
        break;
      case CtrlOp::SetAddrInc:
        addr_[in.ctrl.reg].rowInc = signed10(in.ctrl.imm >> 10);
        addr_[in.ctrl.reg].byteInc = signed10(in.ctrl.imm);
        break;
      case CtrlOp::SetAddrWrap:
        addr_[in.ctrl.reg].wrapCount = in.ctrl.imm;
        addr_[in.ctrl.reg].iter = 0;
        break;
      case CtrlOp::SetZeroOff:
        dataZeroOff_ = uint8_t(in.ctrl.imm >> 8);
        weightZeroOff_ = uint8_t(in.ctrl.imm);
        break;
      case CtrlOp::DmaKick:
        dma_->kick(int(in.ctrl.imm));
        break;
      case CtrlOp::DmaFence:
        while (dma_->outstanding(in.ctrl.reg) > int64_t(in.ctrl.imm)) {
            dma_->advance(8);
            fence_stall += 8;
        }
        break;
      case CtrlOp::Event:
        eventLog_.record(perf_.cycles, in.ctrl.imm);
        if (prof_)
            prof_->eventMark(in.ctrl.imm, perf_.cycles,
                             dma_->stats().bytesRead,
                             dma_->stats().bytesWritten);
        break;
      case CtrlOp::Halt:
        halted = true;
        break;
    }

    // Per-rep body cost: NPU 16-bit types stretch the instruction.
    uint64_t body_cost = 1;
    if (in.npu.op != NpuOp::None) {
        if (in.npu.type == LaneType::BF16)
            body_cost = 3;
        else if (in.npu.type == LaneType::I16)
            body_cost = 4;
    }

    if (!plan.convRep || !execConvRepFast(in, plan, reps))
        for (uint64_t r = 0; r < reps; ++r)
            execBody(in, plan);
    const uint64_t cost = fence_stall + reps * body_cost;

    // The work counters depend only on the retired instruction and its
    // rep count, so they are counted here, once, whichever engine or
    // path ran the body.
    const uint32_t slots = populatedSlots(in);
    auto issued = [&](IssueSlot s) { return reps * ((slots >> int(s)) & 1); };
    perf_.instructions += reps;
    perf_.nduOps += issued(IssueSlot::Ndu0) + issued(IssueSlot::Ndu1);
    perf_.ramReads +=
        issued(IssueSlot::DataRead) + issued(IssueSlot::WeightRead);
    perf_.ramWrites += issued(IssueSlot::Write);
    if (in.npu.op == NpuOp::Mac || in.npu.op == NpuOp::MacFwd)
        perf_.macOps += reps * uint64_t(rowBytes_);
    perf_.dmaFenceStalls += fence_stall;

    // Loop sequencing.
    if (in.ctrl.op == CtrlOp::LoopBegin) {
        LoopFrame f;
        f.id = in.ctrl.reg;
        f.startPc = nextPc(pc_);
        f.remaining = std::max<uint32_t>(in.ctrl.imm, 1);
        panic_if(loopStack_.size() >= 4, "hardware loop nesting > 4");
        loopStack_.push_back(f);
    } else if (in.ctrl.op == CtrlOp::LoopEnd) {
        panic_if(loopStack_.empty(), "LoopEnd with no open loop");
        LoopFrame &f = loopStack_.back();
        panic_if(f.id != in.ctrl.reg,
                 "LoopEnd id %u does not match open loop %d",
                 in.ctrl.reg, f.id);
        if (--f.remaining > 0) {
            panic_if(f.startPc / kBankInstrs != pc_ / kBankInstrs &&
                         pc_ < kRomBase,
                     "hardware loop spans an IRAM bank boundary");
            pc_ = f.startPc;
            looped_back = true;
        } else {
            loopStack_.pop_back();
        }
    }

    // Cycle-exact attribution: cost is fence_stall + reps * body_cost,
    // so the profiler's buckets sum to total cycles, and the hook sits
    // in the one step() both engines share, so the accounting is
    // bit-identical across engines. It runs before the pc advances:
    // leaving a bank may reload that bank of a streamed program and
    // re-decode the slot `in` refers to.
    if (prof_)
        prof_->onStep(in, reps, body_cost, fence_stall);

    if (halted) {
        running_ = false;
    } else if (!looped_back) {
        advancePc();
    }

    perf_.cycles += cost;
    return cost;
}

int
Machine::nextPc(int pc) const
{
    int next = pc + 1;
    if (pc < kRomBase && next == kRomBase)
        next = 0;
    return next;
}

/**
 * One repetition of the body: each slot runs its plan's bound kernel
 * when it has one and the interpreter function otherwise (always, in
 * the generic engine, whose plans bind no kernels).
 */
void
Machine::execBody(const Instruction &in, ExecPlan &plan)
{
    latchReads(in, plan.wideLatch);
    if (plan.usesImm)
        std::fill(immRow_.begin(), immRow_.end(),
                  uint8_t(in.ctrl.imm & 0xff));
    if (plan.nduKernel[0])
        runNduKernel(plan.nduKernel[0], plan.ndu[0],
                     addr_[in.ndu0.addrReg].byte);
    else
        execNdu(in.ndu0, in.ctrl.imm);
    if (plan.nduKernel[1])
        runNduKernel(plan.nduKernel[1], plan.ndu[1],
                     addr_[in.ndu1.addrReg].byte);
    else
        execNdu(in.ndu1, in.ctrl.imm);
    if (plan.npuKernel) {
        plan.ctx.zA = dataZeroOff_;
        plan.ctx.zB = weightZeroOff_;
        plan.npuKernel(plan.ctx);
    } else {
        execNpu(in.npu);
    }
    if (plan.outKernel)
        plan.outKernel(plan.ctx);
    else
        execOut(in.out);
    execWrite(in.write);
    postIncrement(in);
}

// --------------------------------------------------------------------
// Specialized engine kernels (see exec_specialized.h), architecturally
// bit-identical to the interpreter functions below.
// --------------------------------------------------------------------

/** Run a bound NDU kernel at `offset` and land its row in place. */
void
Machine::runNduKernel(NduKernel kern, NduCtx &ctx, int offset)
{
    ctx.offset = offset;
    kern(ctx);
    if (ctx.out != ctx.finalDst)
        std::memcpy(ctx.finalDst, ctx.out, size_t(rowBytes_));
}

/**
 * Fused conv Rep (ExecPlan::convRep): the whole Rep as one blocked
 * GEMM, chunk by chunk, its addressing walked in closed form a segment
 * of taps between register wraps at a time (see exec_specialized.h).
 * Every row is read through SramBank::readRow and the chunk's operand
 * panels are filled before the tier kernel adds the chunk into the
 * accumulators. Returns false, having changed nothing, when the closed
 * form does not hold or the saturation guard fails: then the caller
 * runs the per-rep path.
 */
bool
Machine::execConvRepFast(const Instruction &in, ExecPlan &plan,
                         uint64_t reps)
{
    // An ECC-modeled RAM scrubs and counts every read, and one register
    // stepped by both NDU slots moves twice per tap: the closed-form
    // walk reproduces neither.
    const int dreg = in.ndu0.addrReg, wreg = in.ndu1.addrReg;
    if (dataRam_.eccModeled() || weightRam_.eccModeled() || dreg == wreg ||
        !walkFits(addr_[dreg], reps) || !walkFits(addr_[wreg], reps))
        return false;
    // Every partial sum of the per-rep path stays within
    // max|acc| + reps * 255^2. When that fits int32 nothing saturates,
    // so the tier kernel may pair taps and add in any order.
    const ConvRepFill &fill = *plan.convFill;
    const int64_t max_abs = fill.accMaxAbs(acc_.data(), rowBytes_);
    if (max_abs + int64_t(reps) * (255 * 255) > INT32_MAX)
        return false;

    const int rb = rowBytes_;
    const int32_t za = in.npu.zeroOff ? dataZeroOff_ : 0;
    const int32_t zb = in.npu.zeroOff ? weightZeroOff_ : 0;
    plan.ctx.zA = za;
    ConvPanels &pn = convPanels_;
    pn.groupStride = plan.ndu[0].stride;
    PanelFiller filler(pn, fill, rb, in.ndu0.op == NduOp::WindowGather,
                       plan.ndu[1].stride, za, zb);
    fusedConvTaps_ += reps;
    // The two stepped registers, in locals, and the row register a read
    // names.
    AddrReg d = addr_[dreg], w = addr_[wreg];
    auto row_of = [&](int reg) {
        return reg == dreg ? d.row : reg == wreg ? w.row : addr_[reg].row;
    };

    // The last tap's rows and (raw) byte offsets.
    const uint8_t *drow = nullptr, *wrow = nullptr;
    int32_t doff = 0, woff = 0;
    for (uint64_t done = 0; done < reps; done += uint64_t(pn.taps)) {
        pn.taps = int(std::min<uint64_t>(reps - done, ConvPanels::kTaps));
        for (int k = 0, n = 1; k < pn.taps; k += n) {
            // A segment: neither register wraps before its last tap.
            n = int(std::min({uint64_t(pn.taps - k), tapsToWrap(d),
                              tapsToWrap(w)}));
            drow = dataRam_.readRow(row_of(in.dataRead.reg));
            wrow = weightRam_.readRow(row_of(in.weightRead.reg));
            filler.add(k, n, drow, d.byte, d.byteInc, wrow, w.byte,
                       w.byteInc);
            doff = d.byte + (n - 1) * d.byteInc;
            woff = w.byte + (n - 1) * w.byteInc;
            advanceByte(d, n);
            advanceByte(w, n);
        }
        filler.flush();
        plan.convRep(plan.ctx, pn);
    }
    addr_[dreg] = d;
    addr_[wreg] = w;

    // The end state of the last rep: its latched rows and NDU rows.
    std::memcpy(dataLo_.data(), drow, size_t(rb));
    std::memcpy(weightLo_.data(), wrow, size_t(rb));
    runNduKernel(plan.nduKernel[0], plan.ndu[0], doff);
    runNduKernel(plan.nduKernel[1], plan.ndu[1], woff);
    return true;
}

void
Machine::latchReads(const Instruction &in, bool wide)
{
    if (in.dataRead.enable) {
        int row = addr_[in.dataRead.reg].row;
        std::memcpy(dataLo_.data(), dataRam_.readRow(row), rowBytes_);
        if (wide) {
            int hi = (row + 1) % cfg_.ramRows;
            std::memcpy(dataHi_.data(), dataRam_.readRow(hi), rowBytes_);
        }
    }
    if (in.weightRead.enable) {
        int row = addr_[in.weightRead.reg].row;
        std::memcpy(weightLo_.data(), weightRam_.readRow(row), rowBytes_);
        if (wide) {
            int hi = (row + 1) % cfg_.ramRows;
            std::memcpy(weightHi_.data(), weightRam_.readRow(hi),
                        rowBytes_);
        }
    }
}

const uint8_t *
Machine::resolveSrc(RowSrc s) const
{
    switch (s) {
      case RowSrc::DataRead: return dataLo_.data();
      case RowSrc::WeightRead: return weightLo_.data();
      case RowSrc::Imm: return immRow_.data();
      case RowSrc::N0: return n_[0].data();
      case RowSrc::N1: return n_[1].data();
      case RowSrc::N2: return n_[2].data();
      case RowSrc::N3: return n_[3].data();
      case RowSrc::OutLo: return outLo_.data();
      case RowSrc::OutHi: return outHi_.data();
      case RowSrc::DataReadHi: return dataHi_.data();
      case RowSrc::WeightReadHi: return weightHi_.data();
      case RowSrc::None: break;
    }
    panic("unresolvable row source");
}

const uint8_t *
Machine::resolveSrcHi(RowSrc s) const
{
    // 16-bit lane types read planar pairs: the "hi" plane of a source.
    switch (s) {
      case RowSrc::DataRead: return dataHi_.data();
      case RowSrc::WeightRead: return weightHi_.data();
      case RowSrc::N0: return n_[1].data();
      case RowSrc::N2: return n_[3].data();
      case RowSrc::OutLo: return outHi_.data();
      default:
        panic("row source %s has no hi plane for 16-bit lanes",
              rowSrcName(s));
    }
}

uint8_t *
Machine::nduDst(int idx)
{
    panic_if(idx < 0 || idx > 3, "NDU destination n%d", idx);
    return n_[idx].data();
}

void
Machine::execNdu(const NduSlot &slot, uint32_t ctrl_imm)
{
    if (slot.op == NduOp::None)
        return;
    const int rb = rowBytes_;
    const int groups = rb / 64;

    if (slot.op == NduOp::LoadMask) {
        const uint8_t *a = resolveSrc(slot.srcA);
        uint8_t *p = pred_[slot.dst & 1].data();
        for (int i = 0; i < rb; ++i)
            p[i] = a[i] != 0;
        return;
    }

    // Compute into the scratch row first: dst may alias a source.
    uint8_t *d = nduScratch_.data();
    // The addressed byte, as an index into the circular row.
    const int off = normByte(addr_[slot.addrReg].byte, rb);

    switch (slot.op) {
      case NduOp::Bypass: {
        const uint8_t *a = resolveSrc(slot.srcA);
        std::memcpy(d, a, rb);
        break;
      }
      case NduOp::SplatImm: {
        std::memset(d, int(ctrl_imm & 0xff), rb);
        break;
      }
      case NduOp::Rotate: {
        const uint8_t *a = resolveSrc(slot.srcA);
        fatal_if(std::min(off, rb - off) > 64,
                 "NDU rotate of %d bytes exceeds 64 B/clock",
                 addr_[slot.addrReg].byte);
        for (int i = 0; i < rb; ++i)
            d[i] = a[(i + off) % rb];
        break;
      }
      case NduOp::WindowGather: {
        const uint8_t *a = resolveSrc(slot.srcA);
        int gs = nduStrideBytes(NduStride(slot.param & 7));
        for (int g = 0; g < groups; ++g) {
            int base = off + g * gs;
            for (int j = 0; j < 64; ++j)
                d[g * 64 + j] = a[(base + j) % rb];
        }
        break;
      }
      case NduOp::RepWindow: {
        const uint8_t *a = resolveSrc(slot.srcA);
        int es = nduStrideBytes(NduStride(slot.param & 7));
        uint8_t pattern[64];
        for (int j = 0; j < 64; ++j)
            pattern[j] = a[(off + j * es) % rb];
        for (int g = 0; g < groups; ++g)
            std::memcpy(d + g * 64, pattern, 64);
        break;
      }
      case NduOp::GroupBcast: {
        const uint8_t *a = resolveSrc(slot.srcA);
        int gs = nduStrideBytes(NduStride(slot.param & 7));
        for (int g = 0; g < groups; ++g)
            std::memset(d + g * 64, a[(off + g * gs) % rb], 64);
        break;
      }
      case NduOp::Compress2: {
        const uint8_t *a = resolveSrc(slot.srcA);
        int phase = slot.param & 1;
        for (int g = 0; g < groups; ++g)
            for (int j = 0; j < 64; ++j)
                d[g * 64 + j] = a[g * 64 + ((2 * j + phase) & 63)];
        break;
      }
      case NduOp::MergeMask: {
        const uint8_t *a = resolveSrc(slot.srcA);
        const uint8_t *b = resolveSrc(slot.srcB);
        const uint8_t *p = pred_[slot.param & 1].data();
        bool inv = slot.param & 2;
        for (int i = 0; i < rb; ++i)
            d[i] = ((p[i] != 0) != inv) ? a[i] : b[i];
        break;
      }
      default:
        panic("unhandled NDU op");
    }

    std::memcpy(nduDst(slot.dst), d, rb);
}

int32_t
Machine::widenLane(const uint8_t *lo, const uint8_t *hi, int lane,
                   LaneType t, bool zero_off, bool is_data) const
{
    switch (t) {
      case LaneType::I8:
        return int8_t(lo[lane]);
      case LaneType::U8: {
        int32_t z = zero_off ? (is_data ? dataZeroOff_ : weightZeroOff_)
                             : 0;
        return int32_t(lo[lane]) - z;
      }
      case LaneType::I16:
        return int16_t(uint16_t(lo[lane]) | (uint16_t(hi[lane]) << 8));
      case LaneType::BF16:
        panic("widenLane on bf16");
    }
    return 0;
}

float
Machine::floatLane(const uint8_t *lo, const uint8_t *hi, int lane) const
{
    uint16_t bits = uint16_t(lo[lane]) | (uint16_t(hi[lane]) << 8);
    return BFloat16::fromBits(bits).toFloat();
}

bool
Machine::predPass(Pred p, int lane) const
{
    switch (p) {
      case Pred::None: return true;
      case Pred::P0: return pred_[0][lane] != 0;
      case Pred::P1: return pred_[1][lane] != 0;
      case Pred::NotP0: return pred_[0][lane] == 0;
    }
    return true;
}

void
Machine::execNpu(const NpuSlot &npu)
{
    if (npu.op == NpuOp::None)
        return;

    const int rb = rowBytes_;

    if (npu.op == NpuOp::AccZero) {
        std::fill(acc_.begin(), acc_.end(), 0);
        return;
    }
    if (npu.op == NpuOp::AccLoadBias) {
        const uint8_t *a = resolveSrc(npu.a);
        BiasMode mode = BiasMode(uint8_t(npu.b));
        const int quarter = rb / 4;
        if (mode == BiasMode::Rep64) {
            int32_t vals[64];
            std::memcpy(vals, a, sizeof(vals));
            for (int g = 0; g < rb / 64; ++g)
                for (int j = 0; j < 64; ++j)
                    acc_[g * 64 + j] = vals[j];
        } else if (biasModeAccumulates(mode)) {
            int32_t *dst = acc_.data() +
                           (int(mode) - int(BiasMode::AddQuarter0)) *
                               quarter;
            for (int i = 0; i < quarter; ++i) {
                int32_t v;
                std::memcpy(&v, a + 4 * i, 4);
                dst[i] = satAdd32(dst[i], v);
            }
        } else {
            int q = int(mode) - int(BiasMode::Quarter0);
            panic_if(q < 0 || q > 3, "bad bias quarter");
            std::memcpy(acc_.data() + q * quarter, a,
                        size_t(quarter) * 4);
        }
        return;
    }

    bool wide = npu.type == LaneType::I16 || npu.type == LaneType::BF16;
    const uint8_t *alo = resolveSrc(npu.a);
    const uint8_t *ahi = wide ? resolveSrcHi(npu.a) : nullptr;
    const uint8_t *blo = nullptr;
    const uint8_t *bhi = nullptr;
    bool needs_b = npu.op == NpuOp::Mac || npu.op == NpuOp::MacFwd ||
                   npu.op == NpuOp::CmpGtP0 || npu.op == NpuOp::CmpGtP1;
    if (needs_b) {
        blo = resolveSrc(npu.b);
        bhi = wide ? resolveSrcHi(npu.b) : nullptr;
    }

    int fwd = npu.op == NpuOp::MacFwd ? cfg_.sliceBytes : 0;

    if (npu.type == LaneType::BF16) {
        // Float accumulate; the 32-bit accumulator holds float bits.
        switch (npu.op) {
          case NpuOp::Mac:
          case NpuOp::MacFwd:
            for (int i = 0; i < rb; ++i) {
                if (!predPass(npu.pred, i))
                    continue;
                int ai = (i + fwd) % rb;
                float fa = floatLane(alo, ahi, ai);
                float fb = floatLane(blo, bhi, i);
                float fc = std::bit_cast<float>(acc_[i]);
                acc_[i] = std::bit_cast<int32_t>(
                    canonicalizeNaN(fc + fa * fb));
            }
            break;
          case NpuOp::Add:
          case NpuOp::Sub:
          case NpuOp::Min:
          case NpuOp::Max:
            for (int i = 0; i < rb; ++i) {
                if (!predPass(npu.pred, i))
                    continue;
                float fa = floatLane(alo, ahi, i);
                float fc = std::bit_cast<float>(acc_[i]);
                float r = fc;
                if (npu.op == NpuOp::Add)
                    r = canonicalizeNaN(fc + fa);
                else if (npu.op == NpuOp::Sub)
                    r = canonicalizeNaN(fc - fa);
                else if (npu.op == NpuOp::Min)
                    r = std::min(fc, fa);
                else
                    r = std::max(fc, fa);
                acc_[i] = std::bit_cast<int32_t>(r);
            }
            break;
          default:
            panic("NPU op %s unsupported for bf16", npuOpName(npu.op));
        }
        return;
    }

    switch (npu.op) {
      case NpuOp::Mac:
      case NpuOp::MacFwd:
        for (int i = 0; i < rb; ++i) {
            if (!predPass(npu.pred, i))
                continue;
            int ai = (i + fwd) % rb;
            int32_t wa = widenLane(alo, ahi, ai, npu.type, npu.zeroOff,
                                   true);
            int32_t wb = widenLane(blo, bhi, i, npu.type, npu.zeroOff,
                                   false);
            acc_[i] = satAdd32(acc_[i], wa * wb);
        }
        break;
      case NpuOp::Add:
      case NpuOp::Sub:
      case NpuOp::Min:
      case NpuOp::Max:
      case NpuOp::And:
      case NpuOp::Or:
      case NpuOp::Xor:
        for (int i = 0; i < rb; ++i) {
            if (!predPass(npu.pred, i))
                continue;
            int32_t wa = widenLane(alo, ahi, i, npu.type, npu.zeroOff,
                                   true);
            switch (npu.op) {
              case NpuOp::Add: acc_[i] = satAdd32(acc_[i], wa); break;
              case NpuOp::Sub: acc_[i] = satAdd32(acc_[i], -wa); break;
              case NpuOp::Min: acc_[i] = std::min(acc_[i], wa); break;
              case NpuOp::Max: acc_[i] = std::max(acc_[i], wa); break;
              case NpuOp::And: acc_[i] &= wa; break;
              case NpuOp::Or: acc_[i] |= wa; break;
              case NpuOp::Xor: acc_[i] ^= wa; break;
              default: break;
            }
        }
        break;
      case NpuOp::CmpGtP0:
      case NpuOp::CmpGtP1: {
        uint8_t *p = pred_[npu.op == NpuOp::CmpGtP0 ? 0 : 1].data();
        for (int i = 0; i < rb; ++i) {
            int32_t wa = widenLane(alo, ahi, i, npu.type, npu.zeroOff,
                                   true);
            int32_t wb = widenLane(blo, bhi, i, npu.type, npu.zeroOff,
                                   false);
            p[i] = wa > wb;
        }
        break;
      }
      default:
        panic("unhandled NPU op");
    }
}

void
Machine::execOut(const OutSlot &out)
{
    if (out.op == OutOp::None)
        return;
    const int rb = rowBytes_;
    const RequantEntry &e = rqTable_[out.rqIndex];

    auto applyLut = [&](int32_t v) -> int32_t {
        int lut_id = e.lutId & 3;
        uint8_t idx;
        if (e.outType == DType::UInt8)
            idx = satNarrowU8(v);
        else
            idx = uint8_t(satNarrow8(v)) ^ 0x80;
        uint8_t code = luts_[lut_id][idx];
        return e.outType == DType::UInt8 ? int32_t(code)
                                         : int32_t(int8_t(code));
    };

    switch (out.op) {
      case OutOp::Requant8:
        for (int i = 0; i < rb; ++i) {
            int32_t v = e.rq.apply(acc_[i]);
            if (out.act == ActFn::Sigmoid || out.act == ActFn::Tanh)
                v = applyLut(v);
            v = std::clamp(v, e.actMin, e.actMax);
            outLo_[i] = uint8_t(v & 0xff);
        }
        break;
      case OutOp::Requant16:
        for (int i = 0; i < rb; ++i) {
            int32_t v = e.rq.apply(acc_[i]);
            v = std::clamp(v, e.actMin, e.actMax);
            outLo_[i] = uint8_t(v & 0xff);
            outHi_[i] = uint8_t((v >> 8) & 0xff);
        }
        break;
      case OutOp::StoreBf16:
        for (int i = 0; i < rb; ++i) {
            float f = std::bit_cast<float>(acc_[i]);
            switch (out.act) {
              case ActFn::Relu: f = std::max(f, 0.0f); break;
              case ActFn::Relu6:
                f = std::clamp(f, 0.0f, 6.0f);
                break;
              case ActFn::Sigmoid:
                f = 1.0f / (1.0f + std::exp(-f));
                break;
              case ActFn::Tanh: f = std::tanh(f); break;
              case ActFn::None: break;
            }
            uint16_t bits = BFloat16::fromFloat(f).bits;
            outLo_[i] = uint8_t(bits & 0xff);
            outHi_[i] = uint8_t(bits >> 8);
        }
        break;
      case OutOp::CopyAcc32: {
        int quarter = rb / 4;
        std::memcpy(outLo_.data(), acc_.data() + out.param * quarter,
                    size_t(rb));
        break;
      }
      case OutOp::ActOnly8:
        for (int i = 0; i < rb; ++i) {
            int32_t v = std::clamp(acc_[i], e.actMin, e.actMax);
            outLo_[i] = uint8_t(v & 0xff);
        }
        break;
      case OutOp::None:
        break;
    }
}

void
Machine::execWrite(const WriteSlot &w)
{
    if (!w.enable)
        return;
    const uint8_t *src = resolveSrc(w.src);
    SramBank &bank = w.weightRam ? weightRam_ : dataRam_;
    bank.writeRow(addr_[w.addrReg].row, src);
}

void
Machine::bumpByte(int reg)
{
    AddrReg &a = addr_[reg];
    a.byte += a.byteInc;
    if (a.wrapCount > 0 && ++a.iter >= a.wrapCount) {
        // Circular-buffer mode: snap back and advance the row.
        a.iter = 0;
        a.byte -= int32_t(a.byteInc) * int32_t(a.wrapCount);
        a.row += a.rowInc;
    }
}

void
Machine::postIncrement(const Instruction &in)
{
    if (in.dataRead.enable && in.dataRead.postInc)
        addr_[in.dataRead.reg].row += addr_[in.dataRead.reg].rowInc;
    if (in.weightRead.enable && in.weightRead.postInc)
        addr_[in.weightRead.reg].row += addr_[in.weightRead.reg].rowInc;
    if (in.ndu0.op != NduOp::None && in.ndu0.addrInc)
        bumpByte(in.ndu0.addrReg);
    if (in.ndu1.op != NduOp::None && in.ndu1.addrInc)
        bumpByte(in.ndu1.addrReg);
    if (in.write.enable && in.write.postInc)
        addr_[in.write.addrReg].row += addr_[in.write.addrReg].rowInc;
}

// --------------------------------------------------------------------
// ROM self-test (paper IV-C: "a 4KB instruction ROM for storing commonly
// executed code and self-test routines")
// --------------------------------------------------------------------

void
Machine::loadRom()
{
    std::vector<Instruction> rom;

    // 1. Splat 0x5A into N0 and store it to data row 0.
    Instruction i1;
    i1.ctrl.op = CtrlOp::SetAddrRow;
    i1.ctrl.reg = 0;
    i1.ctrl.imm = 0;
    rom.push_back(i1);

    Instruction i2;
    i2.ctrl.imm = 0x5a;
    i2.ndu0.op = NduOp::SplatImm;
    i2.ndu0.dst = 0;
    i2.write.enable = true;
    i2.write.addrReg = 0;
    i2.write.src = RowSrc::N0;
    rom.push_back(i2);

    // 2. acc = 0; acc += n0 * n0 (0x5a as int8 = 90 -> 8100).
    Instruction i3;
    i3.npu.op = NpuOp::AccZero;
    rom.push_back(i3);

    Instruction i4;
    i4.npu.op = NpuOp::Mac;
    i4.npu.type = LaneType::I8;
    i4.npu.a = RowSrc::N0;
    i4.npu.b = RowSrc::N0;
    rom.push_back(i4);

    // 3. Store raw accumulator quarter 0 to data row 1.
    Instruction i5;
    i5.ctrl.op = CtrlOp::SetAddrRow;
    i5.ctrl.reg = 1;
    i5.ctrl.imm = 1;
    i5.out.op = OutOp::CopyAcc32;
    i5.out.param = 0;
    rom.push_back(i5);

    Instruction i6;
    i6.write.enable = true;
    i6.write.addrReg = 1;
    i6.write.src = RowSrc::OutLo;
    rom.push_back(i6);

    Instruction i7;
    i7.ctrl.op = CtrlOp::Halt;
    rom.push_back(i7);

    for (size_t i = 0; i < rom.size(); ++i) {
        iram_[kRomBase + i] = encodeInstruction(rom[i]);
        decoded_[kRomBase + i] = rom[i];
        plans_[kRomBase + i] = planFor(rom[i]);
    }
}

bool
Machine::selfTest()
{
    fatal_if(running_, "self-test while Ncore is executing");
    start(kRomBase);
    RunResult res = run(1 << 20);
    if (res.reason != StopReason::Halted)
        return false;

    std::vector<uint8_t> row(rowBytes_);
    hostReadRow(false, 0, row.data());
    for (int i = 0; i < rowBytes_; ++i)
        if (row[i] != 0x5a)
            return false;

    hostReadRow(false, 1, row.data());
    const int quarter = rowBytes_ / 4;
    for (int i = 0; i < quarter; ++i) {
        int32_t v;
        std::memcpy(&v, row.data() + i * 4, 4);
        if (v != 90 * 90)
            return false;
    }
    return true;
}

} // namespace ncore
