/**
 * @file
 * Differential fuzzing of the specialized execution engine against the
 * generic interpreter (see src/ncore/exec_specialized.h): random VLIW
 * programs run through the generic interpreter and through one
 * specialized engine per SIMD kernel tier the host supports (scalar,
 * then avx2, avx512 and avx512vnni where cpuid allows, ncore/simd.h),
 * and every engine must produce bit-identical RAM contents,
 * accumulators, predicates, N/OUT registers, perf counters and cycle
 * counts. This is the enforcement mechanism behind the fast path's
 * equivalence guarantee; one run of the binary diffs every
 * instantiation of the NPU kernels (exec_npu_kernels.h) and every
 * OUT/NDU kernel tier.
 *
 * The fuzz program count can be overridden with NCORE_DIFF_PROGRAMS
 * (the sanitizer job runs a reduced count).
 *
 * The generator tracks the architectural address-register state of the
 * program it is emitting (rows, byte offsets, increments, circular
 * wrap), so it can keep row accesses inside the initialized window and
 * rotate amounts within the 64 B/clock crossbar limit — everything the
 * generic interpreter itself would fault on — while still exercising
 * post-increments, circular addressing, Rep sequencing (the fused conv
 * Rep and the per-rep path),
 * predication, zero offsets, all NPU lane types and every NDU/OUT
 * operation. The diff also covers both SRAM banks' ECC counters. Forms
 * the specialized engine has no kernel for (exec_specialized.h) run on
 * the interpreter in both engines; for them the diff checks that
 * Machine::execBody routes the slot there and that the kernels of the
 * other slots agree with it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/machine.h"
#include "common/rng.h"
#include "common/saturate.h"
#include "isa/encoding.h"
#include "ncore/machine.h"
#include "ncore/simd.h"

namespace ncore {
namespace {

constexpr int kRows = 128;   ///< Initialized RAM window (rows 0..127).
constexpr int kRowSafeLo = 10, kRowSafeHi = 100;

/** Generator-side model of one address register (mirrors AddrReg). */
struct TrackedAddr
{
    int32_t row = 0;
    int32_t byte = 0;
    int16_t rowInc = 0;
    int16_t byteInc = 0;
    uint32_t wrap = 0;
    uint32_t iter = 0;
};

class ProgramGen
{
  public:
    explicit ProgramGen(uint64_t seed, int row_bytes)
        : rng_(seed), rb_(row_bytes)
    {
    }

    std::vector<Instruction>
    generate(int body_instrs)
    {
        prog_.clear();
        for (int i = 0; i < body_instrs; ++i) {
            switch (rng_.nextBelow(12)) {
              case 0:
              case 1:
                emitAddrSetup();
                break;
              case 2:
                emitCtrlMisc();
                break;
              case 3:
                emitConvRep();
                break;
              default:
                emitBody();
                break;
            }
        }
        Instruction halt;
        halt.ctrl.op = CtrlOp::Halt;
        prog_.push_back(halt);
        return prog_;
    }

  private:
    uint32_t rnd(uint32_t n) { return rng_.nextBelow(n); }
    bool chance(uint32_t pct) { return rnd(100) < pct; }

    void
    emit(const Instruction &in)
    {
        prog_.push_back(in);
        applyEffects(in);
    }

    /** Mirror the machine's ctrl/post-increment addressing semantics. */
    void
    applyEffects(const Instruction &in)
    {
        uint32_t reps = 1;
        switch (in.ctrl.op) {
          case CtrlOp::Rep:
            reps = std::max<uint32_t>(in.ctrl.imm, 1);
            break;
          case CtrlOp::SetAddrRow:
            addr_[in.ctrl.reg].row = int32_t(in.ctrl.imm);
            break;
          case CtrlOp::SetAddrByte:
            addr_[in.ctrl.reg].byte = int32_t(in.ctrl.imm);
            addr_[in.ctrl.reg].iter = 0;
            break;
          case CtrlOp::SetAddrInc: {
            uint32_t imm = in.ctrl.imm;
            auto s10 = [](uint32_t v) {
                v &= 0x3ff;
                return int16_t(v & 0x200 ? int32_t(v) - 0x400
                                         : int32_t(v));
            };
            addr_[in.ctrl.reg].rowInc = s10(imm >> 10);
            addr_[in.ctrl.reg].byteInc = s10(imm);
            break;
          }
          case CtrlOp::SetAddrWrap:
            addr_[in.ctrl.reg].wrap = in.ctrl.imm;
            addr_[in.ctrl.reg].iter = 0;
            break;
          default:
            break;
        }
        for (uint32_t r = 0; r < reps; ++r) {
            if (in.dataRead.enable && in.dataRead.postInc)
                addr_[in.dataRead.reg].row +=
                    addr_[in.dataRead.reg].rowInc;
            if (in.weightRead.enable && in.weightRead.postInc)
                addr_[in.weightRead.reg].row +=
                    addr_[in.weightRead.reg].rowInc;
            if (in.ndu0.op != NduOp::None && in.ndu0.addrInc)
                bump(in.ndu0.addrReg);
            if (in.ndu1.op != NduOp::None && in.ndu1.addrInc)
                bump(in.ndu1.addrReg);
            if (in.write.enable && in.write.postInc)
                addr_[in.write.addrReg].row +=
                    addr_[in.write.addrReg].rowInc;
        }
    }

    void
    bump(int reg)
    {
        TrackedAddr &a = addr_[reg];
        a.byte += a.byteInc;
        if (a.wrap > 0 && ++a.iter >= a.wrap) {
            a.iter = 0;
            a.byte -= int32_t(a.byteInc) * int32_t(a.wrap);
            a.row += a.rowInc;
        }
    }

    void
    emitAddrSetup()
    {
        Instruction in;
        int reg = int(rnd(7)); // Regs 0..6; reg 7 is the rotate register.
        switch (rnd(4)) {
          case 0:
            in.ctrl.op = CtrlOp::SetAddrRow;
            in.ctrl.imm = kRowSafeLo + rnd(kRowSafeHi - kRowSafeLo);
            break;
          case 1:
            in.ctrl.op = CtrlOp::SetAddrByte;
            in.ctrl.imm = rnd(4096);
            break;
          case 2: {
            in.ctrl.op = CtrlOp::SetAddrInc;
            // rowInc in {-1,0,1}, byteInc in [-4,4], 10-bit fields.
            uint32_t row_inc = rnd(3) == 0 ? 0x3ff : rnd(2);
            uint32_t byte_inc = (rnd(9) + 0x400 - 4) & 0x3ff;
            in.ctrl.imm = (row_inc << 10) | byte_inc;
            break;
          }
          default:
            in.ctrl.op = CtrlOp::SetAddrWrap;
            in.ctrl.imm = rnd(5);
            break;
        }
        in.ctrl.reg = uint8_t(reg);
        emit(in);
    }

    void
    emitCtrlMisc()
    {
        Instruction in;
        switch (rnd(3)) {
          case 0:
            in.ctrl.op = CtrlOp::SetZeroOff;
            in.ctrl.imm = rnd(1 << 16);
            break;
          case 1:
            in.ctrl.op = CtrlOp::Event;
            in.ctrl.imm = rnd(1 << 20);
            break;
          default:
            in.ctrl.op = CtrlOp::DmaFence; // No queue busy: free.
            in.ctrl.reg = uint8_t(rnd(4));
            break;
        }
        emit(in);
    }

    /** Re-center a register's row if any rep could leave the window. */
    void
    ensureRowSafe(int reg)
    {
        if (addr_[reg].row < kRowSafeLo || addr_[reg].row > kRowSafeHi) {
            Instruction fix;
            fix.ctrl.op = CtrlOp::SetAddrRow;
            fix.ctrl.reg = uint8_t(reg);
            fix.ctrl.imm = kRowSafeLo + rnd(kRowSafeHi - kRowSafeLo);
            emit(fix);
        }
    }

    /** Byte offset must be non-negative for the gather-class NDU ops. */
    void
    ensureByteSafe(int reg)
    {
        if (addr_[reg].byte < 64) {
            Instruction fix;
            fix.ctrl.op = CtrlOp::SetAddrByte;
            fix.ctrl.reg = uint8_t(reg);
            fix.ctrl.imm = 64 + rnd(3900);
            emit(fix);
        }
    }

    RowSrc
    narrowSrc()
    {
        static constexpr RowSrc kSrcs[] = {
            RowSrc::DataRead, RowSrc::WeightRead, RowSrc::Imm,
            RowSrc::N0, RowSrc::N1, RowSrc::N2, RowSrc::N3,
            RowSrc::OutLo, RowSrc::OutHi, RowSrc::DataReadHi,
            RowSrc::WeightReadHi,
        };
        return kSrcs[rnd(std::size(kSrcs))];
    }

    RowSrc
    wideSrc()
    {
        static constexpr RowSrc kSrcs[] = {
            RowSrc::DataRead, RowSrc::WeightRead, RowSrc::N0,
            RowSrc::N2, RowSrc::OutLo,
        };
        return kSrcs[rnd(std::size(kSrcs))];
    }

    void
    fillNdu(NduSlot &n)
    {
        static constexpr NduOp kOps[] = {
            NduOp::Bypass, NduOp::Rotate, NduOp::WindowGather,
            NduOp::RepWindow, NduOp::GroupBcast, NduOp::Compress2,
            NduOp::MergeMask, NduOp::SplatImm, NduOp::LoadMask,
        };
        n.op = kOps[rnd(std::size(kOps))];
        n.srcA = narrowSrc();
        n.srcB = narrowSrc();
        n.dst = uint8_t(rnd(4));
        n.addrReg = uint8_t(rnd(7));
        n.addrInc = chance(30);
        switch (n.op) {
          case NduOp::WindowGather:
          case NduOp::RepWindow:
          case NduOp::GroupBcast:
            n.param = uint8_t(rnd(6)); // NduStride S0..S256.
            ensureByteSafe(n.addrReg);
            break;
          case NduOp::Compress2:
            n.param = uint8_t(rnd(2));
            break;
          case NduOp::MergeMask:
            n.param = uint8_t(rnd(4));
            break;
          case NduOp::Rotate:
            // The rotate register (7) is pinned to a legal amount.
            n.addrReg = 7;
            n.addrInc = false;
            {
                Instruction fix;
                fix.ctrl.op = CtrlOp::SetAddrByte;
                fix.ctrl.reg = 7;
                fix.ctrl.imm = chance(50) ? rnd(65) : 4095 - rnd(64);
                emit(fix);
            }
            break;
          default:
            n.param = uint8_t(rnd(64));
            break;
        }
    }

    void
    fillNpu(NpuSlot &npu)
    {
        static constexpr NpuOp kOps[] = {
            NpuOp::Mac, NpuOp::Mac, NpuOp::Mac, NpuOp::MacFwd,
            NpuOp::Add, NpuOp::Sub, NpuOp::Min, NpuOp::Max,
            NpuOp::And, NpuOp::Or, NpuOp::Xor, NpuOp::AccZero,
            NpuOp::AccLoadBias, NpuOp::CmpGtP0, NpuOp::CmpGtP1,
        };
        npu.op = kOps[rnd(std::size(kOps))];
        static constexpr LaneType kTypes[] = {
            LaneType::I8, LaneType::U8, LaneType::U8, LaneType::I16,
            LaneType::BF16,
        };
        npu.type = kTypes[rnd(std::size(kTypes))];
        if (npu.type == LaneType::BF16) {
            static constexpr NpuOp kBf16Ops[] = {
                NpuOp::Mac, NpuOp::MacFwd, NpuOp::Add, NpuOp::Sub,
                NpuOp::Min, NpuOp::Max,
            };
            npu.op = kBf16Ops[rnd(std::size(kBf16Ops))];
        }
        bool wide = npu.type == LaneType::I16 ||
                    npu.type == LaneType::BF16;
        npu.a = wide ? wideSrc() : narrowSrc();
        npu.b = wide ? wideSrc() : narrowSrc();
        npu.zeroOff = chance(40);
        npu.pred = Pred(rnd(4));
        if (npu.op == NpuOp::AccLoadBias) {
            npu.type = LaneType::I8; // Cost class 1; mode in b.
            npu.a = narrowSrc();
            npu.b = RowSrc(rnd(5)); // BiasMode Rep64..Quarter3.
        }
    }

    /**
     * The conv-Rep shape NKL's repMac emits, which the specialized
     * engine runs as one fused GEMM: a data and a weight register in
     * circular mode, so taps step bytes and wrap onto the next (or
     * previous) row. Sometimes both slots share one register. Rows
     * move at most 40 times, so every read stays inside the window.
     */
    void
    emitConvRep()
    {
        const bool gather = chance(30);
        const uint32_t reps = 2 + (chance(5) ? rnd(600) : rnd(40));
        const int dreg = int(rnd(7));
        const int wreg = chance(15) ? dreg : int(rnd(7));
        auto setup = [&](int reg, int byte_inc) {
            const uint32_t bumps = reps * (dreg == wreg ? 2 : 1);
            const uint32_t row_inc = rnd(3) == 0 ? 0x3ff : rnd(2);
            Instruction in;
            in.ctrl.reg = uint8_t(reg);
            in.ctrl.op = CtrlOp::SetAddrRow;
            in.ctrl.imm = 50 + rnd(11);
            emit(in);
            in.ctrl.op = CtrlOp::SetAddrByte;
            in.ctrl.imm = rnd(4096);
            emit(in);
            in.ctrl.op = CtrlOp::SetAddrInc;
            in.ctrl.imm = (row_inc << 10) | uint32_t(byte_inc);
            emit(in);
            in.ctrl.op = CtrlOp::SetAddrWrap;
            in.ctrl.imm = (bumps + 39) / 40 + rnd(64);
            emit(in);
        };
        static constexpr int kDataIncs[] = {1, 2, 64};
        setup(dreg, gather ? 64 : kDataIncs[rnd(3)]);
        if (wreg != dreg)
            setup(wreg, chance(80) ? 64 : 1);

        Instruction mac;
        mac.ctrl.op = CtrlOp::Rep;
        mac.ctrl.imm = reps;
        mac.dataRead.enable = true;
        mac.dataRead.reg = uint8_t(dreg);
        mac.weightRead.enable = true;
        mac.weightRead.reg = uint8_t(wreg);
        mac.ndu0.op = gather ? NduOp::WindowGather : NduOp::GroupBcast;
        mac.ndu0.srcA = RowSrc::DataRead;
        mac.ndu0.dst = uint8_t(rnd(4));
        mac.ndu0.addrReg = uint8_t(dreg);
        mac.ndu0.addrInc = true;
        mac.ndu0.param = uint8_t(rnd(6)); // NduStride S0..S256.
        mac.ndu1.op = NduOp::RepWindow;
        mac.ndu1.srcA = RowSrc::WeightRead;
        mac.ndu1.dst = uint8_t((mac.ndu0.dst + 1 + rnd(3)) % 4);
        mac.ndu1.addrReg = uint8_t(wreg);
        mac.ndu1.addrInc = true;
        mac.ndu1.param =
            uint8_t(chance(70) ? uint32_t(NduStride::S1) : rnd(6));
        mac.npu.op = NpuOp::Mac;
        mac.npu.type = LaneType::U8;
        mac.npu.a = RowSrc(int(RowSrc::N0) + mac.ndu0.dst);
        mac.npu.b = RowSrc(int(RowSrc::N0) + mac.ndu1.dst);
        mac.npu.zeroOff = chance(50);
        mac.npu.pred = Pred(rnd(4));
        emit(mac);
    }

    void
    emitBody()
    {
        Instruction in;
        if (chance(40)) {
            in.ctrl.op = CtrlOp::Rep;
            in.ctrl.imm = 2 + rnd(3);
        } else if (chance(25)) {
            in.ctrl.imm = rnd(256); // Imm splat byte with CtrlOp::None.
        }

        if (chance(60)) {
            in.dataRead.enable = true;
            in.dataRead.reg = uint8_t(rnd(7));
            in.dataRead.postInc = chance(30);
            ensureRowSafe(in.dataRead.reg);
        }
        if (chance(50)) {
            in.weightRead.enable = true;
            in.weightRead.reg = uint8_t(rnd(7));
            in.weightRead.postInc = chance(30);
            ensureRowSafe(in.weightRead.reg);
        }
        if (chance(70))
            fillNdu(in.ndu0);
        if (chance(40))
            fillNdu(in.ndu1);
        if (chance(75))
            fillNpu(in.npu);
        if (chance(50)) {
            static constexpr OutOp kOps[] = {
                OutOp::Requant8, OutOp::Requant16, OutOp::StoreBf16,
                OutOp::CopyAcc32, OutOp::ActOnly8,
            };
            in.out.op = kOps[rnd(std::size(kOps))];
            in.out.act = ActFn(rnd(5));
            in.out.rqIndex = uint8_t(rnd(8));
            in.out.param = uint8_t(rnd(4));
        }
        if (chance(35)) {
            in.write.enable = true;
            in.write.weightRam = chance(50);
            in.write.addrReg = uint8_t(rnd(7));
            in.write.postInc = chance(30);
            in.write.src = narrowSrc();
            ensureRowSafe(in.write.addrReg);
        }
        emit(in);
    }

    Rng rng_;
    int rb_;
    std::vector<Instruction> prog_;
    TrackedAddr addr_[8];
};

class FastPathDiff : public ::testing::Test
{
  protected:
    explicit FastPathDiff(bool model_ecc = false)
        : gen_(chaNcoreConfig(), chaSocConfig(), nullptr, model_ecc,
               {ExecEngine::Generic})
    {
        // Explicit tiers, so NCORE_SIMD in the environment changes
        // nothing here; on a host without AVX2 only scalar is diffed.
        for (int t = int(SimdTier::Scalar); t <= int(bestSimdTier()); ++t)
            tiers_.push_back(std::make_unique<Machine>(
                chaNcoreConfig(), chaSocConfig(), nullptr, model_ecc,
                Machine::Options{ExecEngine::Specialized, SimdTier(t)}));
    }

    /** The scalar-tier specialized engine. */
    Machine &fast() { return *tiers_.front(); }

    /** Every engine, generic first. */
    std::vector<Machine *>
    all()
    {
        std::vector<Machine *> v = specialized();
        v.insert(v.begin(), &gen_);
        return v;
    }

    /** The specialized engines diffed against the interpreter. */
    std::vector<Machine *>
    specialized()
    {
        std::vector<Machine *> v;
        for (const auto &m : tiers_)
            v.push_back(m.get());
        return v;
    }

    /** Program identical random machine state into every engine. */
    void
    seedState(Rng &rng)
    {
        for (Machine *m : all())
            m->reset();
        std::vector<uint8_t> row(gen_.rowBytesInt());
        for (int r = 0; r < kRows; ++r) {
            for (auto &b : row)
                b = uint8_t(rng.next64());
            writeRowAll(false, r, row.data());
            for (auto &b : row)
                b = uint8_t(rng.next64());
            writeRowAll(true, r, row.data());
        }
        for (int i = 0; i < 8; ++i) {
            RequantEntry e;
            e.rq.multiplier =
                (1 << 29) + int32_t(rng.nextBelow((1u << 31) - (1u << 29)));
            e.rq.shift = int8_t(int(rng.nextBelow(13)) - 4);
            e.rq.offset = int32_t(rng.nextBelow(384)) - 128;
            e.outType = rng.nextBelow(2) ? DType::UInt8 : DType::Int8;
            int32_t a = int32_t(rng.nextBelow(700)) - 300;
            int32_t b = int32_t(rng.nextBelow(700)) - 300;
            e.actMin = std::min(a, b);
            e.actMax = std::max(a, b);
            e.lutId = uint8_t(rng.nextBelow(4));
            for (Machine *m : all())
                m->writeRequantEntry(i, e);
        }
        for (int l = 0; l < 4; ++l) {
            std::array<uint8_t, 256> lut;
            for (auto &b : lut)
                b = uint8_t(rng.next64());
            for (Machine *m : all())
                m->writeLut(l, lut);
        }
    }

    void
    writeRowAll(bool weight, int r, const uint8_t *data)
    {
        for (Machine *m : all())
            m->hostWriteRow(weight, r, data);
    }

    /** One int32 per lane into data rows row..row+3, a quarter each. */
    void
    writeAccSeeds(const std::vector<int32_t> &seeds, int row)
    {
        const size_t quarter = seeds.size() / 4;
        for (int q = 0; q < 4; ++q)
            writeRowAll(false, row + q,
                        reinterpret_cast<const uint8_t *>(seeds.data() +
                                                          q * quarter));
    }

    void
    runAll(const std::vector<Instruction> &prog)
    {
        std::vector<EncodedInstruction> enc;
        enc.reserve(prog.size());
        for (const Instruction &in : prog)
            enc.push_back(encodeInstruction(in));
        for (Machine *m : all()) {
            m->writeIram(0, enc);
            m->start(0);
        }
        RunResult rg = gen_.run(1 << 22);
        for (Machine *m : specialized()) {
            RunResult rm = m->run(1 << 22);
            ASSERT_EQ(int(rm.reason), int(rg.reason))
                << m->execDescription();
            ASSERT_EQ(rm.cycles, rg.cycles) << m->execDescription();
        }
    }

    /** Full architectural-state comparison of `f` vs the interpreter. */
    void
    compareTo(Machine &f, uint64_t seed)
    {
        SCOPED_TRACE(testing::Message()
                     << f.execDescription() << " vs generic, seed "
                     << seed);
        const PerfCounters &pf = f.perf();
        const PerfCounters &pg = gen_.perf();
        EXPECT_EQ(pf.cycles, pg.cycles);
        EXPECT_EQ(pf.instructions, pg.instructions);
        EXPECT_EQ(pf.macOps, pg.macOps);
        EXPECT_EQ(pf.nduOps, pg.nduOps);
        EXPECT_EQ(pf.ramReads, pg.ramReads);
        EXPECT_EQ(pf.ramWrites, pg.ramWrites);
        EXPECT_EQ(pf.dmaFenceStalls, pg.dmaFenceStalls);

        ASSERT_EQ(0, std::memcmp(f.accState().data(),
                                 gen_.accState().data(),
                                 f.accState().size() * 4));
        for (int p = 0; p < 2; ++p)
            EXPECT_EQ(f.predState(p), gen_.predState(p)) << "pred " << p;
        for (int n = 0; n < 4; ++n)
            EXPECT_EQ(f.nRegState(n), gen_.nRegState(n)) << "n" << n;
        EXPECT_EQ(f.outState(false), gen_.outState(false));
        EXPECT_EQ(f.outState(true), gen_.outState(true));

        std::vector<uint8_t> a(f.rowBytesInt());
        std::vector<uint8_t> b(f.rowBytesInt());
        for (int r = 0; r < kRows; ++r) {
            for (bool w : {false, true}) {
                f.hostReadRow(w, r, a.data());
                gen_.hostReadRow(w, r, b.data());
                ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size()))
                    << (w ? "weight" : "data") << " row " << r;
            }
        }
    }

    /**
     * compareTo() for every specialized engine, after diffing every
     * engine's ECC counters: compareTo's host row reads scrub, and
     * count, like any other read.
     */
    void
    compareState(uint64_t seed)
    {
        for (Machine *m : specialized()) {
            for (bool w : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << m->execDescription() << " vs generic, "
                             << (w ? "weight" : "data") << " ECC, seed "
                             << seed);
                const EccStats &ef =
                    w ? m->weightRam().eccStats() : m->dataRam().eccStats();
                const EccStats &eg = w ? gen_.weightRam().eccStats()
                                       : gen_.dataRam().eccStats();
                EXPECT_EQ(ef.corrected, eg.corrected);
                EXPECT_EQ(ef.uncorrectable, eg.uncorrectable);
            }
        }
        for (Machine *m : specialized())
            compareTo(*m, seed);
    }

    Machine gen_;
    /** One specialized engine per tier, Scalar up to bestSimdTier(). */
    std::vector<std::unique_ptr<Machine>> tiers_;
};

TEST_F(FastPathDiff, EngineSelection)
{
    EXPECT_TRUE(fast().usingFastPath());
    EXPECT_FALSE(gen_.usingFastPath());
    // Machine::Options picks the engine; the default is specialized.
    Machine dflt(chaNcoreConfig(), chaSocConfig());
    EXPECT_TRUE(dflt.usingFastPath());
}

/** SIMD kernel-tier resolution (ncore/simd.h) and its reporting. */
TEST_F(FastPathDiff, SimdTierSelection)
{
    // The interpreter has no SIMD kernels: tier pins to Scalar.
    EXPECT_EQ(int(gen_.simdTier()), int(SimdTier::Scalar));
    EXPECT_EQ(gen_.execDescription(), "generic");
    // Explicit Options requests resolve as given: the fixture holds
    // one engine per tier up to the host's best.
    for (size_t i = 0; i < tiers_.size(); ++i) {
        SimdTier t = SimdTier(int(SimdTier::Scalar) + int(i));
        EXPECT_EQ(int(tiers_[i]->simdTier()), int(t));
        EXPECT_EQ(tiers_[i]->execDescription(),
                  std::string("specialized/") + simdTierName(t));
    }
    EXPECT_EQ(int(tiers_.back()->simdTier()), int(bestSimdTier()));

    const char *saved = getenv("NCORE_SIMD");
    std::string savedCopy = saved ? saved : "";

    // Auto resolves to a concrete tier the host supports.
    unsetenv("NCORE_SIMD");
    Machine autoTier(chaNcoreConfig(), chaSocConfig(), nullptr, false,
                     {ExecEngine::Specialized});
    EXPECT_EQ(int(autoTier.simdTier()), int(bestSimdTier()));

    // Every tier name parses back to its tier.
    for (SimdTier t : {SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512,
                       SimdTier::Avx512Vnni})
        EXPECT_EQ(int(parseSimdTier(simdTierName(t))), int(t));
    EXPECT_EQ(int(parseSimdTier("avx512vnni")), int(SimdTier::Avx512Vnni));

    // Auto honors NCORE_SIMD (the one place the env var is read),
    // clamped like an explicit request: avx512 keeps the non-VNNI
    // kernels on a VNNI host...
    setenv("NCORE_SIMD", "avx512", 1);
    Machine env512(chaNcoreConfig(), chaSocConfig());
    EXPECT_EQ(int(env512.simdTier()),
              int(std::min(SimdTier::Avx512, bestSimdTier())));
    setenv("NCORE_SIMD", "avx512vnni", 1);
    Machine envVnni(chaNcoreConfig(), chaSocConfig());
    EXPECT_EQ(int(envVnni.simdTier()), int(bestSimdTier()));
    setenv("NCORE_SIMD", "scalar", 1);
    Machine env(chaNcoreConfig(), chaSocConfig());
    EXPECT_EQ(int(env.simdTier()), int(SimdTier::Scalar));

    // ...but an explicit Options request beats it, and a request for
    // more than the host supports clamps to the probed best tier.
    for (SimdTier t : {SimdTier::Avx512, SimdTier::Avx512Vnni}) {
        Machine expl(chaNcoreConfig(), chaSocConfig(), nullptr, false,
                     {ExecEngine::Specialized, t});
        EXPECT_EQ(int(expl.simdTier()), int(std::min(t, bestSimdTier())));
    }

    if (saved)
        setenv("NCORE_SIMD", savedCopy.c_str(), 1);
    else
        unsetenv("NCORE_SIMD");
}

/** ≥1000 random programs, bit-identical across the engine matrix
 *  (override the count with NCORE_DIFF_PROGRAMS; the sanitizer CI
 *  job runs a reduced count). */
/**
 * RandomPrograms runs in kDiffShards shards that ctest schedules in
 * parallel. Shard s takes programs i with i % kDiffShards == s from the
 * one `master` seed sequence, so together the shards run the same
 * NCORE_DIFF_PROGRAMS programs (1000 by default) with the same seeds
 * as a single loop.
 */
constexpr int kDiffShards = 8;

class FastPathDiffShard : public FastPathDiff,
                          public ::testing::WithParamInterface<int>
{
};

TEST_P(FastPathDiffShard, RandomPrograms)
{
    int programs = 1000;
    if (const char *s = getenv("NCORE_DIFF_PROGRAMS"))
        programs = std::max(1, atoi(s));
    Rng master(0x5eedc0de);
    for (int i = 0; i < programs; ++i) {
        uint64_t seed = master.next64();
        if (i % kDiffShards != GetParam())
            continue;
        Rng rng(seed);
        seedState(rng);
        ProgramGen pgen(seed ^ 0x9e3779b97f4a7c15ull,
                        fast().rowBytesInt());
        std::vector<Instruction> prog = pgen.generate(28);
        ASSERT_LE(prog.size(), size_t(Machine::kBankInstrs));
        runAll(prog);
        compareState(seed);
        if (HasFatalFailure() || HasNonfatalFailure()) {
            for (const Instruction &in : prog)
                fprintf(stderr, "  %s\n", in.toString().c_str());
            FAIL() << "divergence at program " << i << " seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, FastPathDiffShard,
                         ::testing::Range(0, kDiffShards));

/**
 * Diagnostic (skipped unless NCORE_BISECT_SEED is set): re-generate the
 * program for a failing RandomPrograms seed and step each tier's
 * engine in lockstep with the interpreter, reporting the first cycle at
 * which the accumulators or any register row diverge. Usage:
 *   NCORE_BISECT_SEED=<seed> ./fastpath_diff_test \
 *       --gtest_filter='*BisectSeed*' --gtest_also_run_disabled_tests
 */
TEST_F(FastPathDiff, DISABLED_BisectSeed)
{
    const char *s = getenv("NCORE_BISECT_SEED");
    if (!s)
        GTEST_SKIP() << "set NCORE_BISECT_SEED to use";
    uint64_t seed = strtoull(s, nullptr, 10);
    ProgramGen pgen(seed ^ 0x9e3779b97f4a7c15ull, fast().rowBytesInt());
    std::vector<Instruction> prog = pgen.generate(28);
    std::vector<EncodedInstruction> enc;
    for (const Instruction &in : prog)
        enc.push_back(encodeInstruction(in));
    for (const Instruction &in : prog)
        fprintf(stderr, "  %s\n", in.toString().c_str());
    for (Machine *m : specialized()) {
        Machine &f = *m;
        SCOPED_TRACE(f.execDescription());
        Rng rng(seed);
        seedState(rng);
        f.writeIram(0, enc);
        gen_.writeIram(0, enc);
        f.setNStep(1);
        gen_.setNStep(1);
        f.start(0);
        gen_.start(0);
        while (f.running() && gen_.running()) {
            f.run();
            gen_.run();
            ASSERT_EQ(f.cycles(), gen_.cycles());
            for (int n = 0; n < 4; ++n)
                ASSERT_EQ(f.nRegState(n), gen_.nRegState(n))
                    << "n" << n << " (pre-acc) at cycle " << f.cycles()
                    << " instr " << f.perf().instructions;
            const int32_t *af = f.accState().data();
            const int32_t *ag = gen_.accState().data();
            int bad = 0;
            for (size_t i = 0; i < f.accState().size(); ++i) {
                if (af[i] != ag[i] && bad++ < 8)
                    fprintf(stderr,
                            "acc[%zu] fast=%d gen=%d cycle=%llu "
                            "instr=%llu\n",
                            i, af[i], ag[i],
                            (unsigned long long)f.cycles(),
                            (unsigned long long)f.perf().instructions);
            }
            ASSERT_EQ(bad, 0) << bad << " divergent acc lanes";
            ASSERT_EQ(f.outState(false), gen_.outState(false))
                << "outLo at cycle " << f.cycles();
            ASSERT_EQ(f.outState(true), gen_.outState(true))
                << "outHi at cycle " << f.cycles();
            for (int p = 0; p < 2; ++p)
                ASSERT_EQ(f.predState(p), gen_.predState(p))
                    << "pred " << p << " at cycle " << f.cycles();
        }
        EXPECT_EQ(f.running(), gen_.running());
        f.setNStep(0);
        gen_.setNStep(0);
    }
}

/** Hardware loops sequence identically through both engines. */
TEST_F(FastPathDiff, LoopProgram)
{
    Rng rng(7);
    seedState(rng);
    std::vector<Instruction> prog;
    Instruction i0;
    i0.ctrl.op = CtrlOp::SetAddrRow;
    i0.ctrl.reg = 0;
    i0.ctrl.imm = 16;
    prog.push_back(i0);
    Instruction i1;
    i1.ctrl.op = CtrlOp::SetAddrInc;
    i1.ctrl.reg = 0;
    i1.ctrl.imm = 1u << 10; // rowInc 1, byteInc 0.
    prog.push_back(i1);
    Instruction lb;
    lb.ctrl.op = CtrlOp::LoopBegin;
    lb.ctrl.reg = 1;
    lb.ctrl.imm = 9;
    lb.npu.op = NpuOp::AccZero;
    prog.push_back(lb);
    Instruction mac;
    mac.ctrl.op = CtrlOp::Rep;
    mac.ctrl.imm = 5;
    mac.dataRead.enable = true;
    mac.dataRead.reg = 0;
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::I8;
    mac.npu.a = RowSrc::DataRead;
    mac.npu.b = RowSrc::DataRead;
    prog.push_back(mac);
    Instruction step;
    step.dataRead.enable = true;
    step.dataRead.reg = 0;
    step.dataRead.postInc = true;
    step.npu.op = NpuOp::Add;
    step.npu.type = LaneType::U8;
    step.npu.a = RowSrc::DataRead;
    prog.push_back(step);
    Instruction le;
    le.ctrl.op = CtrlOp::LoopEnd;
    le.ctrl.reg = 1;
    le.out.op = OutOp::CopyAcc32;
    prog.push_back(le);
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    runAll(prog);
    compareState(7);
}

/** A Rep body with post-increments must take the per-rep path. */
TEST_F(FastPathDiff, RepWithPostIncrement)
{
    Rng rng(11);
    seedState(rng);
    std::vector<Instruction> prog;
    Instruction i0;
    i0.ctrl.op = CtrlOp::SetAddrRow;
    i0.ctrl.reg = 2;
    i0.ctrl.imm = 20;
    prog.push_back(i0);
    Instruction i1;
    i1.ctrl.op = CtrlOp::SetAddrInc;
    i1.ctrl.reg = 2;
    i1.ctrl.imm = 1u << 10;
    prog.push_back(i1);
    Instruction i2;
    i2.npu.op = NpuOp::AccZero;
    prog.push_back(i2);
    Instruction mac;
    mac.ctrl.op = CtrlOp::Rep;
    mac.ctrl.imm = 40;
    mac.dataRead.enable = true;
    mac.dataRead.reg = 2;
    mac.dataRead.postInc = true; // Defeats rep-invariance.
    mac.weightRead.enable = true;
    mac.weightRead.reg = 2;
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::U8;
    mac.npu.zeroOff = true;
    mac.npu.a = RowSrc::DataRead;
    mac.npu.b = RowSrc::WeightRead;
    prog.push_back(mac);
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    runAll(prog);
    compareState(11);
}

/** Helpers shared by the directed SIMD corner-case programs. */
Instruction
setAddrRow(int reg, int row)
{
    Instruction in;
    in.ctrl.op = CtrlOp::SetAddrRow;
    in.ctrl.reg = uint8_t(reg);
    in.ctrl.imm = uint32_t(row);
    return in;
}

Instruction
setAddrByte(int reg, int byte)
{
    Instruction in;
    in.ctrl.op = CtrlOp::SetAddrByte;
    in.ctrl.reg = uint8_t(reg);
    in.ctrl.imm = uint32_t(byte);
    return in;
}

/** NPU op reading dataRead(reg0) and weightRead(reg1). */
Instruction
npuRR(NpuOp op, LaneType t, Pred p = Pred::None, bool zeroOff = false)
{
    Instruction in;
    in.dataRead.enable = true;
    in.dataRead.reg = 0;
    in.weightRead.enable = true;
    in.weightRead.reg = 1;
    in.npu.op = op;
    in.npu.type = t;
    in.npu.a = RowSrc::DataRead;
    in.npu.b = RowSrc::WeightRead;
    in.npu.pred = p;
    in.npu.zeroOff = zeroOff;
    return in;
}

/**
 * Load the accumulators from data rows row..row+3 (writeAccSeeds)
 * through AccLoadBias quarters, addressing with register 2.
 */
std::vector<Instruction>
loadAccQuarters(int row)
{
    std::vector<Instruction> prog;
    for (int q = 0; q < 4; ++q) {
        prog.push_back(setAddrRow(2, row + q));
        Instruction bias;
        bias.dataRead.enable = true;
        bias.dataRead.reg = 2;
        bias.npu.op = NpuOp::AccLoadBias;
        bias.npu.a = RowSrc::DataRead;
        bias.npu.b = RowSrc(int(BiasMode::Quarter0) + q);
        prog.push_back(bias);
    }
    return prog;
}

/**
 * Every lane type and op class under every predicate mode: the SIMD
 * kernels turn the per-lane predicate bytes into vector masks
 * (passV), so each (type, pred, op) combination must blend exactly
 * like the scalar per-lane `if`.
 */
TEST_F(FastPathDiff, PredicatedLanes)
{
    Rng rng(21);
    seedState(rng);
    std::vector<Instruction> prog;
    prog.push_back(setAddrRow(0, 12));
    prog.push_back(setAddrRow(1, 40));
    Instruction z;
    z.npu.op = NpuOp::AccZero;
    prog.push_back(z);
    // Derive both predicate registers from the random RAM contents.
    prog.push_back(npuRR(NpuOp::CmpGtP0, LaneType::U8));
    prog.push_back(npuRR(NpuOp::CmpGtP1, LaneType::I8));
    static constexpr LaneType kTypes[] = {LaneType::U8, LaneType::I8,
                                          LaneType::I16, LaneType::BF16};
    static constexpr Pred kPreds[] = {Pred::P0, Pred::P1, Pred::NotP0};
    static constexpr NpuOp kOps[] = {NpuOp::Mac, NpuOp::MacFwd,
                                     NpuOp::Add, NpuOp::Min};
    for (LaneType t : kTypes)
        for (Pred p : kPreds)
            for (NpuOp op : kOps)
                prog.push_back(npuRR(op, t, p));
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    runAll(prog);
    compareState(21);
}

/**
 * Nonzero zero-point offsets: the u8 widen kernels subtract the
 * per-operand offsets before the MAC, and the SIMD selectors must
 * canonicalize "zeroOff set but type != U8" exactly like the scalar
 * ones (the offset only applies to U8 lanes).
 */
TEST_F(FastPathDiff, NonzeroZeroOffsets)
{
    Rng rng(33);
    seedState(rng);
    std::vector<Instruction> prog;
    prog.push_back(setAddrRow(0, 15));
    prog.push_back(setAddrRow(1, 55));
    Instruction z;
    z.npu.op = NpuOp::AccZero;
    prog.push_back(z);
    prog.push_back(npuRR(NpuOp::CmpGtP0, LaneType::U8));
    for (uint32_t zo : {0x0000u, 0x1580u, 0x80ffu, 0xffffu}) {
        Instruction set;
        set.ctrl.op = CtrlOp::SetZeroOff;
        set.ctrl.imm = zo;
        prog.push_back(set);
        prog.push_back(npuRR(NpuOp::Mac, LaneType::U8, Pred::None, true));
        prog.push_back(npuRR(NpuOp::Mac, LaneType::U8, Pred::P0, true));
        prog.push_back(npuRR(NpuOp::MacFwd, LaneType::U8, Pred::None,
                             true));
        prog.push_back(npuRR(NpuOp::Add, LaneType::U8, Pred::None, true));
        prog.push_back(npuRR(NpuOp::Sub, LaneType::U8, Pred::NotP0,
                             true));
        prog.push_back(npuRR(NpuOp::CmpGtP1, LaneType::U8, Pred::None,
                             true));
        // zeroOff on non-U8 types is architecturally ignored.
        prog.push_back(npuRR(NpuOp::Mac, LaneType::I8, Pred::None, true));
        prog.push_back(npuRR(NpuOp::Mac, LaneType::I16, Pred::None,
                             true));
    }
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    runAll(prog);
    compareState(33);
}

/**
 * bf16 NaN / infinity / denormal inputs: the vector kernels must
 * reproduce the scalar engines' NaN canonicalization (common/bf16.h:
 * quieten-to-0x7fc00000 on lane load, payload-preserving narrow on
 * store) and the mul-then-add double rounding when a product lands
 * in the binary32 subnormal range — the reason the SIMD TUs compile
 * with -ffp-contract=off.
 */
TEST_F(FastPathDiff, Bf16SpecialValues)
{
    Rng rng(44);
    seedState(rng);
    // Saturate two source rows with bytes that assemble into NaNs
    // (0x7f81, 0xffc1...), infinities (0x7f80/0xff80), denormals
    // (0x0001, 0x8001, 0x0080) and tiny normals regardless of which
    // planar half supplies the exponent byte.
    static constexpr uint8_t kBytes[] = {0x00, 0x01, 0x80, 0x81,
                                         0x7f, 0xff, 0xc0, 0xc1,
                                         0x3f, 0x40, 0x08, 0xf0};
    std::vector<uint8_t> row(gen_.rowBytesInt());
    for (size_t i = 0; i < row.size(); ++i)
        row[i] = kBytes[(i * 5 + i / 64) % std::size(kBytes)];
    writeRowAll(false, 12, row.data());
    for (size_t i = 0; i < row.size(); ++i)
        row[i] = kBytes[(i * 7 + i / 128 + 3) % std::size(kBytes)];
    writeRowAll(true, 40, row.data());

    std::vector<Instruction> prog;
    prog.push_back(setAddrRow(0, 12));
    prog.push_back(setAddrRow(1, 40));
    Instruction z;
    z.npu.op = NpuOp::AccZero;
    prog.push_back(z);
    prog.push_back(npuRR(NpuOp::CmpGtP0, LaneType::I8));
    static constexpr NpuOp kOps[] = {NpuOp::Mac, NpuOp::MacFwd,
                                     NpuOp::Add, NpuOp::Sub,
                                     NpuOp::Min, NpuOp::Max};
    for (NpuOp op : kOps) {
        prog.push_back(npuRR(op, LaneType::BF16));
        prog.push_back(npuRR(op, LaneType::BF16, Pred::P0));
    }
    // Narrow the NaN-laden accumulators back to bf16 rows through
    // each activation the SIMD OUT kernel vectorizes.
    for (ActFn act : {ActFn::None, ActFn::Relu, ActFn::Relu6}) {
        Instruction out;
        out.out.op = OutOp::StoreBf16;
        out.out.act = act;
        prog.push_back(out);
        Instruction wr;
        wr.write.enable = true;
        wr.write.addrReg = 2;
        wr.write.src = RowSrc::OutLo;
        wr.write.weightRam = false;
        prog.push_back(setAddrRow(2, 90 + int(act)));
        prog.push_back(wr);
    }
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    runAll(prog);
    compareState(44);
}

/**
 * Gather-class NDU reads at every NduStride with byte offsets just
 * under rowBytes: the window wraps around the 4096-byte row, which is
 * the boundary the vectorized wide-load kernels must not run past (the
 * scalar NDU kernels index modulo rowBytes per byte). Offset
 * 4096 - 64 is the last one whose stride-1 window does not wrap, so
 * the vector RepWindow's contiguous-load path runs at its edge.
 */
TEST_F(FastPathDiff, RowWrappingNduReads)
{
    Rng rng(55);
    seedState(rng);
    std::vector<Instruction> prog;
    prog.push_back(setAddrRow(0, 25));
    static constexpr NduOp kOps[] = {NduOp::WindowGather,
                                     NduOp::RepWindow,
                                     NduOp::GroupBcast};
    int dst = 0;
    for (NduOp op : kOps) {
        for (uint8_t stride = uint8_t(NduStride::S0);
             stride <= uint8_t(NduStride::S256); ++stride) {
            for (int back : {1, 17, 63, 64}) {
                prog.push_back(setAddrByte(3, 4096 - back));
                Instruction in;
                in.dataRead.enable = true;
                in.dataRead.reg = 0;
                in.ndu0.op = op;
                in.ndu0.srcA = RowSrc::DataRead;
                in.ndu0.dst = uint8_t(dst);
                in.ndu0.addrReg = 3;
                in.ndu0.param = stride;
                // Fold the gathered row into the accumulators so a
                // wrong gather shows up in acc state too.
                in.npu.op = NpuOp::Add;
                in.npu.type = LaneType::U8;
                in.npu.a = RowSrc(int(RowSrc::N0) + dst);
                prog.push_back(in);
                dst = (dst + 1) % 4;
            }
        }
    }
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    runAll(prog);
    compareState(55);
}

/**
 * Saturating accumulate at the int32 rails. Accumulators seeded within
 * 70,000 of INT32_MAX and INT32_MIN take u8, i8 and i16 Mac, MacFwd,
 * Add and Sub, with and without a predicate, once and then under a
 * Rep. About half the i16 lanes of both operands are -32768, so their
 * products are 2^30. u8 Mac and MacFwd also run with nonzero zero
 * offsets: then a widened u8 operand can be negative, which is the
 * case the VNNI MAC step's high-word mask exists for. Every
 * combination is its own program: the next one reloads the
 * accumulators, so a wrong clamp would otherwise be overwritten before
 * the diff.
 */
TEST_F(FastPathDiff, SaturatingAccumulators)
{
    const int rb = gen_.rowBytesInt();
    Rng rng(66);
    seedState(rng);

    // Operand A in data rows 12/13 (lo/hi), B in weight rows 40/41.
    static constexpr uint8_t kBytes[] = {0x00, 0x01, 0x7f, 0x80,
                                         0x81, 0xfe, 0xff};
    std::vector<uint8_t> lo(rb), hi(rb);
    for (bool weight : {false, true}) {
        for (int i = 0; i < rb; ++i) {
            bool min16 = rng.nextBelow(2) == 0; // 0x8000 = -32768.
            lo[i] = min16 ? 0x00 : kBytes[rng.nextBelow(std::size(kBytes))];
            hi[i] = min16 ? 0x80 : kBytes[rng.nextBelow(std::size(kBytes))];
        }
        int row = weight ? 40 : 12;
        writeRowAll(weight, row, lo.data());
        writeRowAll(weight, row + 1, hi.data());
    }

    // Accumulator seeds in data rows 60..63, one quarter per row. Most
    // lanes sit within one u8 product or one Add of a rail, so every
    // op pushes some of them over it; none starts on the rail.
    std::vector<int32_t> seeds(rb);
    for (int32_t &v : seeds) {
        static constexpr uint32_t kReach[] = {70000, 20000, 300};
        int32_t k = 1 + int32_t(rng.nextBelow(kReach[rng.nextBelow(3)]));
        v = rng.nextBelow(2) ? INT32_MAX - k : INT32_MIN + k;
    }
    const int quarter = rb / 4;
    for (int q = 0; q < 4; ++q)
        writeRowAll(false, 60 + q,
                    reinterpret_cast<const uint8_t *>(seeds.data() +
                                                      q * quarter));

    // zeroOff is the SetZeroOff immediate (data offset in bits 15:8,
    // weight offset in bits 7:0); 0 leaves the offsets off.
    auto runCase = [&](LaneType t, NpuOp op, Pred p, uint32_t zeroOff) {
        SCOPED_TRACE(testing::Message()
                     << "type " << int(t) << " op " << int(op) << " pred "
                     << int(p) << " zero offsets 0x" << std::hex
                     << zeroOff);
        const bool zoff = zeroOff != 0;
        std::vector<Instruction> prog;
        prog.push_back(setAddrRow(0, 12));
        prog.push_back(setAddrRow(1, 40));
        prog.push_back(npuRR(NpuOp::CmpGtP0, LaneType::U8));
        for (int q = 0; q < 4; ++q) {
            prog.push_back(setAddrRow(2, 60 + q));
            Instruction bias;
            bias.dataRead.enable = true;
            bias.dataRead.reg = 2;
            bias.npu.op = NpuOp::AccLoadBias;
            bias.npu.a = RowSrc::DataRead;
            bias.npu.b = RowSrc(int(BiasMode::Quarter0) + q); // Mode.
            prog.push_back(bias);
        }
        if (zoff) {
            Instruction set;
            set.ctrl.op = CtrlOp::SetZeroOff;
            set.ctrl.imm = zeroOff;
            prog.push_back(set);
        }
        prog.push_back(npuRR(op, t, p, zoff));
        Instruction rep = npuRR(op, t, p, zoff);
        rep.ctrl.op = CtrlOp::Rep;
        rep.ctrl.imm = 3;
        prog.push_back(rep);
        Instruction halt;
        halt.ctrl.op = CtrlOp::Halt;
        prog.push_back(halt);
        runAll(prog);
        compareState(66);

        // The program must actually drive lanes onto a rail.
        const std::vector<int32_t> &acc = gen_.accState();
        EXPECT_GT(std::count(acc.begin(), acc.end(), INT32_MAX) +
                      std::count(acc.begin(), acc.end(), INT32_MIN),
                  0);
    };

    static constexpr LaneType kTypes[] = {LaneType::U8, LaneType::I8,
                                          LaneType::I16};
    static constexpr NpuOp kOps[] = {NpuOp::Mac, NpuOp::MacFwd,
                                     NpuOp::Add, NpuOp::Sub};
    for (LaneType t : kTypes)
        for (NpuOp op : kOps)
            for (Pred p : {Pred::None, Pred::P0})
                runCase(t, op, p, 0);
    // Offsets 0x80 and 0xff make both operand signs common (u8 - 0xff
    // reaches -255); 0xff80 swaps which operand gets which.
    for (NpuOp op : {NpuOp::Mac, NpuOp::MacFwd})
        for (Pred p : {Pred::None, Pred::P0})
            for (uint32_t zo : {0x80ffu, 0xff80u, 0x0180u})
                runCase(LaneType::U8, op, p, zo);
}

Instruction
setAddrInc(int reg, int row_inc, int byte_inc)
{
    Instruction in;
    in.ctrl.op = CtrlOp::SetAddrInc;
    in.ctrl.reg = uint8_t(reg);
    in.ctrl.imm = (uint32_t(row_inc) & 0x3ff) << 10 |
                  (uint32_t(byte_inc) & 0x3ff);
    return in;
}

Instruction
setAddrWrap(int reg, uint32_t n)
{
    Instruction in;
    in.ctrl.op = CtrlOp::SetAddrWrap;
    in.ctrl.reg = uint8_t(reg);
    in.ctrl.imm = n;
    return in;
}

Instruction
setZeroOff(uint32_t imm)
{
    Instruction in;
    in.ctrl.op = CtrlOp::SetZeroOff;
    in.ctrl.imm = imm;
    return in;
}

Instruction
ctrlOnly(CtrlOp op)
{
    Instruction in;
    in.ctrl.op = op;
    return in;
}

Instruction
accZero()
{
    Instruction in;
    in.npu.op = NpuOp::AccZero;
    return in;
}

/**
 * A conv accumulation Rep as NKL's repMac emits it (nkl/kernels.cc):
 * the data read and NDU0 address `dreg`, the weight read and NDU1
 * address `wreg`, and both NDU slots step their register per tap.
 */
Instruction
convRep(uint32_t reps, NduOp data_op, NduStride gs, Pred pred,
        bool zero_off, int dreg = 0, int wreg = 1)
{
    Instruction mac;
    mac.ctrl.op = CtrlOp::Rep;
    mac.ctrl.imm = reps;
    mac.dataRead.enable = true;
    mac.dataRead.reg = uint8_t(dreg);
    mac.weightRead.enable = true;
    mac.weightRead.reg = uint8_t(wreg);
    mac.ndu0.op = data_op;
    mac.ndu0.srcA = RowSrc::DataRead;
    mac.ndu0.dst = 0;
    mac.ndu0.addrReg = uint8_t(dreg);
    mac.ndu0.addrInc = true;
    mac.ndu0.param = uint8_t(gs);
    mac.ndu1.op = NduOp::RepWindow;
    mac.ndu1.srcA = RowSrc::WeightRead;
    mac.ndu1.dst = 1;
    mac.ndu1.addrReg = uint8_t(wreg);
    mac.ndu1.addrInc = true;
    mac.ndu1.param = uint8_t(NduStride::S1);
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::U8;
    mac.npu.a = RowSrc::N0;
    mac.npu.b = RowSrc::N1;
    mac.npu.zeroOff = zero_off;
    mac.npu.pred = pred;
    return mac;
}

/**
 * repMac's addressing for a 3x3 conv over one 64-channel block: data
 * +1 byte per tap and the next row every 192 taps, weights +64 bytes
 * per tap and the next row every 64 taps.
 */
std::vector<Instruction>
conv3x3Addressing(int data_row, int data_byte, int weight_row)
{
    return {setAddrRow(0, data_row),   setAddrByte(0, data_byte),
            setAddrInc(0, 1, 1),       setAddrWrap(0, 192),
            setAddrRow(1, weight_row), setAddrByte(1, 0),
            setAddrInc(1, 1, 64),      setAddrWrap(1, 64)};
}

/** The plan buildExecPlan binds for `in` at `tier`. */
ExecPlan
planAt(const Instruction &in, SimdTier tier)
{
    constexpr int kRb = 4096;
    static std::vector<uint8_t> rows(14 * kRb);
    static std::vector<int32_t> acc(kRb);
    static std::array<RequantEntry, 256> rq{};
    uint8_t *next = rows.data();
    auto row = [&] { return std::exchange(next, next + kRb); };
    PlanBindings b;
    b.rb = kRb;
    b.acc = acc.data();
    for (uint8_t *&n : b.n)
        n = row();
    b.outLo = row();
    b.outHi = row();
    b.dataLo = row();
    b.dataHi = row();
    b.weightLo = row();
    b.weightHi = row();
    b.immRow = row();
    b.pred[0] = row();
    b.pred[1] = row();
    b.scratch = row();
    b.rqTable = rq.data();
    return buildExecPlan(in, b, tier);
}

/** Whether buildExecPlan marks `in` as a fused conv Rep at `tier`. */
bool
fusedAt(const Instruction &in, SimdTier tier)
{
    return planAt(in, tier).convRep != nullptr;
}

/**
 * The decode-time shape test: repMac's Rep fuses under every predicate,
 * NDU0 op, group stride and zero-offset setting, at every tier, and
 * changing any one part of the shape takes it off the fused path.
 */
TEST_F(FastPathDiff, ConvRepShape)
{
    for (Machine *m : specialized()) {
        const SimdTier t = m->simdTier();
        SCOPED_TRACE(m->execDescription());
        for (NduOp op : {NduOp::GroupBcast, NduOp::WindowGather})
            for (Pred p : {Pred::None, Pred::P0, Pred::P1, Pred::NotP0})
                for (NduStride gs : {NduStride::S64, NduStride::S128})
                    for (bool zoff : {false, true})
                        EXPECT_TRUE(fusedAt(convRep(2, op, gs, p, zoff), t));
        Instruction shared = convRep(9, NduOp::GroupBcast, NduStride::S64,
                                     Pred::None, true, 2, 2);
        EXPECT_TRUE(fusedAt(shared, t));

        const Instruction base = convRep(576, NduOp::GroupBcast,
                                         NduStride::S64, Pred::None, true);
        auto rejects = [&](const char *what, auto change) {
            Instruction in = base;
            change(in);
            EXPECT_FALSE(fusedAt(in, t)) << what;
        };
        rejects("one rep", [](Instruction &in) { in.ctrl.imm = 1; });
        rejects("no Rep", [](Instruction &in) { in.ctrl.op = CtrlOp::None; });
        rejects("data post-increment",
                [](Instruction &in) { in.dataRead.postInc = true; });
        rejects("weight post-increment",
                [](Instruction &in) { in.weightRead.postInc = true; });
        rejects("write-back", [](Instruction &in) {
            in.write.enable = true;
            in.write.src = RowSrc::N2;
        });
        rejects("OUT op",
                [](Instruction &in) { in.out.op = OutOp::Requant8; });
        rejects("NDU0 without addrInc",
                [](Instruction &in) { in.ndu0.addrInc = false; });
        rejects("NDU1 without addrInc",
                [](Instruction &in) { in.ndu1.addrInc = false; });
        rejects("NDU0 Bypass",
                [](Instruction &in) { in.ndu0.op = NduOp::Bypass; });
        rejects("NDU1 GroupBcast",
                [](Instruction &in) { in.ndu1.op = NduOp::GroupBcast; });
        rejects("NDU0 from the weight row",
                [](Instruction &in) { in.ndu0.srcA = RowSrc::WeightRead; });
        rejects("one NDU destination",
                [](Instruction &in) { in.ndu1.dst = in.ndu0.dst; });
        rejects("i8 lanes",
                [](Instruction &in) { in.npu.type = LaneType::I8; });
        rejects("MacFwd", [](Instruction &in) { in.npu.op = NpuOp::MacFwd; });
        rejects("operands swapped", [](Instruction &in) {
            std::swap(in.npu.a, in.npu.b);
        });
        rejects("raw data row operand",
                [](Instruction &in) { in.npu.a = RowSrc::DataRead; });
    }
}

/**
 * Fused conv Reps against the interpreter, one program per shape: data
 * bytes wrapping past the row end, weight rows advancing, chunk
 * boundaries, S0/S64/S128/S256 group strides, WindowGather with
 * wrapping windows, every predicate, 2- and 3-tap and odd Reps, zero
 * offsets on and off, and address registers shared by both NDU slots.
 * Every Rep is checked to be on the fused path at every tier.
 */
TEST_F(FastPathDiff, FusedConvReps)
{
    Rng rng(88);
    seedState(rng);
    // Predicates from the random rows, zero offsets, clean accumulators.
    const std::vector<Instruction> prologue = {
        setAddrRow(0, 12), setAddrRow(1, 44),
        npuRR(NpuOp::CmpGtP0, LaneType::U8),
        npuRR(NpuOp::CmpGtP1, LaneType::I8), setZeroOff(0x1580),
        accZero()};
    auto runCase = [&](const char *what,
                       const std::vector<Instruction> &setup,
                       std::vector<Instruction> macs) {
        SCOPED_TRACE(what);
        std::vector<Instruction> prog = prologue;
        prog.insert(prog.end(), setup.begin(), setup.end());
        for (const Instruction &mac : macs) {
            for (Machine *m : specialized())
                EXPECT_TRUE(fusedAt(mac, m->simdTier()))
                    << m->execDescription();
            prog.push_back(mac);
        }
        prog.push_back(ctrlOnly(CtrlOp::Halt));
        runAll(prog);
        compareState(88);
    };
    const NduOp kGb = NduOp::GroupBcast, kWg = NduOp::WindowGather;

    runCase("3x3 conv, 576 taps", conv3x3Addressing(20, 0, 40),
            {convRep(576, kGb, NduStride::S64, Pred::None, true)});
    runCase("data bytes wrap past the row end",
            conv3x3Addressing(20, 4096 - 70, 40),
            {convRep(300, kGb, NduStride::S64, Pred::P0, true)});
    runCase("weight rows advance across chunks, odd tap count",
            conv3x3Addressing(20, 5, 40),
            {convRep(1101, kGb, NduStride::S64, Pred::NotP0, true)});
    runCase("stride-2 S128 gathers, both passes",
            conv3x3Addressing(22, 64, 50),
            {convRep(192, kGb, NduStride::S128, Pred::P0, true),
             convRep(192, kGb, NduStride::S128, Pred::NotP0, true)});
    runCase("S0 and S256 group strides", conv3x3Addressing(30, 100, 60),
            {convRep(64, kGb, NduStride::S0, Pred::P1, false),
             convRep(65, kGb, NduStride::S256, Pred::None, true)});

    // Depthwise: +64 bytes (one x) per tap and the next row every kw.
    const std::vector<Instruction> dw = {
        setAddrRow(0, 20), setAddrByte(0, 128), setAddrInc(0, 1, 64),
        setAddrWrap(0, 3),  setAddrRow(1, 40),   setAddrByte(1, 0),
        setAddrInc(1, 1, 64), setAddrWrap(1, 64)};
    runCase("WindowGather 3x3", dw,
            {convRep(9, kWg, NduStride::S64, Pred::None, true),
             convRep(3, kWg, NduStride::S64, Pred::P1, true)});
    std::vector<Instruction> dw_wrap = dw;
    dw_wrap[1] = setAddrByte(0, 4096 - 20);
    runCase("WindowGather windows wrap, S128", dw_wrap,
            {convRep(9, kWg, NduStride::S128, Pred::P0, true),
             convRep(2, kWg, NduStride::S128, Pred::None, false)});

    for (Pred p : {Pred::None, Pred::P0, Pred::P1, Pred::NotP0})
        runCase("every predicate", conv3x3Addressing(24, 3, 44),
                {convRep(37, kGb, NduStride::S64, p, true),
                 convRep(37, kWg, NduStride::S64, p, true)});

    runCase("2-tap and 3-tap Reps", conv3x3Addressing(26, 190, 46),
            {convRep(2, kGb, NduStride::S64, Pred::None, true),
             convRep(3, kGb, NduStride::S64, Pred::P0, true),
             convRep(2, kWg, NduStride::S64, Pred::NotP0, true),
             convRep(3, kWg, NduStride::S64, Pred::None, false)});

    std::vector<Instruction> zo = conv3x3Addressing(28, 11, 48);
    zo.push_back(setZeroOff(0xff80));
    std::vector<Instruction> zo_off = conv3x3Addressing(28, 11, 48);
    zo_off.push_back(setZeroOff(0x80ff));
    runCase("zero offsets 0xff80", zo,
            {convRep(200, kGb, NduStride::S64, Pred::None, true),
             convRep(7, kWg, NduStride::S64, Pred::None, true)});
    runCase("zero offsets set but off", zo_off,
            {convRep(200, kGb, NduStride::S64, Pred::None, false)});

    // All four slots on register 2: it steps twice per tap.
    runCase("one register for both reads and both NDU slots",
            {setAddrRow(2, 30), setAddrByte(2, 7), setAddrInc(2, 1, 1),
             setAddrWrap(2, 100)},
            {convRep(250, kGb, NduStride::S64, Pred::None, true, 2, 2)});
    // Reads on registers 0 and 1, both NDU slots on register 3.
    Instruction shared = convRep(150, kGb, NduStride::S64, Pred::P0, true);
    shared.ndu0.addrReg = 3;
    shared.ndu1.addrReg = 3;
    std::vector<Instruction> shared_setup = conv3x3Addressing(32, 0, 52);
    shared_setup.insert(shared_setup.end(),
                        {setAddrByte(3, 4000), setAddrInc(3, 0, 1),
                         setAddrWrap(3, 0)});
    runCase("NDU0 and NDU1 share one address register", shared_setup,
            {shared});
}

/**
 * The closed-form walk of a fused conv Rep's addressing
 * (Machine::execConvRepFast) against the interpreter, at every tier: it
 * splits a Rep into segments at either register's wraps, fills a
 * segment's weight windows straight from the row or window by window,
 * and widens GroupBcast data in runs that may cross segments and split
 * at the row end. Each case also checks which path its taps took: the
 * fused one, or the per-rep one for one address register shared by
 * both NDU slots.
 */
TEST_F(FastPathDiff, ClosedFormConvWalk)
{
    Rng rng(61);
    seedState(rng);
    const std::vector<Instruction> prologue = {
        setAddrRow(0, 12), setAddrRow(1, 44),
        npuRR(NpuOp::CmpGtP0, LaneType::U8), setZeroOff(0x2a91),
        accZero()};
    auto runCase = [&](const char *what,
                       const std::vector<Instruction> &setup,
                       std::vector<Instruction> macs, bool closed = true) {
        SCOPED_TRACE(what);
        std::vector<Instruction> prog = prologue;
        uint64_t taps = 0;
        for (const Instruction &in : setup) {
            prog.push_back(in);
            if (in.ctrl.op == CtrlOp::Rep)
                taps += in.ctrl.imm;
        }
        for (const Instruction &mac : macs) {
            for (Machine *m : specialized())
                EXPECT_TRUE(fusedAt(mac, m->simdTier()))
                    << m->execDescription();
            prog.push_back(mac);
            taps += mac.ctrl.imm;
        }
        prog.push_back(ctrlOnly(CtrlOp::Halt));
        std::vector<uint64_t> before;
        for (Machine *m : specialized())
            before.push_back(m->fusedConvTaps());
        runAll(prog);
        compareState(61);
        for (size_t i = 0; i < before.size(); ++i)
            EXPECT_EQ(tiers_[i]->fusedConvTaps() - before[i],
                      closed ? taps : 0);
    };
    const NduOp kGb = NduOp::GroupBcast, kWg = NduOp::WindowGather;

    // Data snaps every 37 taps and weights every 64: segments of 37,
    // 27, 10, 37, ... taps, so most start on an odd tap.
    runCase("segments starting on odd taps",
            {setAddrRow(0, 20), setAddrByte(0, 3), setAddrInc(0, 1, 1),
             setAddrWrap(0, 37), setAddrRow(1, 40), setAddrByte(1, 0),
             setAddrInc(1, 1, 64), setAddrWrap(1, 64)},
            {convRep(301, kGb, NduStride::S64, Pred::P0, true),
             convRep(41, kWg, NduStride::S64, Pred::None, true)});

    // A first Rep leaves both registers mid-wrap, so the second's
    // 64-tap weight segments end at taps 54, 118, ..., 566: one spans
    // the 512-tap chunk boundary.
    std::vector<Instruction> straddle = conv3x3Addressing(20, 0, 40);
    straddle.push_back(convRep(10, kGb, NduStride::S64, Pred::None, true));
    runCase("a segment across the chunk boundary", straddle,
            {convRep(1000, kGb, NduStride::S64, Pred::NotP0, true)});

    // byteInc -1 walks the data offsets below zero, one tap per run;
    // then +1 from a negative start runs to the row end and wraps.
    runCase("negative start bytes, data offsets wrapping the row end",
            {setAddrRow(0, 24), setAddrByte(0, 5), setAddrInc(0, 0, -1),
             setAddrWrap(0, 0), setAddrRow(1, 44), setAddrByte(1, 0),
             setAddrInc(1, 1, 64), setAddrWrap(1, 64),
             convRep(40, kGb, NduStride::S64, Pred::None, true),
             setAddrInc(0, 0, 1)},
            {convRep(100, kGb, NduStride::S128, Pred::P0, true),
             convRep(70, kWg, NduStride::S64, Pred::None, true)});

    // The first weight window crosses the row end; later ones wrap.
    runCase("weight windows crossing the row end",
            {setAddrRow(0, 20), setAddrByte(0, 9), setAddrInc(0, 1, 1),
             setAddrWrap(0, 192), setAddrRow(1, 40),
             setAddrByte(1, 4096 - 32), setAddrInc(1, 1, 64),
             setAddrWrap(1, 64)},
            {convRep(130, kGb, NduStride::S64, Pred::None, true)});

    Instruction strided = convRep(150, kGb, NduStride::S64, Pred::P0, true);
    strided.ndu1.param = uint8_t(NduStride::S2);
    Instruction bcast_w = convRep(20, kWg, NduStride::S64, Pred::None, true);
    bcast_w.ndu1.param = uint8_t(NduStride::S0);
    runCase("strided RepWindows", conv3x3Addressing(22, 17, 42),
            {strided, bcast_w});

    // The data row from register 4, which no NDU slot steps, and the
    // weight row from register 0, which NDU0 steps: weight rows then
    // advance with the data register's wraps.
    Instruction cross = convRep(200, kGb, NduStride::S64, Pred::None, true);
    cross.dataRead.reg = 4;
    cross.weightRead.reg = 0;
    std::vector<Instruction> cross_setup = conv3x3Addressing(30, 100, 40);
    cross_setup.insert(cross_setup.end(),
                       {setAddrRow(4, 26), setAddrWrap(0, 48)});
    runCase("read rows from registers the NDU slots do not pair with",
            cross_setup, {cross});

    // Depthwise addressing: data +64 bytes and never a new row.
    runCase("WindowGather over one row",
            {setAddrRow(0, 20), setAddrByte(0, 4096 - 200),
             setAddrInc(0, 1, 64), setAddrWrap(0, 0), setAddrRow(1, 40),
             setAddrByte(1, 0), setAddrInc(1, 1, 64), setAddrWrap(1, 64)},
            {convRep(90, kWg, NduStride::S64, Pred::NotP0, true)});

    // One register for both NDU slots steps twice per tap: per rep.
    Instruction shared = convRep(150, kGb, NduStride::S64, Pred::P0, true);
    shared.ndu0.addrReg = 3;
    shared.ndu1.addrReg = 3;
    std::vector<Instruction> shared_setup = conv3x3Addressing(32, 0, 52);
    shared_setup.insert(shared_setup.end(),
                        {setAddrByte(3, 4000), setAddrInc(3, 0, 1),
                         setAddrWrap(3, 0)});
    runCase("NDU0 and NDU1 share one address register", shared_setup,
            {shared}, false);
}

/**
 * AccZero and every AccLoadBias mode run on a bound plan kernel at every
 * tier and match the interpreter: Rep64 and the four quarter loads, and
 * the four AddQuarter modes over accumulators near both rails, so that
 * most lanes of each added quarter saturate.
 */
TEST_F(FastPathDiff, EveryBiasMode)
{
    const int rb = gen_.rowBytesInt();
    Rng rng(37);
    seedState(rng);
    std::vector<int32_t> seeds(rb);
    for (int i = 0; i < rb; ++i)
        seeds[i] = i % 2 ? INT32_MAX - int32_t(rng.nextBelow(1 << 30))
                         : INT32_MIN + int32_t(rng.nextBelow(1 << 30));
    writeAccSeeds(seeds, 60);

    Instruction zero = accZero();
    for (Machine *m : specialized())
        EXPECT_NE(planAt(zero, m->simdTier()).npuKernel, nullptr);
    for (int mode = int(BiasMode::Rep64); mode <= int(BiasMode::AddQuarter3);
         ++mode) {
        SCOPED_TRACE(testing::Message() << "bias mode " << mode);
        Instruction load;
        load.dataRead.enable = true;
        load.dataRead.reg = 2;
        load.npu.op = NpuOp::AccLoadBias;
        load.npu.a = RowSrc::DataRead;
        load.npu.b = RowSrc(mode);
        for (Machine *m : specialized())
            EXPECT_NE(planAt(load, m->simdTier()).npuKernel, nullptr)
                << m->execDescription();
        std::vector<Instruction> prog = {zero};
        const std::vector<Instruction> seed = loadAccQuarters(60);
        prog.insert(prog.end(), seed.begin(), seed.end());
        prog.push_back(setAddrRow(2, 44));
        prog.push_back(load);
        prog.push_back(ctrlOnly(CtrlOp::Halt));
        runAll(prog);
        compareState(37);

        if (!biasModeAccumulates(BiasMode(mode)))
            continue;
        const int quarter = rb / 4;
        const int q = mode - int(BiasMode::AddQuarter0);
        int rails = 0;
        for (int i = 0; i < quarter; ++i) {
            const int32_t v = gen_.accState()[size_t(q * quarter + i)];
            rails += v == INT32_MAX || v == INT32_MIN;
        }
        EXPECT_GT(rails, quarter / 4);
    }
}

/**
 * The saturation guard. Every byte is 0xff and the zero offsets are
 * off, so each tap adds exactly 255^2 to every lane. Accumulators one
 * over the guard's bound (max|acc| + reps * 255^2 <= INT32_MAX) must
 * take the per-rep path, which saturates at INT32_MAX where pairing
 * taps without saturation would wrap. On the bound the fused path
 * runs, and its largest lane lands exactly on INT32_MAX. A last case
 * makes a lane at INT32_MIN the only one over the bound.
 */
TEST_F(FastPathDiff, ConvRepSaturationGuard)
{
    const int rb = gen_.rowBytesInt();
    constexpr uint32_t kReps = 576;
    constexpr int32_t kReach = int32_t(kReps) * 255 * 255;
    Rng rng(99);
    seedState(rng);
    const std::vector<uint8_t> ones(rb, 0xff);
    for (int r = 20; r < 24; ++r)
        writeRowAll(false, r, ones.data());
    for (int r = 40; r < 50; ++r)
        writeRowAll(true, r, ones.data());
    const Instruction mac = convRep(kReps, NduOp::GroupBcast,
                                    NduStride::S64, Pred::None, false);
    for (Machine *m : specialized())
        ASSERT_TRUE(fusedAt(mac, m->simdTier())) << m->execDescription();

    // Accumulator seeds in data rows 60..63, one quarter per row; the
    // largest is `margin` over the bound.
    auto runCase = [&](int32_t margin) {
        SCOPED_TRACE(testing::Message() << "margin " << margin);
        const int32_t top = INT32_MAX - kReach + margin;
        std::vector<int32_t> seeds(rb);
        for (int32_t &v : seeds)
            v = top - int32_t(rng.nextBelow(1000));
        seeds[0] = top;
        writeAccSeeds(seeds, 60);
        std::vector<Instruction> prog = loadAccQuarters(60);
        for (const Instruction &in : conv3x3Addressing(20, 0, 40))
            prog.push_back(in);
        prog.push_back(mac);
        prog.push_back(ctrlOnly(CtrlOp::Halt));
        runAll(prog);
        compareState(99);
        return gen_.accState()[0];
    };
    EXPECT_EQ(runCase(1), INT32_MAX);   // Saturated on the per-rep path.
    EXPECT_EQ(runCase(0), INT32_MAX);   // Fused, exactly on the rail.
    EXPECT_EQ(runCase(-7), INT32_MAX - 7);

    // The deciding lane negative: data bytes 0 less the data zero
    // offset 255 make every tap add -255^2. Lane 0 sits at INT32_MIN,
    // whose |acc| of 2^31 fails the guard; every other lane is within
    // the bound and would pass it. A guard whose |acc| wraps INT32_MIN
    // to a negative value (vpabsd) would fuse, and lane 0 would wrap to
    // a positive sum instead of saturating.
    const std::vector<uint8_t> zeros(rb, 0);
    for (int r = 24; r < 28; ++r)
        writeRowAll(false, r, zeros.data());
    std::vector<int32_t> seeds(rb);
    for (int32_t &v : seeds)
        v = -(INT32_MAX - kReach) + int32_t(rng.nextBelow(1000));
    seeds[0] = INT32_MIN;
    seeds[1] = -(INT32_MAX - kReach);
    writeAccSeeds(seeds, 60);
    std::vector<Instruction> prog = loadAccQuarters(60);
    prog.push_back(setZeroOff(0xff00));
    for (const Instruction &in : conv3x3Addressing(24, 0, 40))
        prog.push_back(in);
    prog.push_back(convRep(kReps, NduOp::GroupBcast, NduStride::S64,
                           Pred::None, true));
    prog.push_back(ctrlOnly(CtrlOp::Halt));
    runAll(prog);
    compareState(99);
    EXPECT_EQ(gen_.accState()[0], INT32_MIN); // Saturated per rep.
    EXPECT_EQ(gen_.accState()[1], -INT32_MAX); // On the bound: no rail.
}

/**
 * The OUT requantize kernels at the edges of Requant::apply, at every
 * tier (the random programs draw shift -4..8, offset -128..255 and
 * multiplier >= 2^29, so they never get there). The accumulators hold
 * INT32_MIN, INT32_MAX, 0 and +-1 in every other lane and random
 * values of every magnitude in the rest. The entries take every shift
 * in -31..31 (the large left shifts saturate before the multiply),
 * multipliers 1, 2^30 and INT32_MAX, offsets +-INT32_MAX (satAdd32
 * saturates) and small ones, and a full-int32 or a narrow act range.
 * Requant8, Requant16 and ActOnly8 each run every entry, and every
 * result row is written to RAM, so each one is diffed.
 */
TEST_F(FastPathDiff, OutRequantEdgeRows)
{
    const int rb = gen_.rowBytesInt();
    Rng rng(55);
    seedState(rng);

    static constexpr int32_t kEdges[] = {INT32_MIN, INT32_MAX, 0, 1, -1};
    std::vector<int32_t> seeds(rb);
    for (int i = 0; i < rb; ++i)
        seeds[i] = i % 2 ? kEdges[(i / 2) % std::size(kEdges)]
                         : int32_t(rng.next64()) >> rng.nextBelow(32);
    writeAccSeeds(seeds, 60);

    static constexpr int32_t kMuls[] = {1, 1 << 30, INT32_MAX};
    static constexpr int32_t kOffsets[] = {INT32_MAX, -INT32_MAX, 0, -77,
                                           200};
    std::vector<RequantEntry> entries;
    for (int shift = -31; shift <= 31; ++shift) {
        for (int32_t mul : kMuls) {
            const int k = int(entries.size());
            RequantEntry e;
            e.rq.multiplier = mul;
            e.rq.shift = int8_t(shift);
            e.rq.offset = kOffsets[k % std::size(kOffsets)];
            const bool full = (k / std::size(kOffsets)) % 2 == 0;
            e.actMin = full ? INT32_MIN : -200;
            e.actMax = full ? INT32_MAX : 300;
            entries.push_back(e);
        }
    }
    ASSERT_LE(entries.size(), size_t(256));
    for (size_t i = 0; i < entries.size(); ++i)
        for (Machine *m : all())
            m->writeRequantEntry(int(i), entries[i]);

    // The entries drive Requant::apply onto both rails.
    int rails = 0;
    for (const RequantEntry &e : entries)
        for (int32_t x : kEdges) {
            const int32_t v = e.rq.apply(x);
            rails += v == INT32_MAX || v == INT32_MIN;
        }
    EXPECT_GT(rails, 0);

    // Result rows 64..127: one per entry, two for Requant16.
    for (OutOp op : {OutOp::Requant8, OutOp::Requant16, OutOp::ActOnly8}) {
        const int per_entry = op == OutOp::Requant16 ? 2 : 1;
        const size_t batch = size_t(64 / per_entry);
        for (size_t first = 0; first < entries.size(); first += batch) {
            SCOPED_TRACE(testing::Message() << "op " << int(op)
                                            << ", entries from " << first);
            std::vector<Instruction> prog = loadAccQuarters(60);
            prog.push_back(setAddrRow(3, 64));
            prog.push_back(setAddrInc(3, 1, 0));
            const size_t last = std::min(entries.size(), first + batch);
            for (size_t i = first; i < last; ++i) {
                Instruction out;
                out.out.op = op;
                out.out.rqIndex = uint8_t(i);
                out.write.enable = true;
                out.write.addrReg = 3;
                out.write.postInc = true;
                out.write.src = RowSrc::OutLo;
                prog.push_back(out);
                if (op == OutOp::Requant16) {
                    Instruction hi;
                    hi.write = out.write;
                    hi.write.src = RowSrc::OutHi;
                    prog.push_back(hi);
                }
            }
            prog.push_back(ctrlOnly(CtrlOp::Halt));
            runAll(prog);
            compareState(55);
        }
    }
}

/**
 * The K-split FC's fold (nkl emitFc): CopyAcc32 copies one accumulator
 * quarter to OutLo, and AccLoadBias in an AddQuarter mode adds int32
 * words into another quarter, from OutLo in the same instruction as the
 * next copy (NPU before OUT) or from a RAM row. Under Rep the add runs
 * once per repetition, and the random words drive lanes onto the
 * rails. Every engine matches the interpreter.
 */
TEST_F(FastPathDiff, AccumulatingBiasModes)
{
    Rng rng(23);
    seedState(rng);
    std::vector<Instruction> prog;
    for (int q = 0; q < 4; ++q) {
        prog.push_back(setAddrRow(2, 40 + q));
        Instruction load;
        load.dataRead.enable = true;
        load.dataRead.reg = 2;
        load.npu.op = NpuOp::AccLoadBias;
        load.npu.a = RowSrc::DataRead;
        load.npu.b = RowSrc(int(BiasMode::Quarter0) + q);
        prog.push_back(load);
    }
    auto fold = [&](int add_into, OutOp next, int next_param) {
        Instruction f;
        if (add_into >= 0) {
            f.npu.op = NpuOp::AccLoadBias;
            f.npu.a = RowSrc::OutLo;
            f.npu.b = RowSrc(int(BiasMode::AddQuarter0) + add_into);
        }
        f.out.op = next;
        f.out.param = uint8_t(next_param);
        prog.push_back(f);
    };
    fold(-1, OutOp::CopyAcc32, 2);
    fold(0, OutOp::CopyAcc32, 3);
    fold(1, OutOp::CopyAcc32, 1);
    fold(0, OutOp::Requant8, 0);
    prog.push_back(setAddrRow(2, 44));
    Instruction rep;
    rep.ctrl.op = CtrlOp::Rep;
    rep.ctrl.imm = 3;
    rep.dataRead.enable = true;
    rep.dataRead.reg = 2;
    rep.npu.op = NpuOp::AccLoadBias;
    rep.npu.a = RowSrc::DataRead;
    rep.npu.b = RowSrc(int(BiasMode::AddQuarter2));
    prog.push_back(rep);
    prog.push_back(ctrlOnly(CtrlOp::Halt));
    runAll(prog);
    compareState(23);

    // Quarter 2 kept its load through the fold, then took row 44's
    // words three times, saturating.
    const int quarter = gen_.rowBytesInt() / 4;
    std::vector<int32_t> base(static_cast<size_t>(quarter));
    std::vector<int32_t> add(static_cast<size_t>(quarter));
    gen_.hostReadRow(false, 42, reinterpret_cast<uint8_t *>(base.data()));
    gen_.hostReadRow(false, 44, reinterpret_cast<uint8_t *>(add.data()));
    int rails = 0;
    for (int i = 0; i < quarter; ++i) {
        int32_t want = base[size_t(i)];
        for (int r = 0; r < 3; ++r)
            want = satAdd32(want, add[size_t(i)]);
        ASSERT_EQ(gen_.accState()[size_t(2 * quarter + i)], want) << i;
        rails += want == INT32_MAX || want == INT32_MIN;
    }
    EXPECT_GT(rails, 0);
}

/** The same engines with ECC modeled in both SRAM banks. */
class FastPathDiffEcc : public FastPathDiff
{
  protected:
    FastPathDiffEcc() : FastPathDiff(true) {}
};

/**
 * An uncorrectable row is counted on every read, so a Rep that reads
 * it N times counts N: a conv-shaped Rep over ECC-modeled banks leaves
 * the fused path for the per-rep one.
 */
TEST_F(FastPathDiffEcc, UncorrectableRowsCountPerRead)
{
    Rng rng(77);
    seedState(rng);
    for (Machine *m : all()) {
        m->dataRam().flipBit(20, 3); // Two bits of granule 0.
        m->dataRam().flipBit(20, 9);
        m->weightRam().flipBit(41, 100); // Two bits of granule 1.
        m->weightRam().flipBit(41, 101);
        m->weightRam().flipBit(40, 5000); // One bit: corrected once.
    }
    std::vector<Instruction> prog = {setAddrRow(0, 20), setAddrRow(1, 40)};
    Instruction invariant = npuRR(NpuOp::Mac, LaneType::U8, Pred::None, true);
    invariant.ctrl.op = CtrlOp::Rep;
    invariant.ctrl.imm = 5;
    prog.push_back(invariant);
    // 128 taps on data row 20; weight rows 40 then 41, 64 taps each.
    for (const Instruction &in : conv3x3Addressing(20, 0, 40))
        prog.push_back(in);
    const Instruction mac =
        convRep(128, NduOp::GroupBcast, NduStride::S64, Pred::None, true);
    for (Machine *m : specialized())
        ASSERT_TRUE(fusedAt(mac, m->simdTier())) << m->execDescription();
    prog.push_back(mac);
    prog.push_back(ctrlOnly(CtrlOp::Halt));
    runAll(prog);

    // ECC-modeled banks count every read, so the Rep ran per rep.
    for (Machine *m : specialized())
        EXPECT_EQ(m->fusedConvTaps(), 0u) << m->execDescription();
    // Before compareState, whose host row reads scrub too.
    for (Machine *m : all()) {
        SCOPED_TRACE(m->execDescription());
        EXPECT_EQ(m->dataRam().eccStats().uncorrectable, 5u + 128u);
        EXPECT_EQ(m->weightRam().eccStats().uncorrectable, 64u);
        EXPECT_EQ(m->weightRam().eccStats().corrected, 1u);
        EXPECT_EQ(m->dataRam().eccStats().corrected, 0u);
    }
    compareState(77);
}

} // namespace
} // namespace ncore
