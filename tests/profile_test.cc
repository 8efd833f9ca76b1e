/**
 * @file
 * Microarchitectural profiler tests (telemetry/profile.h):
 *  - cycle conservation: the profiler's exclusive buckets sum exactly
 *    to the Machine's cycle counter over the attached window, for
 *    synthetic programs and all four benchmark workloads, and its
 *    per-step tally matches every perf counter the Machine keeps over
 *    a MobileNet-V1 and a ResNet-50 inference;
 *  - engine bit-identity: every stall bucket, slot counter and RAM
 *    counter is identical between the generic interpreter and the
 *    specialized fast path (the hook sits in their shared step());
 *  - 100% attribution: the runtime's host marks plus the compiler's
 *    layer events leave no unattributed cycles on any workload;
 *  - renderer goldens: text() and json() are byte-stable;
 *  - the serve latency histogram (Prometheus histogram series).
 */

#include <cmath>
#include <cstdio>
#include <cstring>

#include <gtest/gtest.h>

#include "gcl/compiler.h"
#include "isa/encoding.h"
#include "mlperf/profiles.h"
#include "models/gnmt.h"
#include "models/zoo.h"
#include "runtime/device.h"
#include "serve/engine.h"

namespace ncore {
namespace {

uint64_t
bucketSum(const ProfileCounters &c)
{
    uint64_t sum = 0;
    for (uint64_t b : c.buckets)
        sum += b;
    return sum;
}

// ---------------- Conservation through the full stack ----------------

/**
 * Profile one inference of `g` through the full stack and check every
 * PerfCounters field the Machine counted over it against the
 * profiler's own per-step tally. Returns that tally.
 */
ProfileCounters
checkInvokeConservation(Graph g)
{
    NcoreDevice dev(LoadedModel::create(compile(std::move(g))));
    Machine &machine = dev.machine;

    const Graph &graph = dev.runtime.model()->graph;
    const GirTensor &ti = graph.tensor(graph.inputs()[0]);
    Tensor x(ti.shape, DType::UInt8, ti.quant);
    Rng rng(2020);
    x.fillRandom(rng);

    CycleProfile prof;
    const PerfCounters p0 = machine.perf();
    machine.setProfile(&prof);
    dev.exec.infer({x});
    machine.setProfile(nullptr);
    const PerfCounters &p1 = machine.perf();
    const ProfileCounters &c = prof.counters();
    auto issued = [&](IssueSlot s) { return c.slotIssued[size_t(s)]; };

    EXPECT_GT(prof.cycles(), 0u);
    EXPECT_EQ(prof.cycles(), p1.cycles - p0.cycles);
    EXPECT_EQ(bucketSum(c), p1.cycles - p0.cycles);
    EXPECT_EQ(c.instructions, p1.instructions - p0.instructions);
    EXPECT_EQ(c.macOps, p1.macOps - p0.macOps);
    EXPECT_EQ(issued(IssueSlot::Ndu0) + issued(IssueSlot::Ndu1),
              p1.nduOps - p0.nduOps);
    EXPECT_EQ(c.ramReads[0] + c.ramReads[1], p1.ramReads - p0.ramReads);
    EXPECT_EQ(c.ramWrites[0] + c.ramWrites[1],
              p1.ramWrites - p0.ramWrites);
    EXPECT_EQ(c.buckets[size_t(CycleBucket::DmaFenceStall)],
              p1.dmaFenceStalls - p0.dmaFenceStalls);

    // The double-buffered IRAM and the OUT stage never stall — the
    // paper's IV-C claim as a measured number.
    EXPECT_EQ(c.buckets[size_t(CycleBucket::IramSwapWait)], 0u);
    EXPECT_EQ(c.buckets[size_t(CycleBucket::OutBackpressure)], 0u);
    return c;
}

TEST(ProfileConservationTest, MobileNetInvokeSumsToMachineCycles)
{
    checkInvokeConservation(buildMobileNetV1());
}

TEST(ProfileConservationTest, ResNet50InvokeSumsToMachineCycles)
{
    // ResNet-50 streams weights, so its fence-stall counter is live.
    const ProfileCounters c = checkInvokeConservation(buildResNet50V15());
    EXPECT_GT(c.buckets[size_t(CycleBucket::DmaFenceStall)], 0u);
}

// ---------------- Engine bit-identity ----------------

/** Synthetic program covering every bucket source: DMA-fence stalls
 *  against a real in-flight transfer, Rep bodies, empty hardware
 *  loops, multi-cycle bf16 NPU work and device Event marks. */
struct SyntheticRun
{
    explicit SyntheticRun(ExecEngine engine)
        : m(chaNcoreConfig(), chaSocConfig(), nullptr, false, {engine})
    {
        m.setProfile(&prof);
        // 64 rows of streamable bytes in DRAM for the DMA stall.
        const size_t bytes = 64 * 4096;
        std::vector<uint8_t> img(bytes);
        for (size_t i = 0; i < bytes; ++i)
            img[i] = uint8_t(i * 131 + 7);
        uint64_t addr = m.sysmem().allocate(bytes);
        m.sysmem().write(addr, img.data(), img.size());
        DmaDescriptor d;
        d.toNcore = true;
        d.weightRam = true;
        d.ramRow = 200;
        d.rowCount = 64;
        d.sysAddr = addr;
        d.queue = 0;
        m.dma().setDescriptor(0, d);

        std::vector<Instruction> prog;
        auto ctrl = [&](CtrlOp op, uint32_t imm = 0, uint8_t reg = 0) {
            Instruction in;
            in.ctrl.op = op;
            in.ctrl.imm = imm;
            in.ctrl.reg = reg;
            prog.push_back(in);
        };
        ctrl(CtrlOp::SetAddrRow, 16, 0);
        ctrl(CtrlOp::DmaKick, 0);
        ctrl(CtrlOp::Event, (1u << 2) | 1);
        ctrl(CtrlOp::DmaFence, 0, 0); // Stalls: transfer in flight.

        Instruction rep;
        rep.ctrl.op = CtrlOp::Rep;
        rep.ctrl.imm = 8;
        rep.dataRead.enable = true;
        rep.dataRead.reg = 0;
        rep.npu.op = NpuOp::Mac;
        rep.npu.type = LaneType::I8;
        rep.npu.a = RowSrc::DataRead;
        rep.npu.b = RowSrc::DataRead;
        prog.push_back(rep);

        ctrl(CtrlOp::LoopBegin, 4, 1); // Empty body: loop overhead.
        Instruction bf;
        bf.dataRead.enable = true;
        bf.dataRead.reg = 0;
        bf.npu.op = NpuOp::Mac; // bf16: 3 clocks (1 issue + 2 stretch).
        bf.npu.type = LaneType::BF16;
        bf.npu.a = RowSrc::DataRead;
        bf.npu.b = RowSrc::DataRead;
        prog.push_back(bf);
        ctrl(CtrlOp::LoopEnd, 0, 1);

        ctrl(CtrlOp::Event, (1u << 2) | 2);
        ctrl(CtrlOp::Halt);

        std::vector<EncodedInstruction> enc;
        for (const Instruction &in : prog)
            enc.push_back(encodeInstruction(in));
        m.writeIram(0, enc);
        m.start(0);
        RunResult res = m.run(1 << 22);
        EXPECT_EQ(int(res.reason), int(StopReason::Halted));
        m.setProfile(nullptr);
    }

    CycleProfile prof;
    Machine m;
};

TEST(ProfileEngineIdentityTest, SyntheticProgramAllCountersBitIdentical)
{
    SyntheticRun fast(ExecEngine::Specialized);
    SyntheticRun gen(ExecEngine::Generic);

    // Every field of the counter set — buckets, slots, RAM counters,
    // MACs — must match bit-for-bit across engines.
    EXPECT_EQ(fast.prof.counters(), gen.prof.counters());

    // Mark streams match too (same tags at the same cycles with the
    // same cumulative snapshots).
    ASSERT_EQ(fast.prof.marks().size(), gen.prof.marks().size());
    for (size_t i = 0; i < fast.prof.marks().size(); ++i) {
        const ProfileMark &a = fast.prof.marks()[i];
        const ProfileMark &b = gen.prof.marks()[i];
        EXPECT_EQ(a.tag, b.tag);
        EXPECT_EQ(a.cycle, b.cycle);
        EXPECT_EQ(a.at, b.at);
    }

    // The program exercises every non-trivially-zero bucket...
    const ProfileCounters &c = fast.prof.counters();
    EXPECT_GT(c.buckets[size_t(CycleBucket::Issue)], 0u);
    EXPECT_GT(c.buckets[size_t(CycleBucket::NpuStretch)], 0u);
    EXPECT_GT(c.buckets[size_t(CycleBucket::CtrlSetup)], 0u);
    EXPECT_GT(c.buckets[size_t(CycleBucket::LoopOverhead)], 0u);
    EXPECT_GT(c.buckets[size_t(CycleBucket::DmaFenceStall)], 0u);
    // ...and conserves cycles on both engines.
    EXPECT_EQ(fast.prof.cycles(), fast.m.cycles());
    EXPECT_EQ(gen.prof.cycles(), gen.m.cycles());

    // The bf16 loop: 4 iterations x (1 issue + 2 stretch).
    EXPECT_EQ(c.buckets[size_t(CycleBucket::NpuStretch)], 8u);
    // Rep(8) I8 MACs + 4 bf16 MACs, 4096 lanes each.
    EXPECT_EQ(c.macOps, uint64_t(12) * 4096);
    // LoopBegin + LoopEnd(x4 executions? counted as retired reps).
    EXPECT_GT(c.slotIssued[size_t(IssueSlot::Npu)], 0u);
    EXPECT_EQ(c.slotIssued[size_t(IssueSlot::Npu)], 12u);
    EXPECT_EQ(c.slotIssued[size_t(IssueSlot::DataRead)], 12u);
    EXPECT_EQ(c.ramReads[0], 12u);
}

TEST(ProfileEngineIdentityTest, GnmtMatmulsBitIdentical)
{
    // One Gnmt stages its weight images into each machine's own DRAM.
    Gnmt gnmt;
    Machine fast(chaNcoreConfig(), chaSocConfig(), nullptr, false,
                 {ExecEngine::Specialized});
    Machine gen(chaNcoreConfig(), chaSocConfig(), nullptr, false,
                {ExecEngine::Generic});
    CycleProfile pf, pg;
    fast.setProfile(&pf);
    gen.setProfile(&pg);
    Gnmt::RunStats sf = gnmt.runOnNcore(fast, 2, 2);
    Gnmt::RunStats sg = gnmt.runOnNcore(gen, 2, 2);
    fast.setProfile(nullptr);
    gen.setProfile(nullptr);

    EXPECT_EQ(pf.counters(), pg.counters());
    EXPECT_EQ(sf.outputDigest, sg.outputDigest);
    EXPECT_EQ(pf.cycles(), fast.cycles());
    EXPECT_EQ(pg.cycles(), gen.cycles());
    ASSERT_EQ(pf.marks().size(), pg.marks().size());
    for (size_t i = 0; i < pf.marks().size(); ++i) {
        EXPECT_EQ(pf.marks()[i].name, pg.marks()[i].name);
        EXPECT_EQ(pf.marks()[i].cycle, pg.marks()[i].cycle);
        EXPECT_EQ(pf.marks()[i].at, pg.marks()[i].at);
    }
}

// ---------------- Full attribution on the benchmark workloads --------

void
checkFullAttribution(Workload w)
{
    ProfileReport rep = profileWorkloadReport(w);
    EXPECT_GT(rep.totals.cycles(), 0u);
    EXPECT_EQ(rep.unattributedCycles, 0u)
        << "profiler left cycles unclaimed for " << workloadName(w);
    uint64_t sum = 0;
    for (const LayerProfile &row : rep.rows)
        sum += row.cycles();
    EXPECT_EQ(sum, rep.totals.cycles())
        << "per-layer cycles do not cover the total for "
        << workloadName(w);
    EXPECT_FALSE(rep.rows.empty());
}

TEST(ProfileAttributionTest, MobileNetV1FullyAttributed)
{
    checkFullAttribution(Workload::MobileNetV1);
}

TEST(ProfileAttributionTest, IdenticalLayersGetIdenticalCounters)
{
    // MobileNet's block7..block11 pointwise convs run one program on
    // one shape. Some of them end an IRAM bank, whose refill re-decodes
    // the slot of the instruction just retired; its counters must still
    // go to that instruction.
    ProfileReport rep = profileWorkloadReport(Workload::MobileNetV1);
    std::vector<const LayerProfile *> pw;
    for (const char *name : {"block7/pw", "block8/pw", "block9/pw",
                             "block10/pw", "block11/pw"})
        for (const LayerProfile &row : rep.rows)
            if (row.name == name)
                pw.push_back(&row);
    ASSERT_EQ(pw.size(), 5u);
    for (const LayerProfile *row : pw) {
        EXPECT_EQ(row->d, pw[0]->d) << row->name;
        // Dense rows: 4 position blocks x 8 output blocks, one Rep of
        // 512 taps each.
        EXPECT_EQ(row->d.macOps, 512ull * 4 * 8 * 4096) << row->name;
        EXPECT_EQ(row->usefulMacs, 14ull * 14 * 512 * 512) << row->name;
    }
}

TEST(ProfileAttributionTest, ResNet50FullyAttributed)
{
    checkFullAttribution(Workload::ResNet50);
}

TEST(ProfileAttributionTest, SsdMobileNetFullyAttributed)
{
    checkFullAttribution(Workload::SsdMobileNet);
}

TEST(ProfileAttributionTest, GnmtFullyAttributed)
{
    checkFullAttribution(Workload::Gnmt);
}

TEST(ProfileAttributionTest, GnmtMatmulsCountUsefulMacs)
{
    // GNMT's matmuls are graph-less Ncore programs: each scope carries
    // its K*N MACs per enter, so the roofline counts them as useful
    // work under the program row kind rather than as host time.
    ProfileReport rep = profileWorkloadReport(Workload::Gnmt);
    uint64_t sum = 0;
    for (const LayerProfile &row : rep.rows) {
        SCOPED_TRACE(row.name);
        int k = 0, n = 0;
        ASSERT_EQ(std::sscanf(row.name.c_str(), "matmul_%dx%d", &k, &n),
                  2);
        EXPECT_EQ(row.kind, kProgramKind);
        EXPECT_EQ(row.usefulMacs, uint64_t(k) * uint64_t(n) * row.enters);
        EXPECT_LE(row.usefulMacs, row.d.macOps);
        EXPECT_GT(row.usefulMacPct, 0.0);
        sum += row.usefulMacs;
    }
    EXPECT_EQ(rep.usefulMacs, sum);
    EXPECT_GT(sum, 0u);
}

TEST(ProfileReportTest, ProgramMarksCarryUsefulMacs)
{
    // A begin mark's MACs add up per enter; a mark without MACs stays
    // a host row with none.
    CycleProfile prof;
    prof.attach(4096, 0, 0);
    Instruction mac;
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::I8;
    for (int i = 0; i < 2; ++i) {
        prof.hostMark("matmul_2x3", true, 0, 0, 0, 6);
        prof.onStep(mac, 1, 1, 0);
        prof.hostMark("matmul_2x3", false, 0, 0, 0);
    }
    prof.hostMark("setup", true, 0, 0, 0);
    prof.onStep(mac, 1, 1, 0);
    prof.hostMark("setup", false, 0, 0, 0);
    ProfileReport rep = buildProfileReport(prof, nullptr, "m", 2.5e9);

    ASSERT_EQ(rep.rows.size(), 2u);
    const LayerProfile &mm = rep.rows[0];
    EXPECT_EQ(mm.name, "matmul_2x3");
    EXPECT_EQ(mm.kind, kProgramKind);
    EXPECT_EQ(mm.enters, 2u);
    EXPECT_EQ(mm.usefulMacs, 12u);
    EXPECT_DOUBLE_EQ(mm.usefulMacPct, 100.0 * 12 / (2 * 4096));
    EXPECT_EQ(rep.rows[1].kind, kHostKind);
    EXPECT_EQ(rep.rows[1].usefulMacs, 0u);
    EXPECT_EQ(rep.usefulMacs, 12u);
    EXPECT_NE(rep.text().find("matmul_2x3 (ncore program) x2"),
              std::string::npos);
}

// ---------------- Renderer goldens ----------------

constexpr const char kGoldenText[] =
    "ncore profile: golden  (row 4096 B, clock 2.5e+09 Hz)\n"
    "  cycles 25 (0.000 ms)  instructions 7  mac lanes 20480 "
    "(20.0% of peak)\n"
    "  useful macs 0 (0.0% of peak, 0.0% of mac lanes)\n"
    "  dma bytes: 4096 in, 0 out\n"
    "  cycle buckets:\n"
    "    issue                       5   20.00%\n"
    "    npu_stretch                 2    8.00%\n"
    "    ctrl_setup                  2    8.00%\n"
    "    loop_overhead               0    0.00%\n"
    "    dma_fence_stall            16   64.00%\n"
    "    iram_swap_wait              0    0.00%\n"
    "    out_backpressure            0    0.00%\n"
    "  slot occupancy (% of retired instructions): ctrl 85.7%, "
    "data_read 57.1%, weight_read 0.0%, ndu0 0.0%, ndu1 0.0%, "
    "npu 71.4%, out 0.0%, write 0.0%\n"
    "  ram rows: data 4r/0w (0 conflicts), weight 0r/0w "
    "(0 conflicts)\n"
    "  per-layer roofline (cycles desc):\n"
    "          cycles    %cyc   mac%   use%   dram_KiB   sram_KiB  "
    "layer\n"
    "              24  96.00%  20.8%   0.0%        4.0       16.0  "
    "stage (host) x1\n"
    "               1   4.00%   0.0%   0.0%        0.0        0.0  "
    "(unattributed) (overhead) x0\n"
    "  unattributed: 1 cycles\n";

constexpr const char kGoldenJson[] =
    "{\n"
    "  \"model\": \"golden\",\n"
    "  \"clock_hz\": 2.5e+09,\n"
    "  \"row_bytes\": 4096,\n"
    "  \"total_cycles\": 25,\n"
    "  \"unattributed_cycles\": 1,\n"
    "  \"instructions\": 7,\n"
    "  \"mac_ops\": 20480,\n"
    "  \"mac_util_pct\": 20.000,\n"
    "  \"useful_macs\": 0,\n"
    "  \"useful_mac_pct\": 0.000,\n"
    "  \"dma_bytes_read\": 4096,\n"
    "  \"dma_bytes_written\": 0,\n"
    "  \"buckets\": {\n"
    "    \"issue\": 5,\n"
    "    \"npu_stretch\": 2,\n"
    "    \"ctrl_setup\": 2,\n"
    "    \"loop_overhead\": 0,\n"
    "    \"dma_fence_stall\": 16,\n"
    "    \"iram_swap_wait\": 0,\n"
    "    \"out_backpressure\": 0\n"
    "  },\n"
    "  \"slot_issue\": {\n"
    "    \"ctrl\": 6,\n"
    "    \"data_read\": 4,\n"
    "    \"weight_read\": 0,\n"
    "    \"ndu0\": 0,\n"
    "    \"ndu1\": 0,\n"
    "    \"npu\": 5,\n"
    "    \"out\": 0,\n"
    "    \"write\": 0\n"
    "  },\n"
    "  \"ram\": {\n"
    "    \"data_reads\": 4,\n"
    "    \"data_writes\": 0,\n"
    "    \"data_conflicts\": 0,\n"
    "    \"weight_reads\": 0,\n"
    "    \"weight_writes\": 0,\n"
    "    \"weight_conflicts\": 0\n"
    "  },\n"
    "  \"layers\": [\n"
    "    {\n"
    "      \"name\": \"stage\",\n"
    "      \"kind\": \"host\",\n"
    "      \"node\": -1,\n"
    "      \"enters\": 1,\n"
    "      \"cycles\": 24,\n"
    "      \"cycles_pct\": 96.000,\n"
    "      \"mac_ops\": 20480,\n"
    "      \"mac_util_pct\": 20.833,\n"
    "      \"useful_macs\": 0,\n"
    "      \"useful_mac_pct\": 0.000,\n"
    "      \"dram_bytes\": 4096,\n"
    "      \"sram_bytes\": 16384,\n"
    "      \"dma_fence_stall_cycles\": 16,\n"
    "      \"buckets\": {\n"
    "        \"issue\": 5,\n"
    "        \"npu_stretch\": 2,\n"
    "        \"ctrl_setup\": 1,\n"
    "        \"loop_overhead\": 0,\n"
    "        \"dma_fence_stall\": 16,\n"
    "        \"iram_swap_wait\": 0,\n"
    "        \"out_backpressure\": 0\n"
    "      }\n"
    "    },\n"
    "    {\n"
    "      \"name\": \"(unattributed)\",\n"
    "      \"kind\": \"overhead\",\n"
    "      \"node\": -1,\n"
    "      \"enters\": 0,\n"
    "      \"cycles\": 1,\n"
    "      \"cycles_pct\": 4.000,\n"
    "      \"mac_ops\": 0,\n"
    "      \"mac_util_pct\": 0.000,\n"
    "      \"useful_macs\": 0,\n"
    "      \"useful_mac_pct\": 0.000,\n"
    "      \"dram_bytes\": 0,\n"
    "      \"sram_bytes\": 0,\n"
    "      \"dma_fence_stall_cycles\": 0,\n"
    "      \"buckets\": {\n"
    "        \"issue\": 0,\n"
    "        \"npu_stretch\": 0,\n"
    "        \"ctrl_setup\": 1,\n"
    "        \"loop_overhead\": 0,\n"
    "        \"dma_fence_stall\": 0,\n"
    "        \"iram_swap_wait\": 0,\n"
    "        \"out_backpressure\": 0\n"
    "      }\n"
    "    }\n"
    "  ]\n"
    "}\n";

/** A hand-driven profile with every bucket populated: 24 attributed
 *  cycles inside a "stage" host scope, one trailing halt cycle
 *  unattributed. */
ProfileReport
goldenReport()
{
    CycleProfile prof;
    prof.attach(4096, 0, 0);
    prof.hostMark("stage", true, 0, 0, 0);

    Instruction mac;
    mac.ctrl.op = CtrlOp::Rep;
    mac.ctrl.imm = 4;
    mac.dataRead.enable = true;
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::I8;
    prof.onStep(mac, 4, 1, 0); // 4 issue cycles.

    Instruction bf;
    bf.npu.op = NpuOp::Mac;
    bf.npu.type = LaneType::BF16;
    prof.onStep(bf, 1, 3, 0); // 1 issue + 2 stretch.

    Instruction fence;
    fence.ctrl.op = CtrlOp::DmaFence;
    prof.onStep(fence, 1, 1, 16); // 16 stall + 1 ctrl.

    prof.hostMark("stage", false, 24, 4096, 0);

    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prof.onStep(halt, 1, 1, 0); // 1 ctrl cycle, outside every scope.
    prof.syncDma(4096, 0);

    return buildProfileReport(prof, nullptr, "golden", 2.5e9);
}

TEST(ProfileReportTest, GoldenStructure)
{
    ProfileReport rep = goldenReport();
    EXPECT_EQ(rep.totals.cycles(), 25u);
    EXPECT_EQ(rep.unattributedCycles, 1u);
    ASSERT_EQ(rep.rows.size(), 2u);
    EXPECT_EQ(rep.rows[0].name, "stage");
    EXPECT_EQ(rep.rows[0].cycles(), 24u);
    EXPECT_EQ(rep.rows[1].name, "(unattributed)");
    EXPECT_EQ(rep.rows[1].cycles(), 1u);
    EXPECT_EQ(rep.rows[0].dramBytes, 4096u);
    EXPECT_EQ(rep.totals.macOps, uint64_t(5) * 4096);
}

TEST(ProfileReportTest, TextGolden)
{
    ProfileReport rep = goldenReport();
    EXPECT_EQ(rep.text(), std::string(kGoldenText));
}

TEST(ProfileReportTest, JsonGolden)
{
    ProfileReport rep = goldenReport();
    EXPECT_EQ(rep.json(), std::string(kGoldenJson));
}

TEST(ProfileReportTest, EngineFieldRenderedWhenSet)
{
    // profileWorkloadReport / ServeEngine::profileSample stamp the
    // Machine's execDescription() so rendered reports say which
    // engine and SIMD kernel tier produced them; an empty engine
    // (hand-built reports, the goldens above) omits the line.
    ProfileReport rep = goldenReport();
    rep.engine = "specialized/avx2";
    EXPECT_NE(rep.text().find("exec engine: specialized/avx2\n"),
              std::string::npos);
    EXPECT_NE(rep.json().find("\"engine\": \"specialized/avx2\""),
              std::string::npos);
}

// ---------------- Serve latency histogram ----------------

TEST(ProfileHistogramTest, CumulativeBucketsSumAndCount)
{
    Stats s;
    const auto &bounds = stats::serveLatencyBounds();
    stats::observeHistogram(s, stats::kServeQueryLatency, bounds,
                            0.0004);
    stats::observeHistogram(s, stats::kServeQueryLatency, bounds,
                            0.003);
    stats::observeHistogram(s, stats::kServeQueryLatency, bounds,
                            10.0); // Only the +Inf bucket admits it.

    auto bucket = [&](double ub) {
        return s.counter(
            stats::histogramBucketName(stats::kServeQueryLatency, ub));
    };
    EXPECT_EQ(bucket(0.0005), 1u);
    EXPECT_EQ(bucket(0.0025), 1u);
    EXPECT_EQ(bucket(0.005), 2u);  // Cumulative: 0.0004 and 0.003.
    EXPECT_EQ(bucket(2.5), 2u);
    EXPECT_EQ(bucket(INFINITY), 3u);
    EXPECT_EQ(s.counter(std::string(stats::kServeQueryLatency) +
                        "_count"),
              3u);
    EXPECT_NEAR(s.value(std::string(stats::kServeQueryLatency) +
                        "_sum"),
                10.0034, 1e-9);

    // Exposition: one histogram TYPE line, no TYPE for _sum/_count.
    std::string text = prometheusText(s);
    EXPECT_NE(text.find("# TYPE serve_query_latency_seconds histogram"),
              std::string::npos);
    EXPECT_EQ(text.find("# TYPE serve_query_latency_seconds_sum"),
              std::string::npos);
    EXPECT_EQ(text.find("# TYPE serve_query_latency_seconds_count"),
              std::string::npos);
}

// Small conv net (mirrors serve_test's): fast to compile and run.
Graph
buildTinyNet(Rng &rng)
{
    GraphBuilder gb("profnet");
    QuantParams act = chooseAsymmetricUint8(-1.0f, 1.0f);
    TensorId x = gb.input("x", Shape{1, 8, 8, 16}, DType::UInt8, act);
    QuantParams w_qp{0.02f, 128};
    Tensor w(Shape{32, 3, 3, 16}, DType::UInt8, w_qp);
    w.fillRandom(rng);
    Tensor b(Shape{32}, DType::Int32);
    for (int i = 0; i < 32; ++i)
        b.setIntAt(i, int32_t(rng.nextRange(-1000, 1000)));
    TensorId c1 = gb.conv2d("c1", x, gb.constant("c1:w", w, w_qp),
                            gb.constant("c1:b", b), 1, 1, 1, 1, 1, 1,
                            ActFn::Relu,
                            chooseAsymmetricUint8(-2.0f, 2.0f));
    TensorId gap = gb.avgPool2d("gap", c1, 8, 8, 1, 1, 0, 0, 0, 0);
    TensorId flat = gb.reshape("flat", gap, Shape{1, 32});
    QuantParams fw_qp{0.01f, 125};
    Tensor fw(Shape{10, 32}, DType::UInt8, fw_qp);
    fw.fillRandom(rng);
    Tensor fb(Shape{10}, DType::Int32);
    for (int i = 0; i < 10; ++i)
        fb.setIntAt(i, int32_t(rng.nextRange(-3000, 3000)));
    TensorId fc = gb.fullyConnected("fc", flat,
                                    gb.constant("fw", fw, fw_qp),
                                    gb.constant("fb", fb), ActFn::None,
                                    chooseAsymmetricUint8(-2.0f, 2.0f));
    gb.output(fc);
    return gb.take();
}

TEST(ProfileHistogramTest, ServeRunEmitsLatencyHistogram)
{
    Rng rng(42);
    SharedModel model = LoadedModel::create(compile(buildTinyNet(rng)));
    const Graph &g = model->loadable().graph;
    const GirTensor &ti = g.tensor(g.inputs()[0]);
    std::vector<std::vector<Tensor>> samples;
    for (int s = 0; s < 2; ++s) {
        Tensor x(ti.shape, DType::UInt8, ti.quant);
        x.fillRandom(rng);
        samples.push_back({std::move(x)});
    }
    ServeEngine engine(std::move(model), std::move(samples), 1);

    ServeConfig cfg;
    cfg.memoizeSampleResults = true;
    cfg.keepOutputs = false;
    const int kQueries = 6;
    ServeResult r = engine.run(cfg, kQueries);

    EXPECT_EQ(r.stats.counter(std::string(stats::kServeQueryLatency) +
                              "_count"),
              uint64_t(kQueries));
    auto bucket = [&](double ub) {
        return r.stats.counter(
            stats::histogramBucketName(stats::kServeQueryLatency, ub));
    };
    EXPECT_EQ(bucket(INFINITY), uint64_t(kQueries));
    // All fixed buckets are seeded (byte-stable export shape) and
    // cumulative in their bound order.
    uint64_t prev = 0;
    for (double ub : stats::serveLatencyBounds()) {
        EXPECT_TRUE(r.stats.contains(stats::histogramBucketName(
            stats::kServeQueryLatency, ub)));
        uint64_t cur = bucket(ub);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
    EXPECT_GE(bucket(INFINITY), prev);
    double want_sum = 0;
    for (const QueryRecord &rec : r.records)
        want_sum += rec.latency();
    EXPECT_NEAR(r.stats.value(std::string(stats::kServeQueryLatency) +
                              "_sum"),
                want_sum, 1e-12);

    // profileSample rides the same engine: full attribution on the
    // serving path too.
    ProfileReport rep = engine.profileSample(0, "profnet");
    EXPECT_GT(rep.totals.cycles(), 0u);
    EXPECT_EQ(rep.unattributedCycles, 0u);
}

} // namespace
} // namespace ncore
