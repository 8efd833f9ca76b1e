/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: host-side
 * throughput of instruction encode/decode, the ECC code, NDU dataflow
 * ops, the MAC pipeline and the system-memory/DMA weight stream — the
 * practical limits on how fast this golden model can drive verification
 * (paper V-E used exactly such an instruction simulator to drive DV).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "common/json.h"
#include "common/ecc.h"
#include "common/machine.h"
#include "common/quant.h"
#include "common/rng.h"
#include "common/tensor.h"
#include "mlperf/profiles.h"
#include "models/gnmt.h"
#include "models/zoo.h"
#include "ncore/machine.h"
#include "ncore/simd.h"

namespace ncore {
namespace {

void
BM_EncodeDecode(benchmark::State &state)
{
    Instruction in;
    in.ctrl.op = CtrlOp::Rep;
    in.ctrl.imm = 64;
    in.dataRead.enable = true;
    in.weightRead.enable = true;
    in.ndu0.op = NduOp::GroupBcast;
    in.ndu0.srcA = RowSrc::DataRead;
    in.ndu1.op = NduOp::RepWindow;
    in.ndu1.srcA = RowSrc::WeightRead;
    in.npu.op = NpuOp::Mac;
    for (auto _ : state) {
        EncodedInstruction enc = encodeInstruction(in);
        benchmark::DoNotOptimize(decodeInstruction(enc));
    }
}
BENCHMARK(BM_EncodeDecode);

void
BM_EccEncodeDecode(benchmark::State &state)
{
    Rng rng(1);
    uint64_t w = rng.next64();
    for (auto _ : state) {
        uint8_t c = eccEncode(w);
        benchmark::DoNotOptimize(eccDecode(w, c));
        w = w * 6364136223846793005ull + 1;
    }
}
BENCHMARK(BM_EccEncodeDecode);

/**
 * The convolution-inner-loop instruction (Fig. 6 shape: two NDU
 * rearranges feeding a repeated MAC) in each lane datatype, plus a
 * predicated u8 variant. Cost per rep: u8/i8 1 clock, bf16 3, i16 4.
 */
std::vector<EncodedInstruction>
macProgram(LaneType type, Pred pred)
{
    std::vector<Instruction> prog;
    if (pred != Pred::None) {
        // P0 <- data row 0 bytes (the harness fills it half-nonzero).
        Instruction ld;
        ld.dataRead.enable = true;
        ld.ndu0.op = NduOp::LoadMask;
        ld.ndu0.srcA = RowSrc::DataRead;
        ld.ndu0.dst = 0;
        prog.push_back(ld);
    }
    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    prog.push_back(zero);
    Instruction mac;
    mac.ctrl.op = CtrlOp::Rep;
    mac.ctrl.imm = 1024;
    mac.dataRead.enable = true;
    mac.weightRead.enable = true;
    mac.ndu0.op = NduOp::GroupBcast;
    mac.ndu0.srcA = RowSrc::DataRead;
    mac.ndu0.dst = 0;
    mac.ndu0.param = uint8_t(NduStride::S64);
    mac.ndu1.op = NduOp::RepWindow;
    mac.ndu1.srcA = RowSrc::WeightRead;
    mac.ndu1.dst = 1;
    mac.ndu1.param = uint8_t(NduStride::S1);
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = type;
    mac.npu.pred = pred;
    bool wide = type == LaneType::I16 || type == LaneType::BF16;
    if (wide) {
        // 16-bit lanes read planar pairs: N0 pairs with N1 (written by
        // ndu1 above), and WeightRead latches rows row/row+1.
        mac.npu.a = RowSrc::N0;
        mac.npu.b = RowSrc::WeightRead;
        mac.npu.zeroOff = false;
    } else {
        mac.npu.a = RowSrc::N0;
        mac.npu.b = RowSrc::N1;
        mac.npu.zeroOff = true;
    }
    prog.push_back(mac);
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    std::vector<EncodedInstruction> enc;
    enc.reserve(prog.size());
    for (const Instruction &in : prog)
        enc.push_back(encodeInstruction(in));
    return enc;
}

/**
 * One 3x3, 64-channel conv accumulation in the shape NKL's repMac
 * emits: a 576-tap Rep whose data register steps a byte per tap and
 * wraps to the next row every 192 taps, and whose weight register
 * steps 64 bytes and wraps to the next row every 64 taps. The
 * specialized engine runs it as one fused GEMM; the "u8" program above
 * steps no address register, so it is not the conv-Rep shape and runs
 * one 4096-lane step per rep.
 */
std::vector<EncodedInstruction>
convRepProgram()
{
    std::vector<Instruction> prog;
    auto ctrl = [&](CtrlOp op, int reg, uint32_t imm) {
        Instruction in;
        in.ctrl.op = op;
        in.ctrl.reg = uint8_t(reg);
        in.ctrl.imm = imm;
        prog.push_back(in);
    };
    ctrl(CtrlOp::SetZeroOff, 0, 0x0305);
    ctrl(CtrlOp::SetAddrInc, 0, (1u << 10) | 1);  // Row +1, byte +1.
    ctrl(CtrlOp::SetAddrWrap, 0, 192);
    ctrl(CtrlOp::SetAddrInc, 1, (1u << 10) | 64); // Row +1, byte +64.
    ctrl(CtrlOp::SetAddrWrap, 1, 64);
    for (int reg : {0, 1}) {
        ctrl(CtrlOp::SetAddrRow, reg, 0);
        ctrl(CtrlOp::SetAddrByte, reg, 0);
    }
    Instruction zero;
    zero.npu.op = NpuOp::AccZero;
    prog.push_back(zero);
    Instruction mac;
    mac.ctrl.op = CtrlOp::Rep;
    mac.ctrl.imm = 576;
    mac.dataRead.enable = true;
    mac.dataRead.reg = 0;
    mac.weightRead.enable = true;
    mac.weightRead.reg = 1;
    mac.ndu0.op = NduOp::GroupBcast;
    mac.ndu0.srcA = RowSrc::DataRead;
    mac.ndu0.dst = 0;
    mac.ndu0.addrReg = 0;
    mac.ndu0.addrInc = true;
    mac.ndu0.param = uint8_t(NduStride::S64);
    mac.ndu1.op = NduOp::RepWindow;
    mac.ndu1.srcA = RowSrc::WeightRead;
    mac.ndu1.dst = 1;
    mac.ndu1.addrReg = 1;
    mac.ndu1.addrInc = true;
    mac.ndu1.param = uint8_t(NduStride::S1);
    mac.npu.op = NpuOp::Mac;
    mac.npu.type = LaneType::U8;
    mac.npu.a = RowSrc::N0;
    mac.npu.b = RowSrc::N1;
    mac.npu.zeroOff = true;
    prog.push_back(mac);
    ctrl(CtrlOp::Halt, 0, 0);
    std::vector<EncodedInstruction> enc;
    enc.reserve(prog.size());
    for (const Instruction &in : prog)
        enc.push_back(encodeInstruction(in));
    return enc;
}

/** Make the LoadMask row half-nonzero for the predicated variant. */
void
fillPredRow(Machine &m)
{
    std::vector<uint8_t> row(size_t(m.rowBytesInt()));
    for (size_t i = 0; i < row.size(); ++i)
        row[i] = uint8_t(i & 1);
    m.hostWriteRow(false, 0, row.data());
}

/** Simulated MAC cycles per wall second (the DV-throughput metric).
 *  `tier` selects the specialized engine's kernel tier (Auto = the
 *  shipping config: NCORE_SIMD env or the host's best). */
void
runMacPipeline(benchmark::State &state, LaneType type, Pred pred,
               SimdTier tier = SimdTier::Auto)
{
    Machine m(chaNcoreConfig(), chaSocConfig(), nullptr, false,
              {ExecEngine::Specialized, tier});
    state.SetLabel(m.execDescription());
    if (pred != Pred::None)
        fillPredRow(m);
    std::vector<EncodedInstruction> enc = macProgram(type, pred);

    uint64_t cycles0 = m.cycles();
    for (auto _ : state) {
        m.writeIram(0, enc);
        m.start(0);
        m.run();
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        double(m.cycles() - cycles0), benchmark::Counter::kIsRate);
    state.counters["lane_MACs/s"] = benchmark::Counter(
        1024.0 * 4096.0 * double(state.iterations()),
        benchmark::Counter::kIsRate);
}

void
BM_MacPipeline(benchmark::State &state)
{
    runMacPipeline(state, LaneType::U8, Pred::None);
}
BENCHMARK(BM_MacPipeline)->Unit(benchmark::kMillisecond);

void
BM_MacPipelineBf16(benchmark::State &state)
{
    runMacPipeline(state, LaneType::BF16, Pred::None);
}
BENCHMARK(BM_MacPipelineBf16)->Unit(benchmark::kMillisecond);

void
BM_MacPipelinePred(benchmark::State &state)
{
    runMacPipeline(state, LaneType::U8, Pred::P0);
}
BENCHMARK(BM_MacPipelinePred)->Unit(benchmark::kMillisecond);

// Scalar-kernel-tier rows of the same variants, so one run shows the
// SIMD datapath speedup directly (the unsuffixed rows use the host's
// best tier via SimdTier::Auto).
void
BM_MacPipelineScalar(benchmark::State &state)
{
    runMacPipeline(state, LaneType::U8, Pred::None, SimdTier::Scalar);
}
BENCHMARK(BM_MacPipelineScalar)->Unit(benchmark::kMillisecond);

void
BM_MacPipelineBf16Scalar(benchmark::State &state)
{
    runMacPipeline(state, LaneType::BF16, Pred::None, SimdTier::Scalar);
}
BENCHMARK(BM_MacPipelineBf16Scalar)->Unit(benchmark::kMillisecond);

void
BM_MacPipelinePredScalar(benchmark::State &state)
{
    runMacPipeline(state, LaneType::U8, Pred::P0, SimdTier::Scalar);
}
BENCHMARK(BM_MacPipelinePredScalar)->Unit(benchmark::kMillisecond);

/** NDU rotate throughput (full 4 KB row per op). */
void
BM_NduRotate(benchmark::State &state)
{
    Machine m(chaNcoreConfig(), chaSocConfig());
    std::vector<Instruction> prog;
    Instruction setb;
    setb.ctrl.op = CtrlOp::SetAddrByte;
    setb.ctrl.reg = 1;
    setb.ctrl.imm = 64;
    prog.push_back(setb);
    Instruction rot;
    rot.ctrl.op = CtrlOp::Rep;
    rot.ctrl.imm = 1024;
    rot.dataRead.enable = true;
    rot.ndu0.op = NduOp::Rotate;
    rot.ndu0.srcA = RowSrc::DataRead;
    rot.ndu0.dst = 0;
    rot.ndu0.addrReg = 1;
    prog.push_back(rot);
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    std::vector<EncodedInstruction> enc;
    for (const Instruction &in : prog)
        enc.push_back(encodeInstruction(in));

    for (auto _ : state) {
        m.writeIram(0, enc);
        m.start(0);
        m.run();
    }
    state.counters["rotates/s"] = benchmark::Counter(
        1024.0 * double(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NduRotate)->Unit(benchmark::kMillisecond);

/**
 * The host side of every weight stream (a GNMT sentence moves 360 MB
 * through it): SystemMemory reads in 4 KiB rows, and multi-row DMA
 * transfers into the weight RAM drained to completion.
 */
struct SysmemStream
{
    static constexpr uint64_t kBytes = 32ull << 20;
    static constexpr uint32_t kDmaRows = 512; ///< 2 MiB per transfer.

    SysmemStream() : m(chaNcoreConfig(), chaSocConfig()), row(4096)
    {
        image.resize(kBytes);
        Rng rng(7);
        for (uint8_t &b : image)
            b = uint8_t(rng.next64());
        base = m.sysmem().allocate(kBytes);
        m.sysmem().write(base, image.data(), kBytes);

        DmaDescriptor d;
        d.toNcore = true;
        d.weightRam = true;
        d.rowCount = kDmaRows;
        d.sysAddr = base;
        m.dma().setDescriptor(0, d);
    }

    void
    readAll()
    {
        for (uint64_t off = 0; off < kBytes; off += row.size())
            m.sysmem().read(base + off, row.data(), row.size());
        benchmark::DoNotOptimize(row.data());
    }

    void writeAll() { m.sysmem().write(base, image.data(), kBytes); }

    void
    dmaOnce()
    {
        m.dma().kick(0);
        m.dma().drainAll();
    }

    uint64_t dmaBytes() const { return uint64_t(kDmaRows) * row.size(); }

    Machine m;
    std::vector<uint8_t> image;
    std::vector<uint8_t> row;
    uint64_t base = 0;
};

void
BM_SysmemRead(benchmark::State &state)
{
    SysmemStream s;
    for (auto _ : state)
        s.readAll();
    state.SetBytesProcessed(int64_t(state.iterations() * s.kBytes));
}
BENCHMARK(BM_SysmemRead)->Unit(benchmark::kMillisecond);

void
BM_DmaStream(benchmark::State &state)
{
    SysmemStream s;
    for (auto _ : state)
        s.dmaOnce();
    state.SetBytesProcessed(int64_t(state.iterations() * s.dmaBytes()));
}
BENCHMARK(BM_DmaStream)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------------
// BENCH_sim.json: machine-readable snapshot of simulator throughput
// (sim_cycles/s and lane_MACs/s per MAC variant and ns per OUT
// requantize row, at every tier; instruction decode/encode ns;
// system-memory and DMA stream GB/s, model weight-synthesis seconds,
// wall time per workload profile) for tracking the simulator's
// performance across commits. Profile measurement re-simulates all four MLPerf workloads
// and takes a while; set NCORE_BENCH_NO_PROFILES to skip that section.
// --------------------------------------------------------------------

struct Timed
{
    int iters = 0;
    double wall = 0;
};

/** Call `step` repeatedly for at least 0.5 wall seconds. */
template <typename Step>
Timed
timeRepeated(Step step)
{
    using clock = std::chrono::steady_clock;
    clock::time_point t0 = clock::now();
    Timed t;
    do {
        step();
        ++t.iters;
        t.wall = std::chrono::duration<double>(clock::now() - t0).count();
    } while (t.wall < 0.5);
    return t;
}

struct MacMeasurement
{
    const char *name;
    const char *tier;
    double simCyclesPerSec = 0;
    double laneMacsPerSec = 0;
    double wallPerRun = 0;
};

/** Throughput of `enc`; `pred` fills the LoadMask row first. */
MacMeasurement
measureMacProgram(const char *name,
                  const std::vector<EncodedInstruction> &enc, bool pred,
                  SimdTier tier)
{
    Machine m(chaNcoreConfig(), chaSocConfig(), nullptr, false,
              {ExecEngine::Specialized, tier});
    if (pred)
        fillPredRow(m);
    auto run = [&] {
        m.writeIram(0, enc);
        m.start(0);
        m.run();
    };

    // Warm run: binds the decode-time plans and touches the RAM pages.
    run();

    uint64_t cycles0 = m.cycles();
    uint64_t macs0 = m.perf().macOps;
    const Timed t = timeRepeated(run);

    MacMeasurement r;
    r.name = name;
    r.tier = simdTierName(m.simdTier());
    r.simCyclesPerSec = double(m.cycles() - cycles0) / t.wall;
    r.laneMacsPerSec = double(m.perf().macOps - macs0) / t.wall;
    r.wallPerRun = t.wall / t.iters;
    return r;
}

MacMeasurement
measureMacVariant(const char *name, LaneType type, Pred pred,
                  SimdTier tier)
{
    return measureMacProgram(name, macProgram(type, pred),
                             pred != Pred::None, tier);
}

/**
 * Host nanoseconds per 4,096-lane Requant8 row at `tier`: a program of
 * back-to-back OUT-only Requant8 instructions over random accumulators
 * (loaded once through AccLoadBias quarters), divided by its row count.
 * Each run rewrites the IRAM bank, so its decode and plan binding (a
 * few percent of a run at the AVX-512 tiers) are included.
 */
double
measureOutRequantNs(SimdTier tier)
{
    Machine m(chaNcoreConfig(), chaSocConfig(), nullptr, false,
              {ExecEngine::Specialized, tier});
    Rng rng(3);
    std::vector<uint8_t> row(size_t(m.rowBytesInt()));
    for (int r = 0; r < 4; ++r) {
        for (uint8_t &b : row)
            b = uint8_t(rng.next64());
        m.hostWriteRow(false, r, row.data());
    }
    RequantEntry e;
    e.rq = computeRequant(0.0123f, 7);
    m.writeRequantEntry(0, e);

    std::vector<Instruction> prog;
    for (int q = 0; q < 4; ++q) {
        Instruction set;
        set.ctrl.op = CtrlOp::SetAddrRow;
        set.ctrl.imm = uint32_t(q);
        prog.push_back(set);
        Instruction bias;
        bias.dataRead.enable = true;
        bias.npu.op = NpuOp::AccLoadBias;
        bias.npu.a = RowSrc::DataRead;
        bias.npu.b = RowSrc(int(BiasMode::Quarter0) + q);
        prog.push_back(bias);
    }
    const int kRows = Machine::kBankInstrs - int(prog.size()) - 1;
    Instruction out;
    out.out.op = OutOp::Requant8;
    prog.insert(prog.end(), size_t(kRows), out);
    Instruction halt;
    halt.ctrl.op = CtrlOp::Halt;
    prog.push_back(halt);
    std::vector<EncodedInstruction> enc;
    for (const Instruction &in : prog)
        enc.push_back(encodeInstruction(in));

    auto run = [&] {
        m.writeIram(0, enc);
        m.start(0);
        m.run();
    };
    run();
    const Timed t = timeRepeated(run);
    return t.wall / t.iters / kRows * 1e9;
}

/**
 * Host nanoseconds per instruction of decodeInstruction and
 * encodeInstruction over the MAC and conv-Rep programs' instructions.
 */
std::pair<double, double>
measureCodecNs()
{
    std::vector<EncodedInstruction> words = convRepProgram();
    for (LaneType t : {LaneType::U8, LaneType::I16, LaneType::BF16})
        for (Pred p : {Pred::None, Pred::P0}) {
            const std::vector<EncodedInstruction> w = macProgram(t, p);
            words.insert(words.end(), w.begin(), w.end());
        }
    std::vector<Instruction> insts;
    for (const EncodedInstruction &w : words)
        insts.push_back(decodeInstruction(w));

    uint64_t sink = 0;
    const Timed dec = timeRepeated([&] {
        for (const EncodedInstruction &w : words)
            sink += decodeInstruction(w).ctrl.imm;
    });
    const Timed enc = timeRepeated([&] {
        for (const Instruction &in : insts)
            sink += encodeInstruction(in).lo;
    });
    benchmark::DoNotOptimize(sink);
    const double n = double(words.size());
    return {dec.wall / dec.iters / n * 1e9, enc.wall / enc.iters / n * 1e9};
}

/** Host GB/s of `step`, which moves `bytes`, after one warm-up call
 *  (which allocates pages on first touch). */
template <typename Step>
double
measureGbps(uint64_t bytes, Step step)
{
    step();
    const Timed t = timeRepeated(step);
    return double(bytes) * t.iters / t.wall / 1e9;
}

/** Smallest wall seconds of three calls to `build`. */
template <typename Build>
double
bestWall(Build build)
{
    using clock = std::chrono::steady_clock;
    double best = 0;
    for (int i = 0; i < 3; ++i) {
        clock::time_point t0 = clock::now();
        build();
        double wall = std::chrono::duration<double>(clock::now() - t0).count();
        best = i == 0 ? wall : std::min(best, wall);
    }
    return best;
}

/**
 * Million bf16 gaussians per second over a 16M-element fillGaussian,
 * best of 3, with the fill forced to `tier` through NCORE_SIMD (the
 * fill resolves its tier once per call, before its threads start).
 * NCORE_SIMD is restored afterwards.
 */
double
bf16FillMgps(SimdTier tier)
{
    const char *old = getenv("NCORE_SIMD");
    const std::string saved = old ? old : "";
    setenv("NCORE_SIMD", simdTierName(tier), 1);
    Tensor t(Shape{int64_t(16) << 20}, DType::BFloat16);
    const double wall = bestWall([&] {
        Rng rng(1);
        t.fillGaussian(rng, 0.08f);
    });
    if (old)
        setenv("NCORE_SIMD", saved.c_str(), 1);
    else
        unsetenv("NCORE_SIMD");
    return double(t.numElements()) / wall / 1e6;
}

void
writeBenchSimJson()
{
    FILE *f = fopen("BENCH_sim.json", "w");
    if (!f) {
        fprintf(stderr, "cannot write BENCH_sim.json\n");
        return;
    }
    JsonWriter j(f);
    j.beginObject();
    j.key("mac_pipeline").beginArray();
    // One row per (variant, kernel tier), for every tier the host
    // supports: scalar, then avx2, avx512 and avx512vnni where cpuid
    // allows.
    for (int t = int(SimdTier::Scalar); t <= int(bestSimdTier()); ++t) {
        const SimdTier tier = SimdTier(t);
        const MacMeasurement macs[] = {
            measureMacVariant("u8", LaneType::U8, Pred::None, tier),
            measureMacVariant("u8_pred", LaneType::U8, Pred::P0, tier),
            measureMacVariant("bf16", LaneType::BF16, Pred::None, tier),
            measureMacProgram("u8_conv_rep", convRepProgram(), false,
                              tier),
        };
        for (const MacMeasurement &m : macs) {
            j.beginObject();
            j.field("name", m.name);
            j.field("tier", m.tier);
            j.field("sim_cycles_per_s", m.simCyclesPerSec, "%.0f");
            j.field("lane_macs_per_s", m.laneMacsPerSec, "%.0f");
            j.field("wall_s_per_run", m.wallPerRun, "%.6f");
            j.endObject();
        }
        j.beginObject();
        j.field("name", "out_requant");
        j.field("tier", simdTierName(tier));
        j.field("ns_per_row", measureOutRequantNs(tier), "%.0f");
        j.endObject();
    }
    j.endArray();

    // Instruction codec: every IRAM refill decodes its instructions.
    const auto [decode_ns, encode_ns] = measureCodecNs();
    j.key("codec").beginObject();
    j.field("decode_ns", decode_ns, "%.1f");
    j.field("encode_ns", encode_ns, "%.1f");
    j.endObject();

    SysmemStream stream;
    j.key("sysmem_stream").beginObject();
    j.field("read_gbps",
            measureGbps(stream.kBytes, [&] { stream.readAll(); }), "%.3f");
    j.field("write_gbps",
            measureGbps(stream.kBytes, [&] { stream.writeAll(); }), "%.3f");
    j.field("dma_gbps",
            measureGbps(stream.dmaBytes(), [&] { stream.dmaOnce(); }),
            "%.3f");
    j.endObject();

    // Weight synthesis: best-of-3 wall seconds of building each model,
    // the set-up cost paid before anything is compiled or simulated.
    // The fills use every host thread (Tensor::kFillChunk) and the
    // SIMD lanes of fill_tier; bf16_fill_mgps gives the gaussian fill
    // rate at every tier the host supports.
    j.key("synthesis").beginObject();
    j.field("host_threads", int(std::thread::hardware_concurrency()));
    j.field("fill_tier", simdTierName(resolveSimdTier(SimdTier::Auto)));
    j.key("bf16_fill_mgps").beginObject();
    for (int t = int(SimdTier::Scalar); t <= int(bestSimdTier()); ++t)
        j.field(simdTierName(SimdTier(t)), bf16FillMgps(SimdTier(t)),
                "%.1f");
    j.endObject();
    j.field("gnmt_ctor_s", bestWall([] { Gnmt g; }), "%.3f");
    j.field("resnet50_build_s",
            bestWall([] { Graph g = buildResNet50V15(); }), "%.3f");
    j.endObject();

    j.key("profiles").beginArray();

    if (!getenv("NCORE_BENCH_NO_PROFILES")) {
        using clock = std::chrono::steady_clock;
        const Workload kAll[] = {Workload::MobileNetV1,
                                 Workload::ResNet50,
                                 Workload::SsdMobileNet, Workload::Gnmt};
        double total = 0;
        for (Workload w : kAll) {
            clock::time_point t0 = clock::now();
            WorkloadProfile p = measureWorkload(w);
            double wall =
                std::chrono::duration<double>(clock::now() - t0).count();
            total += wall;
            j.beginObject();
            j.field("model", p.model);
            j.field("wall_s", wall, "%.3f");
            j.endObject();
        }
        j.beginObject();
        j.field("model", "total");
        j.field("wall_s", total, "%.3f");
        j.endObject();
    }
    j.endArray();
    j.endObject();
    j.finish();
    fclose(f);
    fprintf(stderr, "wrote BENCH_sim.json\n");
}

} // namespace
} // namespace ncore

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    ncore::writeBenchSimJson();
    return 0;
}
