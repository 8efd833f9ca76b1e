#include "gnmt.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "nkl/kernels.h"
#include "nkl/layout.h"
#include "nkl/program.h"

namespace ncore {

namespace {

/// k-segment size for weight streaming: 448 rows of K produce
/// 896-row pair images, fitting the 960-row ping-pong buffers.
constexpr int kSegK = 448;
constexpr int kBufA = 0;
constexpr int kBufB = 960;

float
bf16At(const Tensor &t, int64_t i)
{
    return t.floatAt(i);
}

} // namespace

Gnmt::Gnmt(const GnmtConfig &cfg, uint64_t seed) : cfg_(cfg)
{
    Rng rng(seed);
    const int h = cfg_.hidden;

    embedding_ = Tensor(Shape{cfg_.vocab, h}, DType::BFloat16);
    embedding_.fillGaussian(rng, 0.08f);
    projection_ = Tensor(Shape{h, cfg_.vocab}, DType::BFloat16);
    projection_.fillGaussian(rng, 0.05f);
    attnQuery_ = Tensor(Shape{h, h}, DType::BFloat16);
    attnQuery_.fillGaussian(rng, 0.05f);
    attnKey_ = Tensor(Shape{h, h}, DType::BFloat16);
    attnKey_.fillGaussian(rng, 0.05f);
    attnV_ = Tensor(Shape{h}, DType::BFloat16);
    attnV_.fillGaussian(rng, 0.1f);

    // Encoder: layer 1 bidirectional (fwd + bwd), layer 2 consumes the
    // 2H concatenation, layers 3..4 take H.
    encFwd_.push_back(makeLstm(h, rng));
    encBwd_ = makeLstm(h, rng);
    for (int l = 1; l < cfg_.encLayers; ++l)
        encFwd_.push_back(makeLstm(l == 1 ? 2 * h : h, rng));

    // Decoder: layer 1 takes embedding + attention context (2H).
    for (int l = 0; l < cfg_.decLayers; ++l)
        dec_.push_back(makeLstm(l == 0 ? 2 * h : h, rng));
}

Gnmt::LstmWeights
Gnmt::makeLstm(int input_dim, Rng &rng) const
{
    LstmWeights lw;
    lw.inputDim = input_dim;
    lw.w = Tensor(Shape{input_dim + cfg_.hidden, 4 * cfg_.hidden},
                  DType::BFloat16);
    lw.w.fillGaussian(rng, 0.04f);
    lw.bias = Tensor(Shape{4 * cfg_.hidden}, DType::BFloat16);
    lw.bias.fillGaussian(rng, 0.02f);
    return lw;
}

int64_t
Gnmt::weightCount() const
{
    int64_t total = embedding_.numElements() +
                    projection_.numElements() +
                    attnQuery_.numElements() + attnKey_.numElements() +
                    attnV_.numElements();
    for (const LstmWeights &lw : encFwd_)
        total += lw.w.numElements() + lw.bias.numElements();
    total += encBwd_.w.numElements() + encBwd_.bias.numElements();
    for (const LstmWeights &lw : dec_)
        total += lw.w.numElements() + lw.bias.numElements();
    return total;
}

int64_t
Gnmt::macCount(int in_len, int out_len) const
{
    const int64_t h = cfg_.hidden;
    int64_t enc_step = 0;
    enc_step += encFwd_[0].w.numElements(); // L1 forward.
    enc_step += encBwd_.w.numElements();    // L1 backward.
    for (size_t l = 1; l < encFwd_.size(); ++l)
        enc_step += encFwd_[l].w.numElements();

    int64_t dec_step = 0;
    for (const LstmWeights &lw : dec_)
        dec_step += lw.w.numElements();
    dec_step += attnQuery_.numElements();     // Query projection.
    dec_step += int64_t(in_len) * h;          // Attention scores.
    dec_step += int64_t(in_len) * h;          // Context blend.
    dec_step += projection_.numElements();    // Vocabulary projection.

    int64_t key_proj = int64_t(in_len) * attnKey_.numElements();
    return int64_t(in_len) * enc_step +
           int64_t(cfg_.beam) * int64_t(out_len) * dec_step + key_proj;
}

// --------------------------------------------------------------------
// Host (x86) reference math
// --------------------------------------------------------------------

void
Gnmt::cellReference(const LstmWeights &lw, const std::vector<float> &x,
                    std::vector<float> &h, std::vector<float> &c) const
{
    const int hidden = cfg_.hidden;
    const int k = lw.inputDim + hidden;
    const int n = 4 * hidden;
    panic_if(int(x.size()) != lw.inputDim, "LSTM input width");

    std::vector<float> gates(static_cast<size_t>(n), 0.0f);
    for (int j = 0; j < n; ++j)
        gates[size_t(j)] = bf16At(lw.bias, j);
    for (int kk = 0; kk < k; ++kk) {
        float v = kk < lw.inputDim ? x[size_t(kk)]
                                   : h[size_t(kk - lw.inputDim)];
        if (v == 0.0f)
            continue;
        for (int j = 0; j < n; ++j)
            gates[size_t(j)] +=
                v * bf16At(lw.w, int64_t(kk) * n + j);
    }
    auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
    for (int j = 0; j < hidden; ++j) {
        float i = sigmoid(gates[size_t(j)]);
        float f = sigmoid(gates[size_t(hidden + j)]);
        float g = std::tanh(gates[size_t(2 * hidden + j)]);
        float o = sigmoid(gates[size_t(3 * hidden + j)]);
        c[size_t(j)] = f * c[size_t(j)] + i * g;
        h[size_t(j)] = o * std::tanh(c[size_t(j)]);
    }
}

void
Gnmt::encCellReference(int layer, const std::vector<float> &x,
                       std::vector<float> &h, std::vector<float> &c)
    const
{
    cellReference(encFwd_[size_t(layer)], x, h, c);
}

std::vector<int>
Gnmt::translate(const std::vector<int> &src, int max_out) const
{
    const int hidden = cfg_.hidden;
    const int in_len = int(src.size());

    auto embed = [&](int token) {
        std::vector<float> e(static_cast<size_t>(hidden), 0.0f);
        int t = std::clamp(token, 0, cfg_.vocab - 1);
        for (int j = 0; j < hidden; ++j)
            e[size_t(j)] = bf16At(embedding_, int64_t(t) * hidden + j);
        return e;
    };

    // ---- Encoder ----
    std::vector<std::vector<float>> enc_out(
        static_cast<size_t>(in_len),
        std::vector<float>(static_cast<size_t>(hidden), 0.0f));
    {
        // Layer 1 bidirectional.
        std::vector<std::vector<float>> fwd{};
        std::vector<std::vector<float>> bwd{};
        fwd.resize(static_cast<size_t>(in_len));
        bwd.resize(static_cast<size_t>(in_len));
        std::vector<float> h(size_t(hidden), 0), c(size_t(hidden), 0);
        for (int t = 0; t < in_len; ++t) {
            cellReference(encFwd_[0], embed(src[size_t(t)]), h, c);
            fwd[size_t(t)] = h;
        }
        std::fill(h.begin(), h.end(), 0.0f);
        std::fill(c.begin(), c.end(), 0.0f);
        for (int t = in_len - 1; t >= 0; --t) {
            cellReference(encBwd_, embed(src[size_t(t)]), h, c);
            bwd[size_t(t)] = h;
        }
        // Layer 2 takes the concatenation; upper layers pass through.
        std::vector<std::vector<float>> cur{};
        cur.resize(static_cast<size_t>(in_len));
        for (int t = 0; t < in_len; ++t) {
            cur[size_t(t)] = fwd[size_t(t)];
            cur[size_t(t)].insert(cur[size_t(t)].end(),
                                  bwd[size_t(t)].begin(),
                                  bwd[size_t(t)].end());
        }
        for (size_t l = 1; l < encFwd_.size(); ++l) {
            std::vector<float> hh(size_t(hidden), 0),
                cc(size_t(hidden), 0);
            for (int t = 0; t < in_len; ++t) {
                cellReference(encFwd_[l], cur[size_t(t)], hh, cc);
                cur[size_t(t)] = hh;
            }
        }
        enc_out = cur;
    }

    // Precompute attention keys.
    std::vector<std::vector<float>> keys(
        size_t(in_len), std::vector<float>(size_t(hidden), 0));
    for (int t = 0; t < in_len; ++t)
        for (int j = 0; j < hidden; ++j) {
            float acc = 0;
            for (int k = 0; k < hidden; ++k)
                acc += enc_out[size_t(t)][size_t(k)] *
                       bf16At(attnKey_, int64_t(k) * hidden + j);
            keys[size_t(t)][size_t(j)] = acc;
        }

    // ---- Greedy decoder ----
    std::vector<int> out;
    std::vector<std::vector<float>> h(
        size_t(cfg_.decLayers), std::vector<float>(size_t(hidden), 0));
    std::vector<std::vector<float>> c = h;
    std::vector<float> ctx(size_t(hidden), 0);
    int token = 1; // <s>

    for (int step = 0; step < max_out; ++step) {
        std::vector<float> x = embed(token);
        x.insert(x.end(), ctx.begin(), ctx.end());
        for (int l = 0; l < cfg_.decLayers; ++l) {
            cellReference(dec_[size_t(l)], x, h[size_t(l)],
                          c[size_t(l)]);
            x = h[size_t(l)];
        }

        // Additive attention on the top decoder state.
        std::vector<float> q(size_t(hidden), 0);
        for (int j = 0; j < hidden; ++j) {
            float acc = 0;
            for (int k = 0; k < hidden; ++k)
                acc += x[size_t(k)] *
                       bf16At(attnQuery_, int64_t(k) * hidden + j);
            q[size_t(j)] = acc;
        }
        std::vector<float> score(static_cast<size_t>(in_len), 0.0f);
        float maxs = -1e30f;
        for (int t = 0; t < in_len; ++t) {
            float s = 0;
            for (int j = 0; j < hidden; ++j)
                s += bf16At(attnV_, j) *
                     std::tanh(q[size_t(j)] + keys[size_t(t)][size_t(j)]);
            score[size_t(t)] = s;
            maxs = std::max(maxs, s);
        }
        float denom = 0;
        for (float &s : score) {
            s = std::exp(s - maxs);
            denom += s;
        }
        std::fill(ctx.begin(), ctx.end(), 0.0f);
        for (int t = 0; t < in_len; ++t)
            for (int j = 0; j < hidden; ++j)
                ctx[size_t(j)] += score[size_t(t)] / denom *
                                  enc_out[size_t(t)][size_t(j)];

        // Vocabulary projection (argmax over a strided sample to keep
        // the host reference fast; the Ncore path computes it fully).
        int best = 0;
        float best_v = -1e30f;
        for (int v = 0; v < cfg_.vocab; v += 7) {
            float acc = 0;
            for (int j = 0; j < hidden; ++j)
                acc += x[size_t(j)] *
                       bf16At(projection_, int64_t(j) * cfg_.vocab + v);
            if (acc > best_v) {
                best_v = acc;
                best = v;
            }
        }
        token = best;
        out.push_back(token);
        if (token == 2) // </s>
            break;
    }
    return out;
}

// --------------------------------------------------------------------
// Ncore execution
// --------------------------------------------------------------------

uint64_t
Gnmt::matmulOnNcore(Machine &m, const Tensor &w,
                    const std::vector<float> &x,
                    std::vector<float> &gates,
                    uint64_t &digest) const
{
    const int k_total = int(w.shape().dim(0));
    const int n_total = int(w.shape().dim(1));
    panic_if(int(x.size()) != k_total, "matmul input width");

    // Stage the input vector at data rows 0..1 (planar bf16).
    TensorLayout in = flatLayout(k_total);
    in.baseRow = 0;
    Tensor xt(Shape{1, k_total}, DType::BFloat16);
    for (int i = 0; i < k_total; ++i)
        xt.setFloatAt(i, x[size_t(i)]);
    {
        std::vector<uint8_t> img(size_t(in.rows()) * 4096);
        packFlat(xt, 0, in, img.data());
        for (int r = 0; r < in.rows(); ++r)
            m.hostWriteRow(false, in.baseRow + r,
                           img.data() + size_t(r) * 4096);
    }

    const int out_base = in.rows() + 2;
    const int n_chunks = (n_total + 4095) / 4096;

    // Weight image in DRAM, staged once per (memory, matrix).
    uint64_t addr;
    const auto key = std::make_pair(m.sysmem().id(), w.raw());
    auto it = staged_.find(key);
    if (it != staged_.end()) {
        addr = it->second;
    } else {
        auto img = packMatmulBf16Weights(w);
        addr = m.sysmem().allocate(img.size());
        m.sysmem().write(addr, img.data(), img.size());
        staged_.emplace(key, addr);
    }

    // Build the segmented program: fence/kick ping-pong per segment.
    ProgramBuilder pb;
    const int n_segs = (k_total + kSegK - 1) / kSegK;
    int desc = 0;
    std::vector<DmaDescriptor> descs;
    for (int ch = 0; ch < n_chunks; ++ch)
        for (int s = 0; s < n_segs; ++s) {
            int seg_k = std::min(kSegK, k_total - s * kSegK);
            DmaDescriptor d;
            d.toNcore = true;
            d.weightRam = true;
            d.ramRow = uint32_t(desc % 2 == 0 ? kBufA : kBufB);
            d.rowCount = uint32_t(2 * seg_k);
            d.sysAddr = addr +
                        uint64_t(ch * 2 * k_total + 2 * s * kSegK) *
                            4096;
            d.queue = uint8_t(desc % 2);
            descs.push_back(d);
            ++desc;
        }
    for (size_t i = 0; i < descs.size(); ++i)
        m.dma().setDescriptor(int(i), descs[i]);

    pb.dmaKick(0);
    if (descs.size() > 1)
        pb.dmaKick(1);
    desc = 0;
    for (int ch = 0; ch < n_chunks; ++ch)
        for (int s = 0; s < n_segs; ++s) {
            pb.dmaFence(desc % 2);
            MatmulBf16Kernel p;
            p.in = in;
            p.out = flatLayout(std::min(4096, n_total - ch * 4096));
            p.out.baseRow = out_base + 2 * ch;
            p.k = std::min(kSegK, k_total - s * kSegK);
            p.n = std::min(4096, n_total - ch * 4096);
            p.inElemOffset = s * kSegK;
            p.weightBase = desc % 2 == 0 ? kBufA : kBufB;
            p.firstSegment = s == 0;
            p.lastSegment = s == n_segs - 1;
            emitMatmulBf16(pb, p);
            if (desc + 2 < int(descs.size()))
                pb.dmaKick(desc + 2);
            ++desc;
        }
    pb.halt();

    // Run, streaming through the IRAM banks. Host profile bracket:
    // GNMT has no gir graph, so each matmul program names its own
    // scope by shape ("matmul_1024x4096") and carries its K*N MACs.
    uint64_t cycles0 = m.cycles();
    char mark[32];
    snprintf(mark, sizeof mark, "matmul_%dx%d", k_total, n_total);
    m.profileMark(mark, true, uint64_t(k_total) * uint64_t(n_total));
    RunResult res = m.runStreamed(pb.encode());
    m.profileMark(mark, false);
    fatal_if(res.reason != StopReason::Halted, "GNMT matmul hung");

    // Read the result.
    gates.assign(size_t(n_total), 0.0f);
    for (int ch = 0; ch < n_chunks; ++ch) {
        int n_here = std::min(4096, n_total - ch * 4096);
        TensorLayout out = flatLayout(n_here);
        out.baseRow = out_base + 2 * ch;
        Tensor t(Shape{1, n_here}, DType::BFloat16);
        std::vector<uint8_t> rows(size_t(out.rows()) * 4096);
        for (int r = 0; r < out.rows(); ++r)
            m.hostReadRow(false, out.baseRow + r,
                          rows.data() + size_t(r) * 4096);
        unpackFlat(rows.data(), out, t, 0);
        for (size_t b = 0; b < t.byteSize(); ++b)
            digest = (digest ^ t.raw()[b]) * 0x100000001b3ull;
        for (int j = 0; j < n_here; ++j)
            gates[size_t(ch * 4096 + j)] = t.floatAt(j);
    }
    return m.cycles() - cycles0;
}

Gnmt::RunStats
Gnmt::runOnNcore(Machine &m, int in_len, int out_len) const
{
    const int hidden = cfg_.hidden;
    RunStats stats;
    stats.outputDigest = 0xcbf29ce484222325ull; // FNV-1a offset basis.
    const uint64_t macs0 = m.perf().macOps;
    const uint64_t dma0 = m.dma().stats().bytesRead;

    // Host-side per-element cost for gates/attention/softmax work
    // (charged as x86 time; see x86/cost_model.h).
    auto charge_x86 = [&](int64_t elems) {
        stats.x86Seconds += double(elems) * 8.0 / 40e9;
    };

    auto run_cell = [&](const LstmWeights &lw, std::vector<float> &x,
                        std::vector<float> &h, std::vector<float> &c) {
        std::vector<float> full = x;
        full.insert(full.end(), h.begin(), h.end());
        std::vector<float> gates;
        stats.cycles += matmulOnNcore(m, lw.w, full, gates,
                                      stats.outputDigest);
        auto sigmoid = [](float v) {
            return 1.0f / (1.0f + std::exp(-v));
        };
        for (int j = 0; j < hidden; ++j) {
            float i = sigmoid(gates[size_t(j)] +
                              bf16At(lw.bias, j));
            float f = sigmoid(gates[size_t(hidden + j)] +
                              bf16At(lw.bias, hidden + j));
            float g = std::tanh(gates[size_t(2 * hidden + j)] +
                                bf16At(lw.bias, 2 * hidden + j));
            float o = std::tanh(gates[size_t(3 * hidden + j)] +
                                bf16At(lw.bias, 3 * hidden + j));
            c[size_t(j)] = f * c[size_t(j)] + i * g;
            h[size_t(j)] = o * std::tanh(c[size_t(j)]);
        }
        charge_x86(4 * hidden);
    };

    Rng rng(99);
    auto rand_vec = [&](int n) {
        std::vector<float> v(static_cast<size_t>(n), 0.0f);
        for (float &f : v)
            f = rng.nextGaussian() * 0.3f;
        return v;
    };

    // ---- Encoder ----
    {
        std::vector<float> h(size_t(hidden), 0), c(size_t(hidden), 0);
        std::vector<float> hb = h, cb = c;
        for (int t = 0; t < in_len; ++t) {
            std::vector<float> x = rand_vec(hidden); // Embedding.
            charge_x86(hidden);
            run_cell(encFwd_[0], x, h, c);
            run_cell(encBwd_, x, hb, cb);
            std::vector<float> cat = h;
            cat.insert(cat.end(), hb.begin(), hb.end());
            std::vector<float> cur = cat;
            for (size_t l = 1; l < encFwd_.size(); ++l) {
                std::vector<float> hl(size_t(hidden), 0),
                    cl(size_t(hidden), 0);
                run_cell(encFwd_[l], cur, hl, cl);
                cur = hl;
            }
        }
    }

    // ---- Decoder (beam x out_len steps) ----
    for (int beam = 0; beam < cfg_.beam; ++beam) {
        std::vector<std::vector<float>> h(
            size_t(cfg_.decLayers),
            std::vector<float>(size_t(hidden), 0));
        auto c = h;
        std::vector<float> ctx(size_t(hidden), 0);
        for (int step = 0; step < out_len; ++step) {
            std::vector<float> x = rand_vec(hidden);
            x.insert(x.end(), ctx.begin(), ctx.end());
            for (int l = 0; l < cfg_.decLayers; ++l) {
                run_cell(dec_[size_t(l)], x, h[size_t(l)],
                         c[size_t(l)]);
                x = h[size_t(l)];
            }
            // Attention (query projection on Ncore; softmax on x86).
            std::vector<float> qv;
            stats.cycles += matmulOnNcore(m, attnQuery_, x, qv,
                                          stats.outputDigest);
            charge_x86(int64_t(in_len) * hidden + in_len * 4);
            for (float &v : ctx)
                v = 0.3f * v + 0.01f; // Synthetic context update.

            // Vocabulary projection on Ncore.
            std::vector<float> logits;
            stats.cycles += matmulOnNcore(m, projection_, x, logits,
                                          stats.outputDigest);
            charge_x86(cfg_.vocab); // argmax/top-k on x86.
        }
    }

    stats.macOps = m.perf().macOps - macs0;
    stats.dmaBytes = m.dma().stats().bytesRead - dma0;
    return stats;
}

} // namespace ncore
