/**
 * @file
 * GNMT: Google's neural machine translation model as evaluated by
 * MLPerf Inference v0.5 and the paper (Table V: 3.9 GMACs at 25-word
 * sentences, 131M weights, the memory-bound outlier of the benchmark
 * set).
 *
 * Following the paper, GNMT runs in bfloat16 ("due to time constraints
 * and the use of TensorFlow instead of TensorFlow-Lite, we implemented
 * GNMT using bfloat16") and is driven as a dynamic pipeline rather
 * than a static GIR graph: the encoder/decoder LSTM and projection
 * matmuls execute on Ncore (with layer weights DMA-streamed in
 * k-segments through ping-pong buffers — 131M bf16 weights are 33x the
 * weight RAM), while embeddings, gate nonlinearities, attention
 * softmax and beam bookkeeping stay on the x86 cores.
 *
 * The configuration (4+4 layers, hidden 1024, bidirectional first
 * encoder layer, additive attention) is sized so the total weight
 * count lands on the paper's 131M (vocabulary 22016); see DESIGN.md.
 */

#ifndef NCORE_MODELS_GNMT_H
#define NCORE_MODELS_GNMT_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/tensor.h"
#include "ncore/machine.h"

namespace ncore {

struct GnmtConfig
{
    int vocab = 22016;
    int hidden = 1024;
    int encLayers = 4; ///< First layer bidirectional.
    int decLayers = 4;
    int beam = 2;
};

/** The GNMT model: weights, reference math, and the Ncore pipeline. */
class Gnmt
{
  public:
    explicit Gnmt(const GnmtConfig &cfg = {}, uint64_t seed = 4);

    const GnmtConfig &config() const { return cfg_; }

    /** Total parameter count (Table V "Total Weights"). */
    int64_t weightCount() const;

    /** MACs for one (in_len, out_len) translation including beams
     *  (Table V "Total MACs" characterization). */
    int64_t macCount(int in_len, int out_len) const;

    /**
     * Functional translation with float math on the host (the x86
     * reference): greedy decode of up to max_out tokens.
     */
    std::vector<int> translate(const std::vector<int> &src,
                               int max_out) const;

    /** Outcome of executing one sentence's matmul workload on Ncore. */
    struct RunStats
    {
        uint64_t cycles = 0;
        uint64_t macOps = 0;
        uint64_t dmaBytes = 0;
        double x86Seconds = 0; ///< Gates/attention/embedding on x86.
        /// 64-bit FNV-1a over every matmul's bf16 output, in execution
        /// order: a functional check on the streamed weight data path.
        uint64_t outputDigest = 0;
    };

    /**
     * Execute the full encoder+decoder matmul schedule for one
     * (in_len, out_len) sentence on the machine, streaming weight
     * segments over DMA exactly as the runtime would. Gate math runs
     * functionally on the host between steps (and is charged x86
     * time). Returns the measured counters.
     */
    RunStats runOnNcore(Machine &m, int in_len, int out_len) const;

    /** Reference single LSTM-cell evaluation (for tests): returns the
     *  new (h, c) given input x and previous (h, c), on layer `layer`
     *  of the encoder forward stack. */
    void encCellReference(int layer, const std::vector<float> &x,
                          std::vector<float> &h,
                          std::vector<float> &c) const;

  private:
    struct LstmWeights
    {
        Tensor w;    ///< [K, 4H] bf16, K = inputDim + hidden.
        Tensor bias; ///< [4H] bf16.
        int inputDim = 0;
    };

    LstmWeights makeLstm(int input_dim, Rng &rng) const;
    void cellReference(const LstmWeights &lw,
                       const std::vector<float> &x,
                       std::vector<float> &h,
                       std::vector<float> &c) const;

    /** Run one k-segmented [1,K]x[K,N] matmul on the machine with DMA
     *  streamed weights. Weight images are staged into system DRAM
     *  once per distinct (memory, matrix) and reused across steps.
     *  Folds the output bytes into `digest`. */
    uint64_t matmulOnNcore(Machine &m, const Tensor &w,
                           const std::vector<float> &x,
                           std::vector<float> &out,
                           uint64_t &digest) const;

    GnmtConfig cfg_;
    Tensor embedding_;  ///< [vocab, H] bf16 (shared enc/dec).
    Tensor projection_; ///< [H, vocab] bf16.
    Tensor attnQuery_;  ///< [H, H] bf16.
    Tensor attnKey_;    ///< [H, H] bf16.
    Tensor attnV_;      ///< [H] bf16.
    std::vector<LstmWeights> encFwd_; ///< encLayers cells.
    LstmWeights encBwd_;              ///< Backward cell of layer 1.
    std::vector<LstmWeights> dec_;    ///< decLayers cells.

    /// DRAM staging cache: (SystemMemory::id(), weight storage) ->
    /// address of that matrix's image in that memory.
    mutable std::map<std::pair<uint64_t, const uint8_t *>, uint64_t>
        staged_;
};

} // namespace ncore

#endif // NCORE_MODELS_GNMT_H
