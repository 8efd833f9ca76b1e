#include "cost_model.h"

namespace ncore {

UarchParams
cnsUarch()
{
    return {"CNS", "32KB, 8-way", "32KB, 8-way", "256KB, 16-way",
            "2MB shared", 72, 44, 192, "64, unified"};
}

UarchParams
haswellUarch()
{
    return {"Haswell", "32KB, 8-way", "32KB, 8-way", "256KB, 8-way",
            "2MB shared", 72, 42, 192, "60, unified"};
}

UarchParams
skylakeServerUarch()
{
    return {"Skylake Server", "32KB, 8-way", "32KB, 8-way",
            "1MB, 16-way", "1.375MB shared", 72, 56, 224, "97, unified"};
}

double
cnsPeakGops(DType t, double clock_hz)
{
    // Table II, scaled linearly with clock from the 2.5 GHz reference.
    double at_ref;
    switch (t) {
      case DType::Int8:
      case DType::UInt8:
        at_ref = 106.0;
        break;
      case DType::BFloat16:
      case DType::Float32:
        at_ref = 80.0;
        break;
      default:
        at_ref = 80.0;
        break;
    }
    return at_ref * clock_hz / 2.5e9;
}

double
ncorePeakGops(DType t, int lanes, double clock_hz)
{
    // lanes MACs/clock for 8-bit (2 ops each); 16-bit lane pairs still
    // provide `lanes` MACs but over npuClocksForDtype() clocks.
    double ops_per_clock = 2.0 * double(lanes);
    switch (t) {
      case DType::Int8:
      case DType::UInt8:
        return ops_per_clock * clock_hz / 1e9;
      case DType::BFloat16:
        return ops_per_clock * clock_hz / 3.0 / 1e9;
      case DType::Int16:
        return ops_per_clock * clock_hz / 4.0 / 1e9;
      default:
        return 0.0; // FP32 is not an Ncore datatype (Table II: N/A).
    }
}

double
X86CostModel::nodeSeconds(const Graph &g, const Node &n) const
{
    const GirTensor &out = g.tensor(n.outputs[0]);
    int64_t out_elems = out.shape.numElements();
    int64_t macs = Graph::nodeMacs(g, n);

    // Achievable fraction of peak for real kernels.
    constexpr double kMacEfficiency = 0.55;
    // Memory-ish ops: bytes moved per core per second.
    const double move_bps = 16.0 * clockHz_; // 16 B/cycle sustained.

    switch (n.kind) {
      case OpKind::Conv2D:
      case OpKind::DepthwiseConv2D:
      case OpKind::FullyConnected: {
        double peak_macs =
            cnsPeakGops(out.dtype, clockHz_) * 1e9 / 2.0;
        return double(macs) / (peak_macs * kMacEfficiency);
      }
      case OpKind::Add:
      case OpKind::Sigmoid:
      case OpKind::Dequantize:
        return double(out_elems) * dtypeSize(out.dtype) * 3.0 / move_bps;
      case OpKind::MaxPool2D:
      case OpKind::AvgPool2D:
        return double(out_elems) *
               double(n.attrs.kernelH * n.attrs.kernelW) / move_bps;
      case OpKind::Pad:
      case OpKind::Concat:
      case OpKind::Reshape:
        return double(out_elems) * dtypeSize(out.dtype) * 2.0 / move_bps;
      case OpKind::Softmax:
        return double(out_elems) * 12.0 / clockHz_; // exp-bound.
      case OpKind::NonMaxSuppression: {
        // Scalar, branchy sort-and-suppress over anchors x classes;
        // dominated by the candidate sort. Calibrated against the SSD
        // x86 share in Table IX (NMS explains most of SSD's 1.18 ms).
        const GirTensor &scores = g.tensor(n.inputs[1]);
        double cand = double(scores.shape.numElements());
        return cand * 9.0 / clockHz_;
      }
    }
    return 0.0;
}

double
X86CostModel::preprocessSeconds(int64_t pixels) const
{
    // Decode tail + resize + normalize + quantize + NHWC pack: ~24
    // scalar-equivalent ops per pixel-channel at an effective 24
    // elements/cycle (vector work plus cache misses; calibrated
    // against the paper's measured x86 shares).
    return double(pixels) * 24.0 / (24.0 * clockHz_);
}

double
X86CostModel::layoutConversionSeconds(int64_t bytes) const
{
    // Strided gather/scatter between NHWC and Ncore's internal layout.
    return double(bytes) * 2.0 / (16.0 * clockHz_);
}

} // namespace ncore
