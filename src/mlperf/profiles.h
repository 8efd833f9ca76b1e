/**
 * @file
 * Workload profiling for the evaluation harness: builds each benchmark
 * model, runs one cycle-accurate inference on the simulated Ncore, and
 * derives the per-inference component breakdown (Ncore portion, x86
 * portion, serial overhead) that Tables VII-IX and Figs 11-14 are
 * computed from. Nothing is cached: every call simulates, and the
 * paper-evaluation bench (bench/paper_eval) measures all four
 * workloads once per run and prints every table and figure from that
 * one measurement.
 *
 * CALIBRATED CONSTANTS (see DESIGN.md section 3 and EXPERIMENTS.md):
 *  - kUnhiddenFraction: the share of the x86 work that batching cannot
 *    hide ("other x86 overhead not accounted for in either the
 *    TensorFlow-Lite or MLPerf frameworks", paper VI-C), one global
 *    constant fitted to the paper's observed Offline asymptotes.
 *  - kGnmtFrameworkSeconds: per-sentence TensorFlow overhead for GNMT
 *    (the paper attributes its low GNMT throughput to the immature
 *    TF-based stack and anticipates significant improvement).
 */

#ifndef NCORE_MLPERF_PROFILES_H
#define NCORE_MLPERF_PROFILES_H

#include <string>
#include <vector>

#include "mlperf/pipeline.h"
#include "ncore/machine.h"
#include "telemetry/profile.h"

namespace ncore {

constexpr double kUnhiddenFraction = 0.30;
constexpr double kGnmtFrameworkSeconds = 75e-3;

/** The four MLPerf v0.5 workloads the paper submitted. */
enum class Workload { MobileNetV1, ResNet50, SsdMobileNet, Gnmt };

const char *workloadName(Workload w);

/** Short model key of a workload ("mobilenet_v1", ...); names
 *  profile JSON files and WorkloadProfile::model. */
const char *workloadKey(Workload w);

/** Simulate one workload and derive its profile. */
WorkloadProfile measureWorkload(Workload w);

/**
 * All four profiles in Table V order, simulated concurrently, one
 * simulator Machine per thread (each profile run is fully
 * independent).
 */
std::vector<WorkloadProfile> measureAllWorkloads();

/**
 * Run one cycle-exact inference of `w` with the microarchitectural
 * profiler attached and return the per-layer roofline report
 * (telemetry/profile.h): cycle budget, stall breakdown, achieved MAC
 * utilization and bytes moved per graph op. CNNs profile through the
 * full compile/runtime stack (layer attribution joins the compiler's
 * event tags back to gir nodes); GNMT runs its per-matmul programs
 * under host marks.
 */
ProfileReport profileWorkloadReport(
    Workload w, ExecEngine engine = ExecEngine::Specialized);

} // namespace ncore

#endif // NCORE_MLPERF_PROFILES_H
