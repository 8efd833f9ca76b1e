/**
 * @file
 * MLPerf harness tests: SingleStream percentile semantics, Offline
 * bookkeeping, and the multicore batching pipeline model (paper VI-C)
 * — saturation behavior, core-count math against the paper's numbers,
 * and the expected/observed relationship of Figs 13/14.
 */

#include <gtest/gtest.h>

#include "mlperf/loadgen.h"
#include "mlperf/pipeline.h"

namespace ncore {
namespace {

TEST(Loadgen, SingleStreamPercentilesOrdered)
{
    SingleStreamResult r = runSingleStream(
        [](int q) { return 1e-3 + (q % 10) * 1e-4; }, 500);
    EXPECT_EQ(r.queries, 500);
    EXPECT_LE(r.p50, r.p90);
    EXPECT_LE(r.p90, r.p99);
    EXPECT_GT(r.p50, 1e-3);
    EXPECT_LT(r.p99, 2.2e-3);
}

TEST(Loadgen, JitterIsOneSidedAndBounded)
{
    // Constant SUT: all variation comes from the modeled run-manager
    // jitter, which only ever lengthens a query.
    SingleStreamResult r =
        runSingleStream([](int) { return 1e-3; }, 200, 0.05);
    EXPECT_GE(r.p50, 1e-3);
    EXPECT_LE(r.p99, 1e-3 * 1.051);
}

TEST(Loadgen, SingleStreamPercentileMathIsExact)
{
    // Known latencies, no jitter: query q takes (q+1) ms, so the
    // sorted sample is 1..100 ms and percentiles interpolate linearly
    // on index p*(n-1): p50 -> 50.5 ms, p90 -> 90.1 ms, p99 -> 99.01.
    SingleStreamResult r = runSingleStream(
        [](int q) { return (q + 1) * 1e-3; }, 100,
        /*jitter_frac=*/0.0);
    EXPECT_NEAR(r.mean, 50.5e-3, 1e-12);
    EXPECT_NEAR(r.p50, 50.5e-3, 1e-12);
    EXPECT_NEAR(r.p90, 90.1e-3, 1e-12);
    EXPECT_NEAR(r.p99, 99.01e-3, 1e-12);
}

/** The paper's own Table IX numbers drive the pipeline model. */
WorkloadProfile
paperProfile(double ncore_ms, double x86_ms)
{
    WorkloadProfile p;
    p.ncoreSeconds = ncore_ms * 1e-3;
    p.x86Seconds = x86_ms * 1e-3;
    p.unhiddenSeconds = 0;
    return p;
}

TEST(Pipeline, SaturationCoreCountsMatchPaper)
{
    // Paper VI-C: "we would expect to need only two x86 cores ...
    // ResNet-50 ... MobileNet-V1 would need four ... SSD-MobileNet-V1
    // would need five."
    EXPECT_EQ(coresToSaturate(paperProfile(0.71, 0.34)), 2);
    EXPECT_EQ(coresToSaturate(paperProfile(0.11, 0.22)), 4);
    EXPECT_EQ(coresToSaturate(paperProfile(0.36, 1.18)), 5);
}

TEST(Pipeline, SaturationHandlesDegenerateProfiles)
{
    // No x86 share: one worker trivially keeps up.
    EXPECT_EQ(coresToSaturate(paperProfile(0.71, 0.0)), 2);
    // No Ncore share: the coprocessor is never the bottleneck.
    EXPECT_EQ(coresToSaturate(paperProfile(0.0, 0.34)), 2);
    // Both zero (empty profile) still answers sanely.
    EXPECT_EQ(coresToSaturate(paperProfile(0.0, 0.0)), 2);
    // Huge x86/ncore ratio still reports at least one worker + driver.
    EXPECT_GE(coresToSaturate(paperProfile(1e-6, 10.0)), 2);
}

TEST(Pipeline, ExpectedIpsSaturatesAtNcoreRate)
{
    WorkloadProfile p = paperProfile(0.71, 0.34);
    double max_rate = 1.0 / p.ncoreSeconds;
    EXPECT_LT(expectedIps(p, 1), max_rate + 1e-9);
    for (int c = 2; c <= 8; ++c)
        EXPECT_NEAR(expectedIps(p, c), max_rate, 1.0);
    // Monotone non-decreasing in cores.
    for (int c = 1; c < 8; ++c)
        EXPECT_LE(expectedIps(p, c), expectedIps(p, c + 1) + 1e-9);
}

TEST(Pipeline, ObservedNeverExceedsExpected)
{
    WorkloadProfile p = paperProfile(0.11, 0.22);
    p.unhiddenSeconds = 0.3 * p.x86Seconds;
    for (int c = 1; c <= 8; ++c)
        EXPECT_LE(observedIps(p, c), expectedIps(p, c) + 1e-9);
}

TEST(Pipeline, NoBatchingDegeneratesToSingleBatch)
{
    WorkloadProfile p = paperProfile(0.36, 1.18);
    p.batchingSupported = false;
    double single = 1.0 / singleStreamSeconds(p);
    for (int c = 1; c <= 8; ++c)
        EXPECT_DOUBLE_EQ(observedIps(p, c), single);
    // The paper's SSD numbers: 651.89 IPS vs 1/1.54ms = 649 IPS.
    EXPECT_NEAR(single, 649.3, 1.0);
}

TEST(Pipeline, PaperAsymptotesReproduceWithCalibratedUnhidden)
{
    // With the global 30% unhidden fraction, the paper's Table IX
    // components land near its observed Offline asymptotes.
    WorkloadProfile mb = paperProfile(0.11, 0.22);
    mb.unhiddenSeconds = 0.3 * mb.x86Seconds;
    EXPECT_NEAR(observedIps(mb, 8), 6042.0, 500.0);

    WorkloadProfile rn = paperProfile(0.71, 0.34);
    rn.unhiddenSeconds = 0.3 * rn.x86Seconds;
    EXPECT_NEAR(observedIps(rn, 8), 1218.0, 80.0);
}

} // namespace
} // namespace ncore
