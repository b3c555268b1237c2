/**
 * @file
 * Integration tests that pin the paper's qualitative claims at small
 * scale. Benches reproduce the full figures; these tests guard the
 * directional results so regressions are caught in CI.
 */

#include <gtest/gtest.h>

#include "analysis/candidate_stats.h"
#include "analysis/interval_runner.h"
#include "core/adaptive_interval.h"
#include "core/factory.h"
#include "core/theory.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

/** Run one profiler over a benchmark and return its average error %. */
double
errorFor(const std::string &bench, const ProfilerConfig &cfg,
         uint64_t intervals)
{
    auto workload = makeValueWorkload(bench);
    auto profiler = makeProfiler(cfg);
    EventSourceCursor cursor(*workload);
    const RunOutput out =
        runIntervalsStream(cursor, {profiler.get()}, cfg.intervalLength,
                           cfg.thresholdCount(), intervals);
    return out.results[0].averageErrorPercent();
}

TEST(PaperClaims, MultiHashBeatsSingleHashOnNoisyPrograms)
{
    // Section 6.4.1: on gcc and go, the 4-table C1R0 profiler clearly
    // outperforms the best single-hash configuration.
    for (const std::string bench : {"gcc", "go"}) {
        const double single =
            errorFor(bench, bestSingleHashConfig(10'000, 0.01), 8);
        const double multi =
            errorFor(bench, bestMultiHashConfig(10'000, 0.01), 8);
        EXPECT_LT(multi, single) << bench;
    }
}

TEST(PaperClaims, BestMultiHashErrorIsLowOnEasyPrograms)
{
    for (const std::string bench : {"li", "m88ksim", "vortex"}) {
        const double err =
            errorFor(bench, bestMultiHashConfig(10'000, 0.01), 8);
        EXPECT_LT(err, 5.0) << bench;
    }
}

TEST(PaperClaims, ResettingReducesSingleHashFalsePositives)
{
    // Section 5.4.2 / Figure 7: R1 cuts the FP component.
    auto run = [&](bool reset) {
        auto cfg = bestSingleHashConfig(10'000, 0.01);
        cfg.resetOnPromote = reset;
        auto workload = makeValueWorkload("gcc");
        auto profiler = makeProfiler(cfg);
        EventSourceCursor cursor(*workload);
        const RunOutput out = runIntervalsStream(
            cursor, {profiler.get()}, 10'000, cfg.thresholdCount(), 8);
        return out.results[0].averageError().falsePositive;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(PaperClaims, RetainingReducesSingleHashError)
{
    // Section 5.4.1 / Figure 7: P1 lowers total error (recurring
    // candidates are shielded from the hash table).
    auto run = [&](bool retain) {
        auto cfg = bestSingleHashConfig(10'000, 0.01);
        cfg.retaining = retain;
        auto workload = makeValueWorkload("m88ksim");
        auto profiler = makeProfiler(cfg);
        EventSourceCursor cursor(*workload);
        const RunOutput out = runIntervalsStream(
            cursor, {profiler.get()}, 10'000, cfg.thresholdCount(), 8);
        return out.results[0].averageErrorPercent();
    };
    EXPECT_LE(run(true), run(false) + 0.5);
}

TEST(PaperClaims, ConservativeUpdateHelpsMultiHash)
{
    // Section 6.3: C1-R0 is the best multi-hash configuration; C0
    // inflates counters and with them false positives on noisy input.
    auto run = [&](bool conservative) {
        auto cfg = bestMultiHashConfig(10'000, 0.01);
        cfg.conservativeUpdate = conservative;
        auto workload = makeValueWorkload("go");
        auto profiler = makeProfiler(cfg);
        EventSourceCursor cursor(*workload);
        const RunOutput out = runIntervalsStream(
            cursor, {profiler.get()}, 10'000, cfg.thresholdCount(), 8);
        return out.results[0].averageError().falsePositive;
    };
    EXPECT_LE(run(true), run(false));
}

TEST(PaperClaims, ImmediateResetCausesFalseNegativesInMultiHash)
{
    // Section 6.3: R1 loses partial counts of genuine candidates.
    auto run = [&](bool reset) {
        auto cfg = bestMultiHashConfig(10'000, 0.01);
        cfg.resetOnPromote = reset;
        auto workload = makeValueWorkload("go");
        auto profiler = makeProfiler(cfg);
        EventSourceCursor cursor(*workload);
        const RunOutput out = runIntervalsStream(
            cursor, {profiler.get()}, 10'000, cfg.thresholdCount(), 8);
        return out.results[0].averageError().falseNegative;
    };
    EXPECT_GE(run(true), run(false));
}

TEST(PaperClaims, DistinctTuplesGrowCandidatesDoNot)
{
    // Figures 4 and 5: distinct tuples scale with interval length;
    // candidate counts do not.
    auto w1 = makeValueWorkload("sis");
    const CandidateAnalysis at10k =
        analyzeCandidates(*w1, 10'000, 100, 6);
    auto w2 = makeValueWorkload("sis");
    const CandidateAnalysis at100k =
        analyzeCandidates(*w2, 100'000, 1000, 6);

    EXPECT_GT(at100k.distinctPerInterval.mean(),
              4.0 * at10k.distinctPerInterval.mean());
    EXPECT_LT(at100k.candidatesPerInterval.mean(),
              3.0 * at10k.candidatesPerInterval.mean() + 3.0);
}

TEST(PaperClaims, BurstyProgramsVaryMoreAtShortIntervals)
{
    // Figure 6: m88ksim-style programs see higher candidate variation
    // at 10K than their long-interval behaviour suggests.
    auto w1 = makeValueWorkload("m88ksim");
    const CandidateAnalysis short_iv =
        analyzeCandidates(*w1, 10'000, 100, 20);
    // The long interval must cover the full burst cycle (20 groups x
    // 10K events) several times, as the paper's 1M intervals do.
    auto w2 = makeValueWorkload("m88ksim");
    const CandidateAnalysis long_iv =
        analyzeCandidates(*w2, 1'000'000, 10'000, 4);
    EXPECT_GT(short_iv.variationQuantile(0.5),
              long_iv.variationQuantile(0.5));
}

TEST(PaperClaims, TheoryPredictsFourTablesNearOptimalFor2K)
{
    // Fig. 9 with 2000 entries at 1%: optimum in the 4-8 range; the
    // empirical best in the paper is 4.
    const unsigned best = optimalTableCount(2000, 1.0, 16);
    EXPECT_GE(best, 3u);
    EXPECT_LE(best, 8u);
}

TEST(PaperClaims, AdaptiveControllerGrowsOnStablePrograms)
{
    // Section 5.6.1 future work, exercised on real workload models:
    // li's candidates are stable at 10K, so the controller should
    // lengthen the interval.
    auto workload = makeValueWorkload("li");
    AdaptiveIntervalConfig acfg;
    acfg.minLength = 10'000;
    acfg.maxLength = 160'000;
    acfg.holdIntervals = 2;
    AdaptiveIntervalController controller(acfg, 10'000);
    auto profiler = makeProfiler(bestMultiHashConfig(10'000, 0.01));

    for (int iv = 0; iv < 12; ++iv) {
        for (uint64_t i = 0; i < controller.currentLength(); ++i)
            profiler->onEvent(workload->next());
        controller.onIntervalEnd(profiler->endInterval());
    }
    EXPECT_GT(controller.currentLength(), 10'000u);
    EXPECT_GT(controller.changes(), 0u);
}

TEST(PaperClaims, AdaptiveControllerHoldsShortOnBurstyPrograms)
{
    // m88ksim's candidate set rotates every 10K events: consecutive
    // short intervals disagree strongly, so the controller must not
    // grow the interval.
    auto workload = makeValueWorkload("m88ksim");
    AdaptiveIntervalConfig acfg;
    acfg.minLength = 10'000;
    acfg.maxLength = 160'000;
    acfg.holdIntervals = 2;
    AdaptiveIntervalController controller(acfg, 10'000);
    auto profiler = makeProfiler(bestMultiHashConfig(10'000, 0.01));

    for (int iv = 0; iv < 12; ++iv) {
        for (uint64_t i = 0; i < controller.currentLength(); ++i)
            profiler->onEvent(workload->next());
        controller.onIntervalEnd(profiler->endInterval());
    }
    EXPECT_EQ(controller.currentLength(), 10'000u);
}

TEST(PaperClaims, AverageErrorUnderOnePercentAtBestConfig)
{
    // The headline: "average error less than 1%" for the best
    // multi-hash configuration (10K/1% here; the 1M/0.1% variant is
    // exercised by the benches at scale).
    double total = 0.0;
    for (const auto &bench : benchmarkNames())
        total += errorFor(bench, bestMultiHashConfig(10'000, 0.01), 6);
    const double avg = total / benchmarkNames().size();
    EXPECT_LT(avg, 2.0); // small-scale bound; benches show < 1%
}

} // namespace
} // namespace mhp
