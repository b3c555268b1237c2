#include <gtest/gtest.h>

#include <vector>

#include "analysis/candidate_stats.h"
#include "fixtures/vector_source.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

TEST(CandidateStats, CountsDistinctAndCandidates)
{
    // Interval = 100 events: {1,1} x60, 40 unique noise tuples.
    std::vector<Tuple> events;
    for (int iv = 0; iv < 2; ++iv) {
        for (int i = 0; i < 60; ++i)
            events.push_back({1, 1});
        for (int i = 0; i < 40; ++i) {
            events.push_back(
                {static_cast<uint64_t>(1000 + iv * 40 + i), 0});
        }
    }
    VectorSource src(std::move(events));
    const CandidateAnalysis a = analyzeCandidates(src, 100, 10, 2);
    EXPECT_EQ(a.intervalsCompleted, 2u);
    EXPECT_DOUBLE_EQ(a.distinctPerInterval.mean(), 41.0);
    EXPECT_DOUBLE_EQ(a.candidatesPerInterval.mean(), 1.0);
}

TEST(CandidateStats, IdenticalIntervalsHaveZeroVariation)
{
    std::vector<Tuple> events;
    for (int iv = 0; iv < 3; ++iv) {
        for (int i = 0; i < 50; ++i)
            events.push_back({1, 1});
        for (int i = 0; i < 50; ++i)
            events.push_back({2, 2});
    }
    VectorSource src(std::move(events));
    const CandidateAnalysis a = analyzeCandidates(src, 100, 10, 3);
    ASSERT_EQ(a.variations.size(), 2u);
    EXPECT_DOUBLE_EQ(a.variations[0], 0.0);
    EXPECT_DOUBLE_EQ(a.variations[1], 0.0);
}

TEST(CandidateStats, DisjointCandidateSetsAre100Percent)
{
    std::vector<Tuple> events;
    for (int i = 0; i < 100; ++i)
        events.push_back({1, 1});
    for (int i = 0; i < 100; ++i)
        events.push_back({2, 2});
    VectorSource src(std::move(events));
    const CandidateAnalysis a = analyzeCandidates(src, 100, 10, 2);
    ASSERT_EQ(a.variations.size(), 1u);
    EXPECT_DOUBLE_EQ(a.variations[0], 100.0);
}

TEST(CandidateStats, HalfOverlapIsJaccardDistance)
{
    // Interval 1 candidates: {1},{2}; interval 2: {2},{3}.
    // Jaccard distance = 1 - 1/3.
    std::vector<Tuple> events;
    for (int i = 0; i < 50; ++i)
        events.push_back({1, 1});
    for (int i = 0; i < 50; ++i)
        events.push_back({2, 2});
    for (int i = 0; i < 50; ++i)
        events.push_back({2, 2});
    for (int i = 0; i < 50; ++i)
        events.push_back({3, 3});
    VectorSource src(std::move(events));
    const CandidateAnalysis a = analyzeCandidates(src, 100, 10, 2);
    ASSERT_EQ(a.variations.size(), 1u);
    EXPECT_NEAR(a.variations[0], 100.0 * (1.0 - 1.0 / 3.0), 1e-9);
}

TEST(CandidateStats, QuantilesAreOrderStatistics)
{
    CandidateAnalysis a;
    a.variations = {10.0, 20.0, 30.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(a.variationQuantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(a.variationQuantile(1.0), 50.0);
    EXPECT_DOUBLE_EQ(a.variationQuantile(0.5), 30.0);
    EXPECT_DOUBLE_EQ(a.variationQuantile(0.25), 20.0);
}

TEST(CandidateStats, QuantileOfEmptyIsZero)
{
    CandidateAnalysis a;
    EXPECT_DOUBLE_EQ(a.variationQuantile(0.5), 0.0);
}

TEST(CandidateStats, DistinctTuplesGrowWithIntervalLength)
{
    // The Fig. 4 shape on a real benchmark model.
    auto w1 = makeValueWorkload("gcc");
    const CandidateAnalysis short_iv =
        analyzeCandidates(*w1, 10'000, 100, 5);
    auto w2 = makeValueWorkload("gcc");
    const CandidateAnalysis long_iv =
        analyzeCandidates(*w2, 100'000, 1000, 5);
    EXPECT_GT(long_iv.distinctPerInterval.mean(),
              3.0 * short_iv.distinctPerInterval.mean());
}

TEST(CandidateStats, CandidateCountRoughlyFlatAcrossIntervalLength)
{
    // The Fig. 5 shape: candidates stay the same order of magnitude.
    auto w1 = makeValueWorkload("li");
    const CandidateAnalysis short_iv =
        analyzeCandidates(*w1, 10'000, 100, 5);
    auto w2 = makeValueWorkload("li");
    const CandidateAnalysis long_iv =
        analyzeCandidates(*w2, 100'000, 1000, 5);
    EXPECT_LT(long_iv.candidatesPerInterval.mean(),
              4.0 * short_iv.candidatesPerInterval.mean() + 4.0);
    EXPECT_GT(long_iv.candidatesPerInterval.mean(), 0.0);
}

} // namespace
} // namespace mhp
