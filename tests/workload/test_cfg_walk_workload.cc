#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "analysis/interval_runner.h"
#include "core/factory.h"
#include "workload/cfg_walk_workload.h"

namespace mhp {
namespace {

CfgWalkConfig
smallConfig()
{
    CfgWalkConfig c;
    c.seed = 3;
    c.nodes = 200;
    return c;
}

TEST(CfgWalk, IsDeterministicPerSeed)
{
    CfgWalkWorkload a(smallConfig()), b(smallConfig());
    for (int i = 0; i < 5000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(CfgWalk, DifferentSeedsDiffer)
{
    auto cfg = smallConfig();
    CfgWalkWorkload a(cfg);
    cfg.seed = 4;
    CfgWalkWorkload b(cfg);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 500);
}

TEST(CfgWalk, EdgesAreConsecutiveInTheWalk)
{
    // Each event's source must be the previous event's target: a
    // genuine walk, not i.i.d. sampling.
    CfgWalkWorkload w(smallConfig());
    Tuple prev = w.next();
    for (int i = 0; i < 5000; ++i) {
        const Tuple cur = w.next();
        EXPECT_EQ(cur.first, prev.second);
        prev = cur;
    }
}

TEST(CfgWalk, TargetsComeFromTheGraph)
{
    CfgWalkWorkload w(smallConfig());
    std::unordered_set<uint64_t> pcs;
    for (uint64_t n = 0; n < w.nodeCount(); ++n)
        pcs.insert(w.pcOf(n));
    for (int i = 0; i < 5000; ++i) {
        const Tuple t = w.next();
        EXPECT_TRUE(pcs.count(t.first));
        EXPECT_TRUE(pcs.count(t.second));
    }
}

TEST(CfgWalk, BranchesHaveAtMostFourTargets)
{
    CfgWalkWorkload w(smallConfig());
    std::unordered_map<uint64_t, std::unordered_set<uint64_t>> targets;
    for (int i = 0; i < 50'000; ++i) {
        const Tuple t = w.next();
        targets[t.first].insert(t.second);
    }
    int multiway = 0;
    for (const auto &[pc, tgts] : targets) {
        EXPECT_LE(tgts.size(), 4u);
        multiway += tgts.size() > 2 ? 1 : 0;
    }
    // switchFraction 0.1 over 200 nodes: some multiway nodes exist.
    EXPECT_GT(multiway, 0);
}

TEST(CfgWalk, LoopBiasConcentratesMass)
{
    // Back-edges of loop headers dominate: the hottest edge should
    // carry far more than 1/edges of the mass.
    CfgWalkWorkload w(smallConfig());
    std::unordered_map<Tuple, uint64_t, TupleHash> counts;
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        ++counts[w.next()];
    uint64_t best = 0;
    for (const auto &[t, c] : counts)
        best = std::max(best, c);
    EXPECT_GT(static_cast<double>(best) / n,
              5.0 / static_cast<double>(counts.size()));
}

TEST(CfgWalk, MultiHashProfilesCorrelatedStreamAccurately)
{
    // The Fig. 14 conclusion must hold on correlated streams: the
    // best multi-hash profiler tracks a CFG walk with low error.
    // A compact graph, so loop back-edges clear the 1% threshold.
    CfgWalkWorkload w(smallConfig());
    auto profiler = makeProfiler(bestMultiHashConfig(10'000, 0.01));
    const RunOutput out = runIntervals(w, {profiler.get()}, 10'000, 100, 10);
    ASSERT_EQ(out.intervalsCompleted, 10u);
    EXPECT_LT(out.results[0].averageErrorPercent(), 5.0);
    EXPECT_GT(out.results[0].meanHardwareCandidates(), 0.0);
}

TEST(CfgWalkDeathTest, RejectsBadConfig)
{
    auto cfg = smallConfig();
    cfg.nodes = 1;
    EXPECT_EXIT(CfgWalkWorkload{cfg}, ::testing::ExitedWithCode(1), "");
    cfg = smallConfig();
    cfg.loopBias = 1.0;
    EXPECT_EXIT(CfgWalkWorkload{cfg}, ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace mhp
