#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/multi_hash_profiler.h"

namespace mhp {
namespace {

TEST(Factory, OneTableIsTheSingleHashDesign)
{
    // The single-hash design is the one-table MultiHashProfiler. It
    // keeps its own name, which has no C: one counter makes C0 and C1
    // the same profiler.
    for (const bool conservative : {false, true}) {
        ProfilerConfig c;
        c.numHashTables = 1;
        c.resetOnPromote = true;
        c.retaining = false;
        c.conservativeUpdate = conservative;
        auto p = makeProfiler(c);
        ASSERT_NE(dynamic_cast<MultiHashProfiler *>(p.get()), nullptr);
        EXPECT_EQ(p->name(), "sh-R1P0");
    }
}

TEST(Factory, MultipleTablesYieldMultiHash)
{
    ProfilerConfig c;
    c.numHashTables = 4;
    auto p = makeProfiler(c);
    ASSERT_NE(p, nullptr);
    EXPECT_NE(dynamic_cast<MultiHashProfiler *>(p.get()), nullptr);
}

TEST(Factory, BestMultiHashMatchesPaperSection64)
{
    const ProfilerConfig c = bestMultiHashConfig(1'000'000, 0.001);
    EXPECT_EQ(c.numHashTables, 4u);
    EXPECT_TRUE(c.conservativeUpdate);
    EXPECT_FALSE(c.resetOnPromote);
    EXPECT_TRUE(c.retaining);
    EXPECT_EQ(c.totalHashEntries, 2048u);
    EXPECT_EQ(c.thresholdCount(), 1000u);
    auto p = makeProfiler(c);
    EXPECT_EQ(p->name(), "mh4-C1R0P1");
}

TEST(Factory, BestSingleHashMatchesPaperSection56)
{
    const ProfilerConfig c = bestSingleHashConfig(10'000, 0.01);
    EXPECT_EQ(c.numHashTables, 1u);
    EXPECT_TRUE(c.resetOnPromote);
    EXPECT_TRUE(c.retaining);
    auto p = makeProfiler(c);
    EXPECT_EQ(p->name(), "sh-R1P1");
}

TEST(Factory, ProfilersAreFunctionalOutOfTheBox)
{
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        ProfilerConfig c;
        c.intervalLength = 100;
        c.candidateThreshold = 0.05;
        c.totalHashEntries = 128;
        c.numHashTables = n;
        auto p = makeProfiler(c);
        for (int i = 0; i < 50; ++i)
            p->onEvent({1, 1});
        const IntervalSnapshot snap = p->endInterval();
        ASSERT_EQ(snap.size(), 1u) << n << " tables";
        EXPECT_EQ(snap[0].count, 50u);
    }
}

TEST(FactoryDeathTest, InvalidConfigIsFatal)
{
    ProfilerConfig c;
    c.intervalLength = 0;
    EXPECT_EXIT((void)makeProfiler(c), ::testing::ExitedWithCode(1),
                "");
}

} // namespace
} // namespace mhp
