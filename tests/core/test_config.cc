#include <gtest/gtest.h>

#include "core/config.h"

namespace mhp {
namespace {

TEST(ProfilerConfig, ThresholdCountPaperValues)
{
    ProfilerConfig c;
    c.intervalLength = 10'000;
    c.candidateThreshold = 0.01;
    EXPECT_EQ(c.thresholdCount(), 100u);

    c.intervalLength = 1'000'000;
    c.candidateThreshold = 0.001;
    EXPECT_EQ(c.thresholdCount(), 1000u);
}

TEST(ProfilerConfig, ThresholdCountRoundsUpAndFloorsAtOne)
{
    ProfilerConfig c;
    c.intervalLength = 150;
    c.candidateThreshold = 0.01; // 1.5 -> 2
    EXPECT_EQ(c.thresholdCount(), 2u);

    c.intervalLength = 10;
    c.candidateThreshold = 0.001; // 0.01 -> 1 (floor)
    EXPECT_EQ(c.thresholdCount(), 1u);
}

TEST(ProfilerConfig, AccumulatorSizeBound)
{
    // Section 5.1: 1% -> 100 entries, 0.1% -> 1000 entries.
    ProfilerConfig c;
    c.candidateThreshold = 0.01;
    EXPECT_EQ(c.accumulatorSize(), 100u);
    c.candidateThreshold = 0.001;
    EXPECT_EQ(c.accumulatorSize(), 1000u);
}

TEST(ProfilerConfig, ExplicitAccumulatorOverride)
{
    ProfilerConfig c;
    c.accumulatorEntries = 64;
    EXPECT_EQ(c.accumulatorSize(), 64u);
}

TEST(ProfilerConfig, EntriesPerTable)
{
    ProfilerConfig c;
    c.totalHashEntries = 2048;
    c.numHashTables = 4;
    EXPECT_EQ(c.entriesPerTable(), 512u);
    c.numHashTables = 16;
    EXPECT_EQ(c.entriesPerTable(), 128u);
}

TEST(ProfilerConfig, DescribeMentionsKeyKnobs)
{
    ProfilerConfig c;
    c.numHashTables = 4;
    const std::string d = c.describe();
    EXPECT_NE(d.find("mh4"), std::string::npos);
    EXPECT_NE(d.find("2048e"), std::string::npos);

    c.numHashTables = 1;
    EXPECT_NE(c.describe().find("sh1"), std::string::npos);
}

TEST(ProfilerConfig, CheckRefusesWhatConstructionAbortsOn)
{
    // Every refusal here used to pass check() and then abort inside
    // the hash functions or the counter bank instead.
    ProfilerConfig c;
    EXPECT_TRUE(c.check().isOk());

    c.totalHashEntries = 3000; // 750 per table: not a power of two
    EXPECT_EQ(c.check().code(), StatusCode::InvalidArgument);
    c.numHashTables = 3; // 2048 / 3 = 682
    c.totalHashEntries = 2048;
    EXPECT_EQ(c.check().code(), StatusCode::InvalidArgument);
    c.numHashTables = 1; // one entry per table
    c.totalHashEntries = 1;
    EXPECT_EQ(c.check().code(), StatusCode::InvalidArgument);
    c.totalHashEntries = 2;
    EXPECT_TRUE(c.check().isOk());

    c = ProfilerConfig{};
    c.numHashTables = 2; // 2^32 entries: past 32-bit bank indexing
    c.totalHashEntries = 1ULL << 32;
    EXPECT_EQ(c.check().code(), StatusCode::InvalidArgument);
    c.totalHashEntries = 1ULL << 31;
    EXPECT_TRUE(c.check().isOk());
}

TEST(ProfilerConfig, CheckBoundsTheAccumulator)
{
    // ceil(1 / threshold) entries, bounded: a 1e-7 threshold asked for
    // a 10^7-entry accumulator and a 1e-30 one for more than 64 bits
    // hold. Every config at or below the bound keeps its size.
    ProfilerConfig c;
    c.candidateThreshold = 1.0 / static_cast<double>(
                                     kMaxAccumulatorEntries);
    EXPECT_EQ(c.accumulatorSize(), kMaxAccumulatorEntries);
    EXPECT_TRUE(c.check().isOk());

    c.candidateThreshold = 0.0000001;
    EXPECT_EQ(c.accumulatorSize(), 10'000'000u);
    const Status refused = c.check();
    EXPECT_EQ(refused.code(), StatusCode::InvalidArgument);
    EXPECT_NE(refused.message().find("10000000-entry accumulator"),
              std::string::npos)
        << refused.toString();
    EXPECT_EQ(c.checkAtEdge().code(), StatusCode::InvalidArgument);

    c.candidateThreshold = 1e-30;
    EXPECT_EQ(c.accumulatorSize(), UINT64_MAX);
    EXPECT_EQ(c.check().code(), StatusCode::InvalidArgument);

    c = ProfilerConfig{};
    c.accumulatorEntries = kMaxAccumulatorEntries + 1; // explicit size
    EXPECT_EQ(c.check().code(), StatusCode::InvalidArgument);
    c.accumulatorEntries = kMaxAccumulatorEntries;
    EXPECT_TRUE(c.check().isOk());
}

TEST(ProfilerConfig, EdgeCheckRefusesCountersThatCannotReachThreshold)
{
    // 8-bit counters saturate at 255: at 1M/1% (threshold count
    // 10000) nothing is ever promoted, a silently empty profile. The
    // ablation benches build such configs on purpose, so check()
    // alone still passes them.
    ProfilerConfig c;
    c.counterBits = 8;
    c.intervalLength = 1'000'000;
    c.candidateThreshold = 0.01;
    EXPECT_TRUE(c.check().isOk());
    const Status refused = c.checkAtEdge();
    EXPECT_EQ(refused.code(), StatusCode::InvalidArgument);
    EXPECT_NE(refused.message().find("255"), std::string::npos)
        << refused.toString();

    c.intervalLength = 10'000; // threshold count 100 fits in 255
    EXPECT_TRUE(c.checkAtEdge().isOk());
    c.intervalLength = 25'500;
    ASSERT_EQ(c.thresholdCount(), 255u);
    EXPECT_TRUE(c.checkAtEdge().isOk());
    c.intervalLength = 25'600;
    EXPECT_FALSE(c.checkAtEdge().isOk());

    c = ProfilerConfig{};
    c.totalHashEntries = 3000; // check()'s rules apply at the edge too
    EXPECT_FALSE(c.checkAtEdge().isOk());
}

TEST(ProfilerConfig, EdgeCheckRefusesIntervalsPastExactCounting)
{
    // The scoring oracle counts a tuple in 32 bits; an interval of at
    // most UINT32_MAX events can never wrap it.
    ProfilerConfig c;
    c.counterBits = 32; // reaches the threshold count at any length
    c.intervalLength = UINT32_MAX;
    EXPECT_TRUE(c.checkAtEdge().isOk());
    c.intervalLength = uint64_t{UINT32_MAX} + 1;
    EXPECT_TRUE(c.check().isOk());
    const Status refused = c.checkAtEdge();
    EXPECT_EQ(refused.code(), StatusCode::InvalidArgument);
    EXPECT_NE(refused.message().find("4294967296"), std::string::npos)
        << refused.toString();
}

TEST(ProfilerConfigDeathTest, ValidateRejectsNonsense)
{
    ProfilerConfig c;
    c.intervalLength = 0;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "");

    c = ProfilerConfig{};
    c.candidateThreshold = 0.0;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "");

    c = ProfilerConfig{};
    c.candidateThreshold = 1.5;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "");

    c = ProfilerConfig{};
    c.numHashTables = 0;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "");

    c = ProfilerConfig{};
    c.totalHashEntries = 4;
    c.numHashTables = 8;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "");

    c = ProfilerConfig{};
    c.totalHashEntries = 3000;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "power of two");
}

} // namespace
} // namespace mhp
