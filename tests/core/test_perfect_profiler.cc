#include <gtest/gtest.h>

#include "core/perfect_profiler.h"

namespace mhp {
namespace {

TEST(PerfectProfiler, CountsExactly)
{
    PerfectProfiler p(3);
    for (int i = 0; i < 5; ++i)
        p.onEvent({1, 1});
    p.onEvent({2, 2});
    EXPECT_EQ(p.distinctTuples(), 2u);
    EXPECT_EQ(p.countOf({1, 1}), 5u);
    EXPECT_EQ(p.countOf({2, 2}), 1u);
}

TEST(PerfectProfiler, SnapshotAppliesThreshold)
{
    PerfectProfiler p(3);
    for (int i = 0; i < 5; ++i)
        p.onEvent({1, 1});
    for (int i = 0; i < 3; ++i)
        p.onEvent({2, 2});
    p.onEvent({3, 3});
    const IntervalSnapshot snap = p.endInterval();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].tuple, (Tuple{1, 1}));
    EXPECT_EQ(snap[0].count, 5u);
    EXPECT_EQ(snap[1].tuple, (Tuple{2, 2}));
}

TEST(PerfectProfiler, EndIntervalClearsState)
{
    PerfectProfiler p(2);
    p.onEvent({1, 1});
    p.onEvent({1, 1});
    (void)p.endInterval();
    EXPECT_EQ(p.distinctTuples(), 0u);
    const IntervalSnapshot snap = p.endInterval();
    EXPECT_TRUE(snap.empty());
}

TEST(PerfectProfiler, ResetClears)
{
    PerfectProfiler p(2);
    p.onEvent({1, 1});
    p.reset();
    EXPECT_EQ(p.distinctTuples(), 0u);
}

TEST(PerfectProfiler, TakeCountsReturnsTheIntervalAndClears)
{
    PerfectProfiler p(2);
    for (int i = 0; i < 3; ++i)
        p.onEvent({1, 1});
    p.onEvent({2, 2});
    const auto counts = p.takeCounts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts.at({1, 1}), 3u);
    EXPECT_EQ(counts.at({2, 2}), 1u);
    EXPECT_EQ(p.distinctTuples(), 0u);
    EXPECT_EQ(p.countOf({1, 1}), 0u);
    EXPECT_TRUE(p.candidates().empty());
}

TEST(PerfectProfiler, HasNoHardwareArea)
{
    PerfectProfiler p(2);
    EXPECT_EQ(p.areaBytes(), 0u);
    EXPECT_EQ(p.name(), "perfect");
}

TEST(PerfectProfiler, SnapshotIsCanonicallySorted)
{
    PerfectProfiler p(1);
    p.onEvent({5, 5});
    p.onEvent({3, 3});
    p.onEvent({3, 3});
    p.onEvent({4, 4});
    const IntervalSnapshot snap = p.endInterval();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].count, 2u); // highest count first
    // Ties broken by tuple members ascending.
    EXPECT_EQ(snap[1].tuple, (Tuple{4, 4}));
    EXPECT_EQ(snap[2].tuple, (Tuple{5, 5}));
}

TEST(PerfectProfiler, AcceptAdapterWorks)
{
    PerfectProfiler p(1);
    EventSink &sink = p;
    sink.accept({9, 9});
    EXPECT_EQ(p.distinctTuples(), 1u);
}

} // namespace
} // namespace mhp
