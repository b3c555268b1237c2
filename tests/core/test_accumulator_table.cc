#include <gtest/gtest.h>

#include "core/accumulator_table.h"

namespace mhp {
namespace {

constexpr uint64_t kThreshold = 10;

/** The profilers' shield check: count one occurrence of `t` if it has
 *  an entry. */
void
countPresent(AccumulatorTable &acc, const Tuple &t)
{
    const uint32_t slot = acc.probeSlot(t);
    ASSERT_NE(slot, AccumulatorTable::kNoSlot);
    acc.incrementSlotHot(slot);
}

TEST(AccumulatorTable, AbsentTupleIsNotIncremented)
{
    AccumulatorTable acc(4, kThreshold, true);
    EXPECT_EQ(acc.probeSlot({1, 1}), AccumulatorTable::kNoSlot);
    EXPECT_FALSE(acc.contains({1, 1}));
    EXPECT_EQ(acc.size(), 0u);
}

TEST(AccumulatorTable, InsertThenIncrement)
{
    AccumulatorTable acc(4, kThreshold, true);
    EXPECT_TRUE(acc.insert({1, 1}, kThreshold));
    EXPECT_TRUE(acc.contains({1, 1}));
    countPresent(acc, {1, 1});
    EXPECT_EQ(acc.countOf({1, 1}), kThreshold + 1);
}

TEST(AccumulatorTable, PromotedEntriesAreNonReplaceable)
{
    AccumulatorTable acc(4, kThreshold, true);
    acc.insert({1, 1}, kThreshold);
    EXPECT_FALSE(acc.isReplaceable({1, 1}));
}

TEST(AccumulatorTable, FullTableRejectsInsert)
{
    AccumulatorTable acc(2, kThreshold, true);
    EXPECT_TRUE(acc.insert({1, 1}, kThreshold));
    EXPECT_TRUE(acc.insert({2, 2}, kThreshold));
    EXPECT_FALSE(acc.insert({3, 3}, kThreshold));
    EXPECT_EQ(acc.droppedInsertions(), 1u);
    EXPECT_FALSE(acc.contains({3, 3}));
}

TEST(AccumulatorTable, SnapshotContainsOnlyAboveThreshold)
{
    AccumulatorTable acc(4, kThreshold, true);
    acc.insert({1, 1}, kThreshold);     // candidate
    acc.insert({2, 2}, kThreshold + 5); // candidate, higher count
    const IntervalSnapshot snap = acc.endInterval();
    ASSERT_EQ(snap.size(), 2u);
    // Sorted by descending count.
    EXPECT_EQ(snap[0].tuple, (Tuple{2, 2}));
    EXPECT_EQ(snap[0].count, kThreshold + 5);
    EXPECT_EQ(snap[1].tuple, (Tuple{1, 1}));
}

TEST(AccumulatorTable, RetainingKeepsCandidatesAsReplaceable)
{
    AccumulatorTable acc(4, kThreshold, /*retaining=*/true);
    acc.insert({1, 1}, kThreshold);
    (void)acc.endInterval();
    // Entry survives with a zeroed counter, marked replaceable.
    EXPECT_TRUE(acc.contains({1, 1}));
    EXPECT_EQ(acc.countOf({1, 1}), 0u);
    EXPECT_TRUE(acc.isReplaceable({1, 1}));
}

TEST(AccumulatorTable, NoRetainingFlushesEverything)
{
    AccumulatorTable acc(4, kThreshold, /*retaining=*/false);
    acc.insert({1, 1}, kThreshold);
    (void)acc.endInterval();
    EXPECT_FALSE(acc.contains({1, 1}));
    EXPECT_EQ(acc.size(), 0u);
}

TEST(AccumulatorTable, RetainedEntryRepinsWhenCrossingThreshold)
{
    AccumulatorTable acc(4, kThreshold, true);
    acc.insert({1, 1}, kThreshold);
    (void)acc.endInterval();
    // Increment up to threshold again: becomes non-replaceable.
    for (uint64_t i = 0; i < kThreshold - 1; ++i)
        countPresent(acc, {1, 1});
    EXPECT_TRUE(acc.isReplaceable({1, 1}));
    countPresent(acc, {1, 1});
    EXPECT_FALSE(acc.isReplaceable({1, 1}));
}

TEST(AccumulatorTable, RetainedSubThresholdEntriesAreDropped)
{
    AccumulatorTable acc(4, kThreshold, true);
    acc.insert({1, 1}, kThreshold);
    (void)acc.endInterval(); // {1,1} retained, count 0
    countPresent(acc, {1, 1});
    // Still below threshold at next interval end: flushed.
    const IntervalSnapshot snap = acc.endInterval();
    EXPECT_TRUE(snap.empty());
    EXPECT_FALSE(acc.contains({1, 1}));
}

TEST(AccumulatorTable, ReplaceableEntriesAreEvictedForNewPromotions)
{
    AccumulatorTable acc(2, kThreshold, true);
    acc.insert({1, 1}, kThreshold);
    acc.insert({2, 2}, kThreshold);
    (void)acc.endInterval(); // both retained as replaceable
    // Table is "full" but both slots are replaceable: a new promotion
    // must evict one.
    EXPECT_TRUE(acc.insert({3, 3}, kThreshold));
    EXPECT_TRUE(acc.contains({3, 3}));
    EXPECT_EQ(acc.size(), 2u);
}

TEST(AccumulatorTable, EmptySlotsPreferredOverEviction)
{
    AccumulatorTable acc(3, kThreshold, true);
    acc.insert({1, 1}, kThreshold);
    (void)acc.endInterval(); // {1,1} replaceable
    acc.insert({2, 2}, kThreshold);
    // {1,1} must still be present: an empty slot was available.
    EXPECT_TRUE(acc.contains({1, 1}));
    EXPECT_TRUE(acc.contains({2, 2}));
}

TEST(AccumulatorTable, ResetDropsRetainedEntries)
{
    AccumulatorTable acc(4, kThreshold, true);
    acc.insert({1, 1}, kThreshold);
    (void)acc.endInterval();
    acc.reset();
    EXPECT_FALSE(acc.contains({1, 1}));
    EXPECT_EQ(acc.droppedInsertions(), 0u);
}

TEST(AccumulatorTable, SnapshotCountsAreExactAfterPromotion)
{
    AccumulatorTable acc(4, kThreshold, true);
    acc.insert({1, 1}, kThreshold);
    for (int i = 0; i < 7; ++i)
        countPresent(acc, {1, 1});
    const IntervalSnapshot snap = acc.endInterval();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].count, kThreshold + 7);
}

TEST(AccumulatorTable, EvictionChurnKeepsProbeChainsBounded)
{
    // Regression test for tombstone rot: before the index re-packed
    // itself, a long eviction churn filled the probe index with
    // tombstone lanes, and probes for absent tuples degraded toward
    // full-index scans (a tombstone never ends a chain — only an
    // empty lane does). The rebuild trigger must keep at least a
    // quarter of the lanes empty, which bounds every chain.
    const uint64_t capacity = 64;
    AccumulatorTable acc(capacity, 10, true);
    // Fill with replaceable entries, then churn: every insert evicts
    // one replaceable entry (a tombstone) and adds a fresh key.
    uint64_t next = 1;
    for (uint64_t i = 0; i < capacity; ++i)
        ASSERT_TRUE(acc.insert({next++, 0}, 1));
    for (int round = 0; round < 10'000; ++round)
        ASSERT_TRUE(acc.insert({next++, 0}, 1));
    EXPECT_EQ(acc.size(), capacity);

    // Chains stay short for present keys and, critically, for absent
    // probes (the hot path: most events are not in the accumulator).
    size_t worst = 0;
    for (uint64_t probe = 0; probe < 4096; ++probe)
        worst = std::max(worst,
                         acc.probeChainLength({next + probe, 99}));
    EXPECT_LE(worst, 3u);
}

TEST(AccumulatorTable, ChurnNeverLosesEntries)
{
    // The re-pack must preserve membership exactly: every surviving
    // slot stays probe-able through arbitrary churn.
    AccumulatorTable acc(16, 5, true);
    uint64_t next = 1;
    std::vector<Tuple> inserted;
    for (int round = 0; round < 2'000; ++round) {
        const Tuple t{next++, 7};
        ASSERT_TRUE(acc.insert(t, 1));
        inserted.push_back(t);
        ASSERT_TRUE(acc.contains(t));
        ASSERT_EQ(acc.countOf(t), 1u);
        // Exactly size() of everything ever inserted is still
        // probe-able (which eviction victims were chosen is the
        // table's business; losing or duplicating keys is not).
        if (round % 250 == 0) {
            size_t present = 0;
            for (const Tuple &k : inserted)
                present += acc.contains(k) ? 1 : 0;
            EXPECT_EQ(present, acc.size());
        }
    }
}

TEST(AccumulatorTableDeathTest, RejectsBadShape)
{
    EXPECT_EXIT(AccumulatorTable(0, 10, true),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(AccumulatorTable(4, 0, true),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace mhp
