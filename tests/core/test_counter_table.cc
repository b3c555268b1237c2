#include <gtest/gtest.h>

#include "core/counter_table.h"
#include "core/ingest_kernels_ref.h"
#include "support/bytes.h"

namespace mhp {
namespace {

/**
 * One event's saturating +1 on one counter, as the profilers apply it:
 * the bump kernels' per-event spec with n = 1 over raw() storage.
 * Returns the counter's new value.
 */
uint64_t
bump(CounterTable &t, uint32_t index)
{
    return kernel_ref::bumpMin(t.raw(), &index, 1, t.maxValue());
}

TEST(CounterTable, StartsZeroed)
{
    CounterTable t(16, 24);
    for (uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(t.value(i), 0u);
    EXPECT_EQ(t.size(), 16u);
}

TEST(CounterTable, IncrementReturnsNewValue)
{
    CounterTable t(4, 24);
    EXPECT_EQ(bump(t, 2), 1u);
    EXPECT_EQ(bump(t, 2), 2u);
    EXPECT_EQ(t.value(2), 2u);
    EXPECT_EQ(t.value(1), 0u);
}

TEST(CounterTable, SaturatesAtWidth)
{
    CounterTable t(2, 3); // max 7
    for (int i = 0; i < 20; ++i)
        bump(t, 0);
    EXPECT_EQ(t.value(0), 7u);
    EXPECT_EQ(t.maxValue(), 7u);
    EXPECT_EQ(bump(t, 0), 7u);
}

TEST(CounterTable, PaperCounterWidthIs3Bytes)
{
    CounterTable t(2048, 24);
    EXPECT_EQ(t.maxValue(), (1ULL << 24) - 1);
}

TEST(CounterTable, ResetSingle)
{
    // The resetting optimization zeroes a promoted tuple's counters
    // through raw() storage; its neighbours keep their counts.
    CounterTable t(4, 24);
    bump(t, 1);
    bump(t, 1);
    bump(t, 2);
    t.raw()[1] = 0;
    EXPECT_EQ(t.value(1), 0u);
    EXPECT_EQ(t.value(2), 1u);
    EXPECT_EQ(bump(t, 1), 1u);
}

TEST(CounterTable, FlushClearsAll)
{
    CounterTable t(8, 24);
    for (uint32_t i = 0; i < 8; ++i)
        bump(t, i);
    t.flush();
    for (uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(t.value(i), 0u);
}

TEST(CounterTable, StateRoundTripsEveryValue)
{
    CounterTable t(4, 3); // max 7
    bump(t, 0); // 1
    bump(t, 1);
    bump(t, 1); // 2
    for (int i = 0; i < 9; ++i)
        bump(t, 2); // saturated at 7
    ByteBuffer blob;
    t.saveState(blob);

    CounterTable restored(4, 3);
    ByteCursor cursor(blob.data(), blob.size());
    ASSERT_TRUE(restored.loadState(cursor).isOk());
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(restored.value(i), t.value(i)) << "counter " << i;
    EXPECT_EQ(restored.value(2), 7u);

    // A narrower table cannot hold the saturated value.
    CounterTable narrow(4, 2); // max 3
    ByteCursor again(blob.data(), blob.size());
    EXPECT_EQ(narrow.loadState(again).code(), StatusCode::CorruptData);
}

TEST(CounterTableDeathTest, RejectsBadShape)
{
    EXPECT_EXIT(CounterTable(0, 24), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(CounterTable(4, 0), ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(CounterTable(4, 65), ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace mhp
