/**
 * @file
 * The single-hash design (paper Section 5) is MultiHashProfiler with
 * one table: these tests pin its Section 5 behaviour, hashing through
 * the TupleHasher the design specifies, and the one-table invariants
 * (C0 and C1 coincide, which is why the name sh-RxPy omits C).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/hash_function.h"
#include "core/multi_hash_profiler.h"
#include "support/rng.h"

namespace mhp {
namespace {

ProfilerConfig
baseConfig()
{
    ProfilerConfig c;
    c.intervalLength = 1000;
    c.candidateThreshold = 0.01; // threshold count 10
    c.totalHashEntries = 256;
    c.numHashTables = 1;
    c.retaining = true;
    c.resetOnPromote = false;
    c.seed = 777;
    return c;
}

/** Find a tuple that hashes to the same index as `target`. */
Tuple
findAlias(const ProfilerConfig &c, const Tuple &target)
{
    TupleHasher hasher(c.seed, c.totalHashEntries);
    const uint64_t want = hasher.index(target);
    for (uint64_t i = 1;; ++i) {
        const Tuple probe{0x9000000 + i * 4, i * 13 + 1};
        if (probe == target)
            continue;
        if (hasher.index(probe) == want)
            return probe;
    }
}

/** Find a tuple that does NOT alias with `target`. */
Tuple
findNonAlias(const ProfilerConfig &c, const Tuple &target)
{
    TupleHasher hasher(c.seed, c.totalHashEntries);
    const uint64_t want = hasher.index(target);
    for (uint64_t i = 1;; ++i) {
        const Tuple probe{0xa000000 + i * 4, i * 7 + 3};
        if (hasher.index(probe) != want)
            return probe;
    }
}

TEST(SingleHashProfiler, FrequentTupleBecomesCandidate)
{
    MultiHashProfiler p(baseConfig());
    const Tuple hot{1, 1};
    for (int i = 0; i < 50; ++i)
        p.onEvent(hot);
    const IntervalSnapshot snap = p.endInterval();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].tuple, hot);
    // Promoted at the threshold (10) and exactly counted after: 50.
    EXPECT_EQ(snap[0].count, 50u);
}

TEST(SingleHashProfiler, RareTupleIsNotCandidate)
{
    MultiHashProfiler p(baseConfig());
    for (int i = 0; i < 9; ++i)
        p.onEvent({1, 1}); // one below threshold
    const IntervalSnapshot snap = p.endInterval();
    EXPECT_TRUE(snap.empty());
}

TEST(SingleHashProfiler, ExactlyThresholdIsCandidate)
{
    MultiHashProfiler p(baseConfig());
    for (int i = 0; i < 10; ++i)
        p.onEvent({1, 1});
    const IntervalSnapshot snap = p.endInterval();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].count, 10u);
}

TEST(SingleHashProfiler, ShieldingStopsHashPressureAfterPromotion)
{
    MultiHashProfiler p(baseConfig());
    const Tuple hot{1, 1};
    for (int i = 0; i < 10; ++i)
        p.onEvent(hot); // promoted at count 10
    const uint64_t counter_after_promo = p.counterValueIn(0, hot);
    for (int i = 0; i < 20; ++i)
        p.onEvent(hot); // shielded: counter must not move
    EXPECT_EQ(p.counterValueIn(0, hot), counter_after_promo);
}

TEST(SingleHashProfiler, AliasingCausesFalsePositiveWithoutReset)
{
    auto cfg = baseConfig();
    cfg.resetOnPromote = false;
    MultiHashProfiler p(cfg);
    const Tuple hot{1, 1};
    const Tuple alias = findAlias(cfg, hot);

    for (int i = 0; i < 10; ++i)
        p.onEvent(hot); // counter reaches 10, hot promoted, no reset
    p.onEvent(alias);   // counter now 11 >= threshold: alias promoted!
    const IntervalSnapshot snap = p.endInterval();
    ASSERT_EQ(snap.size(), 2u); // hot + the false positive
}

TEST(SingleHashProfiler, ResettingPreventsThatFalsePositive)
{
    auto cfg = baseConfig();
    cfg.resetOnPromote = true;
    MultiHashProfiler p(cfg);
    const Tuple hot{1, 1};
    const Tuple alias = findAlias(cfg, hot);

    for (int i = 0; i < 10; ++i)
        p.onEvent(hot); // promoted; counter reset to 0
    p.onEvent(alias);   // counter back to 1 only
    const IntervalSnapshot snap = p.endInterval();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].tuple, hot);
}

TEST(SingleHashProfiler, NonAliasedTuplesCountIndependently)
{
    auto cfg = baseConfig();
    MultiHashProfiler p(cfg);
    const Tuple a{1, 1};
    const Tuple b = findNonAlias(cfg, a);
    for (int i = 0; i < 9; ++i) {
        p.onEvent(a);
        p.onEvent(b);
    }
    // Each has 9 < 10: neither promoted.
    EXPECT_TRUE(p.endInterval().empty());
}

TEST(SingleHashProfiler, EndIntervalFlushesHashTable)
{
    MultiHashProfiler p(baseConfig());
    const Tuple t{1, 1};
    for (int i = 0; i < 9; ++i)
        p.onEvent(t);
    (void)p.endInterval();
    EXPECT_EQ(p.counterValueIn(0, t), 0u);
    // 9 more in the new interval: still below threshold.
    for (int i = 0; i < 9; ++i)
        p.onEvent(t);
    EXPECT_TRUE(p.endInterval().empty());
}

TEST(SingleHashProfiler, UnflushedTablesLeakAcrossIntervals)
{
    auto cfg = baseConfig();
    cfg.flushHashTables = false;
    cfg.retaining = false;
    MultiHashProfiler p(cfg);
    const Tuple t{1, 1};
    // 6 occurrences per interval: never a candidate within one.
    for (int iv = 0; iv < 2; ++iv) {
        for (int i = 0; i < 6; ++i)
            p.onEvent(t);
        (void)p.endInterval();
    }
    // Third interval: the stale 12 already exceed the threshold, so
    // the very first occurrence promotes it — a false positive by the
    // paper's per-interval definition.
    p.onEvent(t);
    const IntervalSnapshot snap = p.endInterval();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_GE(snap[0].count, 10u);
}

TEST(SingleHashProfiler, FlushedTablesDoNotLeak)
{
    auto cfg = baseConfig();
    cfg.retaining = false;
    MultiHashProfiler p(cfg);
    const Tuple t{1, 1};
    for (int iv = 0; iv < 3; ++iv) {
        for (int i = 0; i < 6; ++i)
            p.onEvent(t);
        EXPECT_TRUE(p.endInterval().empty()) << "interval " << iv;
    }
}

TEST(SingleHashProfiler, RetainingShieldsRecurringCandidates)
{
    auto cfg = baseConfig();
    cfg.retaining = true;
    MultiHashProfiler p(cfg);
    const Tuple hot{1, 1};
    for (int i = 0; i < 20; ++i)
        p.onEvent(hot);
    (void)p.endInterval();
    // Next interval: the retained entry counts in the accumulator;
    // the hash counter must stay untouched.
    for (int i = 0; i < 15; ++i)
        p.onEvent(hot);
    EXPECT_EQ(p.counterValueIn(0, hot), 0u);
    const IntervalSnapshot snap = p.endInterval();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].count, 15u); // exact: no hash-table phase at all
}

TEST(SingleHashProfiler, NoRetainingRequiresRepromotion)
{
    auto cfg = baseConfig();
    cfg.retaining = false;
    MultiHashProfiler p(cfg);
    const Tuple hot{1, 1};
    for (int i = 0; i < 20; ++i)
        p.onEvent(hot);
    (void)p.endInterval();
    for (int i = 0; i < 9; ++i)
        p.onEvent(hot); // below threshold, not promoted again
    EXPECT_TRUE(p.endInterval().empty());
}

TEST(SingleHashProfiler, ResetClearsRetainedState)
{
    MultiHashProfiler p(baseConfig());
    for (int i = 0; i < 20; ++i)
        p.onEvent({1, 1});
    (void)p.endInterval();
    p.reset();
    for (int i = 0; i < 9; ++i)
        p.onEvent({1, 1});
    EXPECT_TRUE(p.endInterval().empty());
}

TEST(SingleHashProfiler, NameEncodesOptions)
{
    auto cfg = baseConfig();
    cfg.resetOnPromote = true;
    cfg.retaining = false;
    MultiHashProfiler p(cfg);
    EXPECT_EQ(p.name(), "sh-R1P0");
}

TEST(SingleHashProfiler, AreaIsPositive)
{
    MultiHashProfiler p(baseConfig());
    EXPECT_GT(p.areaBytes(), 0u);
}

TEST(OneTable, ConservativeUpdateIsInvisible)
{
    // On one counter, "bump the minimum" is every bump: C0 and C1 must
    // write identical snapshots and counters, whatever R, P and
    // shielding are.
    Rng rng(0xc0c1);
    std::vector<Tuple> stream(12'000);
    for (Tuple &t : stream) {
        const uint64_t r = rng.next();
        const uint64_t key = (r & 1) ? (r >> 1) % 24 : (r >> 1) % 3000;
        t = {0x400000 + 4 * key, key % 5};
    }
    for (const bool reset : {false, true}) {
        for (const bool retain : {false, true}) {
            for (const bool shielding : {false, true}) {
                auto cfg = baseConfig();
                cfg.resetOnPromote = reset;
                cfg.retaining = retain;
                cfg.shielding = shielding;
                cfg.conservativeUpdate = false;
                MultiHashProfiler c0(cfg);
                cfg.conservativeUpdate = true;
                MultiHashProfiler c1(cfg);
                ASSERT_EQ(c0.name(), c1.name());
                for (size_t at = 0; at < stream.size(); at += 500) {
                    c0.onEvents(stream.data() + at, 500);
                    c1.onEvents(stream.data() + at, 500);
                    ASSERT_EQ(c0.counterValueIn(0, stream[at]),
                              c1.counterValueIn(0, stream[at]));
                    if ((at + 500) % cfg.intervalLength == 0) {
                        ASSERT_EQ(c0.endInterval(), c1.endInterval())
                            << c0.name() << " shielding=" << shielding
                            << " at " << at;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace mhp
