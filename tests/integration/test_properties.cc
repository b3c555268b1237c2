/**
 * @file
 * Property-based tests: invariants that must hold for every profiler
 * configuration over randomized streams (parameterized sweeps).
 */

#include <gtest/gtest.h>

#include <tuple>
#include <unordered_map>

#include "analysis/interval_runner.h"
#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "fixtures/vector_source.h"
#include "support/rng.h"
#include "support/zipf.h"

namespace mhp {
namespace {

// Sweep axes: (numTables, conservativeUpdate, resetOnPromote,
// retaining, streamSeed).
using Params = std::tuple<unsigned, bool, bool, bool, uint64_t>;

class ProfilerProperties : public ::testing::TestWithParam<Params>
{
  protected:
    ProfilerConfig
    config() const
    {
        const auto [tables, conservative, reset, retain, seed] =
            GetParam();
        ProfilerConfig c;
        c.intervalLength = 2000;
        c.candidateThreshold = 0.01; // threshold 20
        c.totalHashEntries = 256;
        c.numHashTables = tables;
        c.conservativeUpdate = conservative;
        c.resetOnPromote = reset;
        c.retaining = retain;
        c.seed = 1000 + seed;
        return c;
    }

    /** A Zipf stream with a known hot set plus uniform noise. */
    std::vector<Tuple>
    makeStream(uint64_t seed, uint64_t events) const
    {
        Rng rng(seed);
        ZipfDistribution hot(200, 1.1);
        std::vector<Tuple> out;
        out.reserve(events);
        for (uint64_t i = 0; i < events; ++i) {
            if (rng.nextBool(0.6)) {
                out.push_back({hot.sample(rng) * 4 + 0x1000, 7});
            } else {
                out.push_back({rng.nextBelow(50'000) * 4 + 0x900000,
                               rng.nextBelow(16)});
            }
        }
        return out;
    }
};

TEST_P(ProfilerProperties, SnapshotsRespectStructuralInvariants)
{
    const auto cfg = config();
    const auto stream = makeStream(std::get<4>(GetParam()), 10'000);
    auto profiler = makeProfiler(cfg);
    PerfectProfiler perfect(cfg.thresholdCount());

    size_t pos = 0;
    for (int iv = 0; iv < 5; ++iv) {
        for (uint64_t i = 0; i < cfg.intervalLength; ++i) {
            profiler->onEvent(stream[pos]);
            perfect.onEvent(stream[pos]);
            ++pos;
        }
        const IntervalSnapshot snap = profiler->endInterval();

        // 1. Bounded by the accumulator capacity.
        EXPECT_LE(snap.size(), cfg.accumulatorSize());

        // 2. Every reported candidate is at or above the threshold.
        for (const auto &cand : snap)
            EXPECT_GE(cand.count, cfg.thresholdCount());

        // 3. Canonical order: descending count.
        for (size_t i = 1; i < snap.size(); ++i)
            EXPECT_GE(snap[i - 1].count, snap[i].count);

        // 4. No duplicate tuples in a snapshot.
        std::unordered_map<Tuple, int, TupleHash> seen;
        for (const auto &cand : snap)
            EXPECT_EQ(seen[cand.tuple]++, 0);

        // 5. Every reported tuple actually occurred this interval
        //    (the hardware can overcount but never invent tuples,
        //    except those retained and re-proven above threshold —
        //    which also occurred).
        for (const auto &cand : snap)
            EXPECT_TRUE(perfect.countOf(cand.tuple) > 0);
        perfect.reset();
    }
}

TEST_P(ProfilerProperties, DeterministicAcrossRuns)
{
    const auto cfg = config();
    const auto stream = makeStream(std::get<4>(GetParam()), 6'000);
    auto p1 = makeProfiler(cfg);
    auto p2 = makeProfiler(cfg);
    for (int iv = 0; iv < 3; ++iv) {
        for (uint64_t i = 0; i < cfg.intervalLength; ++i) {
            p1->onEvent(stream[iv * cfg.intervalLength + i]);
            p2->onEvent(stream[iv * cfg.intervalLength + i]);
        }
        EXPECT_EQ(p1->endInterval(), p2->endInterval());
    }
}

TEST_P(ProfilerProperties, ResetGivesFreshStart)
{
    const auto cfg = config();
    const auto stream = makeStream(std::get<4>(GetParam()), 4'000);
    auto p1 = makeProfiler(cfg);
    auto p2 = makeProfiler(cfg);

    // Pollute p1 with half the stream, then reset.
    for (uint64_t i = 0; i < 2000; ++i)
        p1->onEvent(stream[2000 + i]);
    p1->reset();

    for (uint64_t i = 0; i < cfg.intervalLength; ++i) {
        p1->onEvent(stream[i]);
        p2->onEvent(stream[i]);
    }
    EXPECT_EQ(p1->endInterval(), p2->endInterval());
}

TEST_P(ProfilerProperties, HeavyHitterIsNeverMissed)
{
    // A tuple taking >30% of the stream must always be captured by
    // any configuration (it crosses every counter threshold fast).
    const auto cfg = config();
    auto stream = makeStream(std::get<4>(GetParam()), 2000);
    const Tuple whale{0xabcd0, 42};
    for (size_t i = 0; i < stream.size(); i += 3)
        stream[i] = whale;
    auto profiler = makeProfiler(cfg);
    for (const auto &t : stream)
        profiler->onEvent(t);
    const IntervalSnapshot snap = profiler->endInterval();
    bool found = false;
    for (const auto &cand : snap)
        found |= cand.tuple == whale;
    EXPECT_TRUE(found);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, ProfilerProperties,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Bool(), // conservative update
                       ::testing::Bool(), // reset on promote
                       ::testing::Bool(), // retaining
                       ::testing::Values(0ULL, 1ULL)),
    [](const ::testing::TestParamInfo<Params> &info) {
        return "t" + std::to_string(std::get<0>(info.param)) + "_C" +
               std::to_string(std::get<1>(info.param)) + "R" +
               std::to_string(std::get<2>(info.param)) + "P" +
               std::to_string(std::get<3>(info.param)) + "_s" +
               std::to_string(std::get<4>(info.param));
    });

} // namespace
} // namespace mhp
