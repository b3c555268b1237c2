#include <gtest/gtest.h>

#include <vector>

#include "analysis/interval_runner.h"
#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "fixtures/vector_source.h"

namespace mhp {
namespace {

/** 3 intervals of 100 events: tuple {1,1} x50, {2,2} x30, rest noise. */
std::vector<Tuple>
syntheticStream(int intervals)
{
    std::vector<Tuple> out;
    for (int iv = 0; iv < intervals; ++iv) {
        for (int i = 0; i < 50; ++i)
            out.push_back({1, 1});
        for (int i = 0; i < 30; ++i)
            out.push_back({2, 2});
        for (int i = 0; i < 20; ++i) {
            out.push_back({1000 + static_cast<uint64_t>(iv * 20 + i),
                           static_cast<uint64_t>(i)});
        }
    }
    return out;
}

ProfilerConfig
smallConfig()
{
    ProfilerConfig c;
    c.intervalLength = 100;
    c.candidateThreshold = 0.1; // threshold count 10
    c.totalHashEntries = 128;
    c.numHashTables = 2;
    return c;
}

TEST(IntervalRunner, PerfectProfilerScoresZero)
{
    VectorSource src(syntheticStream(3));
    EventSourceCursor cursor(src);
    PerfectProfiler reference(10);
    const RunOutput out =
        runIntervalsStream(cursor, {&reference}, 100, 10, 3);
    ASSERT_EQ(out.intervalsCompleted, 3u);
    const RunResult &r = out.results[0];
    EXPECT_DOUBLE_EQ(r.averageError().total(), 0.0);
    EXPECT_DOUBLE_EQ(r.meanPerfectCandidates(), 2.0);
    EXPECT_DOUBLE_EQ(r.meanHardwareCandidates(), 2.0);
}

TEST(IntervalRunner, CapturesBothCandidates)
{
    VectorSource src(syntheticStream(3));
    EventSourceCursor cursor(src);
    auto profiler = makeProfiler(smallConfig());
    const RunOutput out =
        runIntervalsStream(cursor, {profiler.get()}, 100, 10, 3);
    const RunResult &r = out.results[0];
    ASSERT_EQ(r.intervals.size(), 3u);
    for (const auto &score : r.intervals)
        EXPECT_EQ(score.hardwareCandidates, 2u);
    // Accurate capture: near-zero error on this easy stream.
    EXPECT_LT(r.averageErrorPercent(), 5.0);
}

TEST(IntervalRunner, TracksEventsConsumed)
{
    VectorSource src(syntheticStream(3));
    EventSourceCursor cursor(src);
    auto profiler = makeProfiler(smallConfig());
    const RunOutput out =
        runIntervalsStream(cursor, {profiler.get()}, 100, 10, 3);
    EXPECT_EQ(out.eventsConsumed, 300u);
}

TEST(IntervalRunner, DiscardsPartialFinalInterval)
{
    auto events = syntheticStream(2);
    events.resize(150); // 1.5 intervals
    VectorSource src(std::move(events));
    EventSourceCursor cursor(src);
    auto profiler = makeProfiler(smallConfig());
    const RunOutput out =
        runIntervalsStream(cursor, {profiler.get()}, 100, 10, 5);
    EXPECT_EQ(out.intervalsCompleted, 1u);
    EXPECT_EQ(out.results[0].intervals.size(), 1u);
}

TEST(IntervalRunner, MultipleProfilersSeeTheSameStream)
{
    VectorSource src(syntheticStream(2));
    EventSourceCursor cursor(src);
    auto p1 = makeProfiler(smallConfig());
    auto cfg2 = smallConfig();
    cfg2.numHashTables = 1;
    cfg2.resetOnPromote = true; // single hash without reset may add FPs
    auto p2 = makeProfiler(cfg2);
    const RunOutput out =
        runIntervalsStream(cursor, {p1.get(), p2.get()}, 100, 10, 2);
    ASSERT_EQ(out.results.size(), 2u);
    EXPECT_EQ(out.results[0].intervals.size(), 2u);
    EXPECT_EQ(out.results[1].intervals.size(), 2u);
    // Both captured the two easy candidates.
    EXPECT_GE(out.results[0].meanHardwareCandidates(), 2.0);
    EXPECT_GE(out.results[1].meanHardwareCandidates(), 2.0);
}

TEST(IntervalRunner, StreamStatsCountDistinctTuples)
{
    VectorSource src(syntheticStream(3));
    EventSourceCursor cursor(src);
    auto profiler = makeProfiler(smallConfig());
    const RunOutput out =
        runIntervalsStream(cursor, {profiler.get()}, 100, 10, 3);
    ASSERT_EQ(out.stream.distinctTuples.size(), 3u);
    // 2 hot + 20 unique noise tuples per interval.
    for (uint64_t d : out.stream.distinctTuples)
        EXPECT_EQ(d, 22u);
    EXPECT_DOUBLE_EQ(out.stream.meanDistinctTuples(), 22.0);
}

TEST(IntervalRunner, ProfilerNamesAreRecorded)
{
    VectorSource src(syntheticStream(1));
    EventSourceCursor cursor(src);
    auto profiler = makeProfiler(smallConfig());
    const RunOutput out =
        runIntervalsStream(cursor, {profiler.get()}, 100, 10, 1);
    EXPECT_EQ(out.results[0].profilerName, "mh2-C1R0P1");
}

TEST(IntervalRunner, EmptyRunResultAveragesAreZero)
{
    RunResult r;
    EXPECT_DOUBLE_EQ(r.averageError().total(), 0.0);
    EXPECT_DOUBLE_EQ(r.meanHardwareCandidates(), 0.0);
    EXPECT_DOUBLE_EQ(r.meanPerfectCandidates(), 0.0);
}

TEST(IntervalRunnerDeathTest, RejectsEmptyProfilerList)
{
    VectorSource src({});
    EventSourceCursor cursor(src);
    EXPECT_EXIT(runIntervalsStream(cursor, {}, 100, 10, 1),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace mhp
