/**
 * @file
 * SweepRunner determinism and the batched/span runner variants.
 *
 * The sweep engine's contract is bit-identical output for every thread
 * count; these tests pin that down by running the same plan serially
 * and with several workers and comparing every scored field exactly.
 * The batched runIntervalsStream()/runIntervalsSpan() equivalence with a
 * per-event reference run is asserted the same way, and so is the
 * equivalence of grouped cells (one stream, one truth, many profilers)
 * with the same cells run alone.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/interval_runner.h"
#include "analysis/sweep_runner.h"
#include "core/factory.h"
#include "fixtures/vector_source.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "trace/tuple_span.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

void
expectSameScore(const IntervalScore &a, const IntervalScore &b)
{
    EXPECT_EQ(a.breakdown.falsePositive, b.breakdown.falsePositive);
    EXPECT_EQ(a.breakdown.falseNegative, b.breakdown.falseNegative);
    EXPECT_EQ(a.breakdown.neutralPositive, b.breakdown.neutralPositive);
    EXPECT_EQ(a.breakdown.neutralNegative, b.breakdown.neutralNegative);
    EXPECT_EQ(a.counts.falsePositive, b.counts.falsePositive);
    EXPECT_EQ(a.counts.falseNegative, b.counts.falseNegative);
    EXPECT_EQ(a.counts.neutralPositive, b.counts.neutralPositive);
    EXPECT_EQ(a.counts.neutralNegative, b.counts.neutralNegative);
    EXPECT_EQ(a.perfectCandidates, b.perfectCandidates);
    EXPECT_EQ(a.hardwareCandidates, b.hardwareCandidates);
}

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.profilerName, b.profilerName);
    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    for (size_t i = 0; i < a.intervals.size(); ++i)
        expectSameScore(a.intervals[i], b.intervals[i]);
}

/** Every cell of a plain runResilient() sweep, in plan order. */
std::vector<SweepCellResult>
sweepCells(const SweepRunner &runner, unsigned threads)
{
    SweepResilienceOptions options;
    options.threads = threads;
    StatusOr<SweepReport> report = runner.runResilient(options);
    EXPECT_TRUE(report.isOk()) << report.status().toString();
    if (!report.isOk())
        return {};
    EXPECT_TRUE(report->quarantined.empty());
    return std::move(report->results);
}

/**
 * The per-event reference: a one-event staging cursor delivers every
 * tuple as its own onEvents() block.
 */
RunOutput
runPerEvent(EventSource &source, HardwareProfiler &profiler,
            uint64_t intervalLength, uint64_t thresholdCount,
            uint64_t numIntervals)
{
    EventSourceCursor cursor(source, 1);
    StreamRunOptions options;
    options.batchSize = 1;
    return runIntervalsStream(cursor, {&profiler}, intervalLength,
                              thresholdCount, numIntervals, options);
}

SweepPlan
smallPlan()
{
    SweepPlan plan;
    plan.benchmarks = {"gcc", "go"};
    plan.intervals = 4;
    plan.workloadSeed = 3;
    plan.intervalLengths = {1000, 4000};
    ProfilerConfig best = bestMultiHashConfig(1000, 0.01);
    best.totalHashEntries = 512;
    plan.configs.push_back({"mh4", best});
    ProfilerConfig single = bestSingleHashConfig(1000, 0.01);
    single.totalHashEntries = 512;
    plan.configs.push_back({"bsh", single});
    return plan;
}

TEST(SweepRunner, CellCountIsTheFullCross)
{
    const SweepRunner runner(smallPlan());
    EXPECT_EQ(runner.cellCount(), 2u * 2u * 2u);
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults)
{
    const SweepRunner runner(smallPlan());
    const auto serial = sweepCells(runner, 1);
    const auto threaded = sweepCells(runner, 4);

    ASSERT_EQ(serial.size(), runner.cellCount());
    ASSERT_EQ(threaded.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        const SweepCellResult &a = serial[i];
        const SweepCellResult &b = threaded[i];
        EXPECT_EQ(a.benchmark, b.benchmark);
        EXPECT_EQ(a.configLabel, b.configLabel);
        EXPECT_EQ(a.intervalLength, b.intervalLength);
        EXPECT_EQ(a.thresholdCount, b.thresholdCount);
        EXPECT_EQ(a.eventsConsumed, b.eventsConsumed);
        EXPECT_EQ(a.intervalsCompleted, b.intervalsCompleted);
        EXPECT_EQ(a.stream.distinctTuples, b.stream.distinctTuples);
        expectSameRun(a.run, b.run);
    }
}

TEST(SweepRunner, ResultsArriveInPlanOrder)
{
    const SweepRunner runner(smallPlan());
    const auto results = sweepCells(runner, 4);
    ASSERT_EQ(results.size(), 8u);
    size_t i = 0;
    for (size_t b = 0; b < 2; ++b) {
        for (size_t c = 0; c < 2; ++c) {
            for (size_t l = 0; l < 2; ++l, ++i) {
                EXPECT_EQ(results[i].benchmarkIndex, b);
                EXPECT_EQ(results[i].configIndex, c);
                EXPECT_EQ(results[i].intervalLengthIndex, l);
            }
        }
    }
}

/** A stream shared by the runner-equivalence tests. */
std::vector<Tuple>
sampleStream(size_t total)
{
    std::vector<Tuple> out;
    auto source = makeValueWorkload("vortex", 5);
    out.reserve(total);
    while (out.size() < total && !source->done())
        out.push_back(source->next());
    return out;
}

TEST(RunnerVariants, BatchedMatchesPerEvent)
{
    const auto events = sampleStream(5000);
    ProfilerConfig cfg = bestMultiHashConfig(1000, 0.01);
    cfg.totalHashEntries = 512;

    auto p1 = makeProfiler(cfg);
    VectorSource src1(events);
    const RunOutput serial = runPerEvent(src1, *p1, 1000, 10, 5);

    auto p2 = makeProfiler(cfg);
    VectorSource src2(events);
    EventSourceCursor cursor(src2, 333);
    StreamRunOptions options;
    options.batchSize = 333;
    const RunOutput batched =
        runIntervalsStream(cursor, {p2.get()}, 1000, 10, 5, options);

    EXPECT_EQ(serial.eventsConsumed, batched.eventsConsumed);
    EXPECT_EQ(serial.intervalsCompleted, batched.intervalsCompleted);
    expectSameRun(serial.results[0], batched.results[0]);
}

TEST(RunnerVariants, SpanMatchesPerEvent)
{
    const auto events = sampleStream(5000);
    ProfilerConfig cfg = bestMultiHashConfig(1000, 0.01);
    cfg.totalHashEntries = 512;

    auto p1 = makeProfiler(cfg);
    VectorSource src1(events);
    const RunOutput serial = runPerEvent(src1, *p1, 1000, 10, 5);

    for (unsigned threads : {1u, 4u}) {
        auto p2 = makeProfiler(cfg);
        BatchedRunOptions options;
        options.batchSize = 256;
        options.threads = threads;
        const RunOutput span = runIntervalsSpan(
            TupleSpan(events.data(), events.size()), {p2.get()}, 1000,
            10, 5, options);

        EXPECT_EQ(serial.eventsConsumed, span.eventsConsumed);
        EXPECT_EQ(serial.intervalsCompleted, span.intervalsCompleted);
        EXPECT_EQ(serial.stream.distinctTuples,
                  span.stream.distinctTuples);
        expectSameRun(serial.results[0], span.results[0]);
    }
}

TEST(RunnerVariants, SpanDiscardsPartialFinalInterval)
{
    const auto events = sampleStream(1500); // 1.5 intervals
    ProfilerConfig cfg = bestMultiHashConfig(1000, 0.01);
    cfg.totalHashEntries = 512;
    auto p = makeProfiler(cfg);
    const RunOutput out = runIntervalsSpan(
        TupleSpan(events.data(), events.size()), {p.get()}, 1000, 10, 5);
    EXPECT_EQ(out.intervalsCompleted, 1u);
    EXPECT_EQ(out.results[0].intervals.size(), 1u);
    // The partial tail is consumed (like the per-event runner on a
    // finite source) but not scored.
    EXPECT_EQ(out.eventsConsumed, 1500u);
}

TEST(RunnerVariants, SpanKeepsSnapshotsOnRequest)
{
    const auto events = sampleStream(3000);
    ProfilerConfig cfg = bestMultiHashConfig(1000, 0.01);
    cfg.totalHashEntries = 512;

    BatchedRunOptions options;
    options.keepSnapshots = true;
    auto p1 = makeProfiler(cfg);
    const RunOutput kept = runIntervalsSpan(
        TupleSpan(events.data(), events.size()), {p1.get()}, 1000, 10,
        3, options);
    ASSERT_EQ(kept.snapshots.size(), 1u);
    ASSERT_EQ(kept.snapshots[0].size(), 3u);

    // The kept snapshots are exactly what a plain profiler run yields.
    auto p2 = makeProfiler(cfg);
    for (size_t iv = 0; iv < 3; ++iv) {
        p2->onEvents(events.data() + iv * 1000, 1000);
        EXPECT_EQ(p2->endInterval(), kept.snapshots[0][iv])
            << "interval " << iv;
    }

    // Without the option, snapshots stay empty.
    auto p3 = makeProfiler(cfg);
    const RunOutput dropped = runIntervalsSpan(
        TupleSpan(events.data(), events.size()), {p3.get()}, 1000, 10,
        3);
    EXPECT_TRUE(dropped.snapshots.empty());
}

/** Mapped-trace sweeps: one shared mapping, one cursor per cell. */
class TraceSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        tracePath =
            (std::filesystem::temp_directory_path() /
             ("mhp_sweep_trace_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".mht"))
                .string();
        tuples = sampleStream(10'000);
        TraceWriter w(tracePath, ProfileKind::Value);
        for (const auto &t : tuples)
            w.accept(t);
        ASSERT_TRUE(w.close().isOk());
    }

    void TearDown() override { std::remove(tracePath.c_str()); }

    /** A two-config, two-length plan over the recorded trace. */
    SweepPlan
    tracePlan()
    {
        auto map = TraceMap::open(tracePath);
        EXPECT_TRUE(map.isOk()) << map.status().toString();
        SweepPlan plan;
        plan.trace = *map;
        plan.intervals = 4;
        plan.intervalLengths = {1000, 2000};
        plan.batchSize = 333; // never divides either interval length
        ProfilerConfig best = bestMultiHashConfig(1000, 0.01);
        best.totalHashEntries = 512;
        plan.configs.push_back({"mh4", best});
        ProfilerConfig single = bestSingleHashConfig(1000, 0.01);
        single.totalHashEntries = 512;
        plan.configs.push_back({"bsh", single});
        return plan;
    }

    std::string tracePath;
    std::vector<Tuple> tuples;
};

TEST_F(TraceSweepTest, CellsMatchDirectRunsOverTheSameEvents)
{
    const SweepRunner runner(tracePlan());
    const auto cells = sweepCells(runner, 1);
    ASSERT_EQ(cells.size(), 4u); // 1 stream x 2 configs x 2 lengths

    // Every cell must equal a per-event reference run over the same
    // tuples — the mapped path changes plumbing, never results.
    for (const auto &cell : cells) {
        ProfilerConfig cfg =
            runner.plan().configs[cell.configIndex].config;
        cfg.intervalLength = cell.intervalLength;
        auto profiler = makeProfiler(cfg);
        VectorSource source(tuples, ProfileKind::Value, "vector");
        const RunOutput reference =
            runPerEvent(source, *profiler, cfg.intervalLength,
                        cfg.thresholdCount(), 4);
        EXPECT_EQ(cell.benchmark, tracePath); // display name defaults
        EXPECT_EQ(cell.eventsConsumed, reference.eventsConsumed);
        EXPECT_EQ(cell.intervalsCompleted,
                  reference.intervalsCompleted);
        EXPECT_EQ(cell.stream.distinctTuples,
                  reference.stream.distinctTuples);
        expectSameRun(cell.run, reference.results[0]);
    }
}

TEST_F(TraceSweepTest, ThreadCountDoesNotChangeMappedResults)
{
    const SweepRunner runner(tracePlan());
    const auto serial = sweepCells(runner, 1);
    const auto threaded = sweepCells(runner, 4);
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].eventsConsumed, threaded[i].eventsConsumed);
        EXPECT_EQ(serial[i].stream.distinctTuples,
                  threaded[i].stream.distinctTuples);
        expectSameRun(serial[i].run, threaded[i].run);
    }
}

TEST_F(TraceSweepTest, FingerprintCoversTheTraceContent)
{
    const SweepRunner runner(tracePlan());
    const uint64_t withTrace = runner.planFingerprint();

    // The same knobs without the trace fingerprint differently.
    SweepPlan workload = tracePlan();
    workload.trace.reset();
    workload.benchmarks = {"gcc"};
    EXPECT_NE(SweepRunner(std::move(workload)).planFingerprint(),
              withTrace);

    // A doctored trace (one flipped record) fingerprints differently.
    {
        std::fstream f(tracePath, std::ios::binary | std::ios::in |
                                      std::ios::out);
        f.seekp(static_cast<std::streamoff>(kTraceHeaderSize));
        const uint64_t poison = ~0ULL;
        f.write(reinterpret_cast<const char *>(&poison), 8);
    }
    EXPECT_NE(SweepRunner(tracePlan()).planFingerprint(), withTrace);
}

/**
 * Grouped sweeps: runResilient() feeds every cell of one benchmark,
 * interval length and threshold count from one stream and one truth,
 * and each cell must equal the same cell computed alone through
 * runCellResilient(), at every thread count. The fixture's recorded
 * trace serves the mapped-trace plan.
 */
class SweepGroups : public TraceSweepTest
{
  protected:
    /** Every cell computed alone, in plan order. */
    static std::vector<SweepCellResult>
    perCellReference(const SweepRunner &runner)
    {
        std::vector<SweepCellResult> cells;
        for (uint64_t cell = 0; cell < runner.cellCount(); ++cell) {
            CellOutcome outcome = runner.runCellResilient(cell, {});
            EXPECT_TRUE(outcome.status.isOk())
                << outcome.status.toString();
            EXPECT_EQ(outcome.attempts, 1u);
            cells.push_back(std::move(outcome.result));
        }
        return cells;
    }

    /** Grouped runs at 1, 2, 3, 4 and 8 threads equal the reference. */
    static void
    expectGroupedMatchesPerCell(const SweepPlan &plan)
    {
        const SweepRunner runner(plan);
        const auto reference = perCellReference(runner);
        for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            const auto grouped = sweepCells(runner, threads);
            ASSERT_EQ(grouped.size(), reference.size());
            for (size_t cell = 0; cell < grouped.size(); ++cell)
                EXPECT_EQ(grouped[cell], reference[cell])
                    << "cell " << cell;
        }
    }

    /** The small plans' multi-hash config with `tables` tables. */
    static SweepConfig
    multiHash(unsigned tables)
    {
        ProfilerConfig c = bestMultiHashConfig(1000, 0.01);
        c.totalHashEntries = 512;
        c.numHashTables = tables;
        return {"mh" + std::to_string(tables), c};
    }

    /** 2 benchmarks x 3 configs x 2 lengths, one group per length. */
    static SweepPlan
    threeConfigPlan(ProfileKind kind)
    {
        SweepPlan plan = smallPlan();
        plan.kind = kind;
        plan.configs.push_back(multiHash(2));
        return plan;
    }
};

TEST_F(SweepGroups, ValuePlanMatchesPerCellRuns)
{
    expectGroupedMatchesPerCell(threeConfigPlan(ProfileKind::Value));
}

TEST_F(SweepGroups, EdgePlanMatchesPerCellRuns)
{
    expectGroupedMatchesPerCell(threeConfigPlan(ProfileKind::Edge));
}

TEST_F(SweepGroups, PathPlanMatchesPerCellRuns)
{
    expectGroupedMatchesPerCell(threeConfigPlan(ProfileKind::Path));
}

TEST_F(SweepGroups, MappedTracePlanMatchesPerCellRuns)
{
    SweepPlan plan = tracePlan();
    plan.configs.push_back(multiHash(2));
    expectGroupedMatchesPerCell(plan);
}

TEST_F(SweepGroups, ThresholdSplitsABenchmarkIntoTwoGroups)
{
    // At each length the 1% configs share one truth and the 2% config
    // needs another: one benchmark forms two groups per length.
    SweepPlan plan = threeConfigPlan(ProfileKind::Value);
    plan.configs[1].config.candidateThreshold = 0.02;
    ASSERT_NE(plan.configs[0].config.thresholdCount(),
              plan.configs[1].config.thresholdCount());
    expectGroupedMatchesPerCell(plan);
}

TEST_F(SweepGroups, OneBenchmarkIsSplitIntoConfigSlices)
{
    // One group of 4 configs on up to 8 workers: the group is cut
    // into contiguous config slices so no worker idles.
    SweepPlan plan = threeConfigPlan(ProfileKind::Value);
    plan.benchmarks = {"vortex"};
    plan.intervalLengths = {2000};
    plan.configs.push_back(multiHash(8));
    ASSERT_EQ(SweepRunner(plan).cellCount(), 4u);
    expectGroupedMatchesPerCell(plan);
}

} // namespace
} // namespace mhp
