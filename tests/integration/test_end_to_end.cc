#include <gtest/gtest.h>

#include "analysis/interval_runner.h"
#include "core/factory.h"
#include "core/stratified_sampler.h"
#include "sim/codegen.h"
#include "sim/machine.h"
#include "sim/probes.h"
#include "trace/trace_io.h"
#include "trace/transforms.h"
#include "workload/benchmarks.h"

#include <cstdio>
#include <filesystem>

namespace mhp {
namespace {

TEST(EndToEnd, WorkloadThroughBestMultiHash)
{
    auto workload = makeValueWorkload("li");
    auto profiler = makeProfiler(bestMultiHashConfig(10'000, 0.01));
    const RunOutput out = runIntervals(*workload, {profiler.get()}, 10'000,
                                       100, 10);
    ASSERT_EQ(out.intervalsCompleted, 10u);
    // li is well-behaved: the best profiler must be nearly exact.
    EXPECT_LT(out.results[0].averageErrorPercent(), 3.0);
    EXPECT_GT(out.results[0].meanHardwareCandidates(), 0.0);
}

TEST(EndToEnd, MiniCpuValueProfiling)
{
    CodegenConfig cfg;
    cfg.seed = 77;
    cfg.numFunctions = 6;
    cfg.numArrays = 4;
    cfg.arrayLen = 256;
    Machine machine(generateProgram(cfg), 1 << 14);
    ValueProbe probe(machine);

    auto profiler = makeProfiler(bestMultiHashConfig(10'000, 0.01));
    const RunOutput out =
        runIntervals(probe, {profiler.get()}, 10'000, 100, 5);
    ASSERT_EQ(out.intervalsCompleted, 5u);
    // Generated programs have strong value locality: candidates exist
    // and the profiler catches them accurately.
    EXPECT_GT(out.results[0].meanHardwareCandidates(), 0.0);
    EXPECT_LT(out.results[0].averageErrorPercent(), 10.0);
}

TEST(EndToEnd, MiniCpuEdgeProfiling)
{
    CodegenConfig cfg;
    cfg.seed = 78;
    cfg.numFunctions = 6;
    cfg.numArrays = 4;
    cfg.arrayLen = 256;
    Machine machine(generateProgram(cfg), 1 << 14);
    EdgeProbe probe(machine);

    auto profiler = makeProfiler(bestMultiHashConfig(10'000, 0.01));
    const RunOutput out =
        runIntervals(probe, {profiler.get()}, 10'000, 100, 5);
    ASSERT_EQ(out.intervalsCompleted, 5u);
    EXPECT_GT(out.results[0].meanHardwareCandidates(), 0.0);
    EXPECT_LT(out.results[0].averageErrorPercent(), 10.0);
}

TEST(EndToEnd, RecordThenReplayGivesIdenticalProfiles)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "mhp_e2e_replay.mht")
            .string();

    // Record 3 intervals of a workload to a trace file.
    {
        auto workload = makeValueWorkload("burg");
        TraceWriter writer(path, ProfileKind::Value);
        ASSERT_TRUE(writer.ok());
        pump(*workload, writer, 30'000);
    }

    // Profile live vs. from the trace; snapshots must match exactly.
    auto live = makeValueWorkload("burg");
    auto p1 = makeProfiler(bestMultiHashConfig(10'000, 0.01));
    auto p2 = makeProfiler(bestMultiHashConfig(10'000, 0.01));

    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.isOk()) << reader.status().toString();
    for (int iv = 0; iv < 3; ++iv) {
        for (int i = 0; i < 10'000; ++i) {
            p1->onEvent(live->next());
            p2->onEvent((*reader)->next());
        }
        const IntervalSnapshot s1 = p1->endInterval();
        const IntervalSnapshot s2 = p2->endInterval();
        EXPECT_EQ(s1, s2) << "interval " << iv;
    }
    std::remove(path.c_str());
}

TEST(EndToEnd, StratifiedBaselineNeedsInterruptsMultiHashDoesNot)
{
    // The architectural contrast of Section 4.2 vs Section 6: the
    // baseline interrupts "software"; the multi-hash profiler is
    // software-free by construction (it has no interrupt path at all).
    StratifiedSamplerConfig scfg;
    scfg.entries = 2048;
    scfg.samplingThreshold = 16;
    scfg.bufferEntries = 100;
    StratifiedSampler baseline(scfg, 100);

    auto workload = makeValueWorkload("li");
    for (int i = 0; i < 30'000; ++i)
        baseline.onEvent(workload->next());
    (void)baseline.endInterval();
    EXPECT_GT(baseline.interrupts(), 0u);
    EXPECT_GT(baseline.messagesSent(), 0u);
}

TEST(EndToEnd, MixedWorkloadsThroughOneProfiler)
{
    // Multiprogramming: two benchmarks interleaved into one profiler.
    auto a = makeValueWorkload("li");
    auto b = makeValueWorkload("m88ksim");
    InterleaveSource mixed({a.get(), b.get()}, {1.0, 1.0}, 99);
    auto profiler = makeProfiler(bestMultiHashConfig(10'000, 0.01));
    const RunOutput out =
        runIntervals(mixed, {profiler.get()}, 10'000, 100, 5);
    ASSERT_EQ(out.intervalsCompleted, 5u);
    // Candidates from both programs can be captured; the profiler
    // does not fall over under the merge.
    EXPECT_GT(out.results[0].meanHardwareCandidates(), 0.0);
}

} // namespace
} // namespace mhp
