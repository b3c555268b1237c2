/**
 * @file
 * Failpoint-driven I/O fault matrix: injected ENOSPC, short writes,
 * fsync and rename failures across the .mhp profile writer, the .mht
 * trace writer/readers, and the sweep checkpoint journal. The
 * contract under test is uniform: a clean Status comes back, no
 * partial file ever appears under a final name, and checkpointed
 * sweeps resume bit-identically after the fault clears.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/profile_io.h"
#include "analysis/sweep_runner.h"
#include "core/factory.h"
#include "support/failpoint.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

class FailpointIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearFailpoints();
        base = (std::filesystem::temp_directory_path() /
                (std::string("mhp_fpio_") +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
    }

    void
    TearDown() override
    {
        clearFailpoints();
        for (const char *ext : {".mhp", ".mhp.tmp", ".mht", ".mht.tmp",
                                ".ckpt"})
            std::remove((base + ext).c_str());
    }

    void
    expectNoFiles(const std::string &final) const
    {
        EXPECT_FALSE(std::filesystem::exists(final));
        EXPECT_FALSE(std::filesystem::exists(final + ".tmp"));
    }

    std::string base;
};

const IntervalSnapshot kSnap{{Tuple{1, 10}, 500},
                             {Tuple{2, 20}, 300}};

TEST_F(FailpointIoTest, ProfileWriteEnospcLatchesAndPublishesNothing)
{
    const std::string path = base + ".mhp";
    ASSERT_TRUE(
        configureFailpoints("profile.write.enospc=2").isOk());
    ProfileWriter w(path, ProfileKind::Value, 1000, 10);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(w.writeInterval(kSnap).isOk());
    const Status failed = w.writeInterval(kSnap);
    EXPECT_EQ(failed.code(), StatusCode::IoError);
    EXPECT_NE(failed.message().find("injected"), std::string::npos);
    // The latch: every later write and the close report that first
    // failure, and close removes the temp instead of renaming.
    EXPECT_EQ(w.writeInterval(kSnap), failed);
    EXPECT_EQ(w.close(), failed);
    expectNoFiles(path);
}

TEST_F(FailpointIoTest, ProfileShortWriteLeavesTornTempOnlyBriefly)
{
    const std::string path = base + ".mhp";
    ASSERT_TRUE(configureFailpoints("profile.write.short=1").isOk());
    ProfileWriter w(path, ProfileKind::Value, 1000, 10);
    ASSERT_TRUE(w.ok());
    const Status failed = w.writeInterval(kSnap);
    EXPECT_EQ(failed.code(), StatusCode::IoError);
    EXPECT_EQ(w.close(), failed);
    expectNoFiles(path);
}

TEST_F(FailpointIoTest, ProfileCloseStageFailuresPublishNothing)
{
    for (const char *site :
         {"profile.close.enospc=*", "profile.fsync=*",
          "profile.rename=*"}) {
        const std::string path = base + ".mhp";
        ASSERT_TRUE(configureFailpoints(site).isOk());
        ProfileWriter w(path, ProfileKind::Value, 1000, 10);
        ASSERT_TRUE(w.ok());
        EXPECT_TRUE(w.writeInterval(kSnap).isOk());
        EXPECT_EQ(w.close().code(), StatusCode::IoError) << site;
        expectNoFiles(path);
        clearFailpoints();
    }
}

TEST_F(FailpointIoTest, ProfileDirsyncFailureStillPublishesValidFile)
{
    // The rename already happened when the directory sync fails: the
    // file is complete and readable, the caller just learns it may
    // not survive a power cut yet.
    const std::string path = base + ".mhp";
    ASSERT_TRUE(configureFailpoints("profile.dirsync=*").isOk());
    ProfileWriter w(path, ProfileKind::Value, 1000, 10);
    ASSERT_TRUE(w.ok());
    EXPECT_TRUE(w.writeInterval(kSnap).isOk());
    EXPECT_EQ(w.close().code(), StatusCode::IoError);
    ASSERT_TRUE(std::filesystem::exists(path));
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    EXPECT_EQ(opened->declaredIntervals(), 1u);
}

TEST_F(FailpointIoTest, TraceWriteFaultsPublishNothing)
{
    for (const char *spec :
         {"trace.write.enospc=1", "trace.write.short=1",
          "trace.fsync=*", "trace.rename=*"}) {
        const std::string path = base + ".mht";
        ASSERT_TRUE(configureFailpoints(spec).isOk());
        {
            TraceWriter w(path, ProfileKind::Value);
            ASSERT_TRUE(w.ok());
            for (uint64_t i = 0; i < 100; ++i)
                w.accept(Tuple{i, i * 3});
            EXPECT_EQ(w.close().code(), StatusCode::IoError) << spec;
        }
        expectNoFiles(path);
        clearFailpoints();
    }
}

TEST_F(FailpointIoTest, TraceOpenEioIsInjectable)
{
    const std::string path = base + ".mht";
    {
        TraceWriter w(path, ProfileKind::Value);
        for (uint64_t i = 0; i < 16; ++i)
            w.accept(Tuple{i, i});
        ASSERT_TRUE(w.close().isOk());
    }
    ASSERT_TRUE(configureFailpoints("trace.open.eio=*").isOk());
    auto opened = TraceReader::open(path);
    ASSERT_FALSE(opened.isOk());
    EXPECT_EQ(opened.status().code(), StatusCode::IoError);
    clearFailpoints();
    EXPECT_TRUE(TraceReader::open(path).isOk());
}

TEST_F(FailpointIoTest, TraceMapFailureExercisesReaderFallback)
{
    const std::string path = base + ".mht";
    {
        TraceWriter w(path, ProfileKind::Value);
        for (uint64_t i = 0; i < 16; ++i)
            w.accept(Tuple{i, i});
        ASSERT_TRUE(w.close().isOk());
    }
    // "trace.map.open" simulates an mmap failure; the buffered reader
    // must still serve the same bytes — the fallback path every tool
    // takes.
    ASSERT_TRUE(configureFailpoints("trace.map.open=*").isOk());
    auto mapped = TraceMap::open(path);
    ASSERT_FALSE(mapped.isOk());
    EXPECT_EQ(mapped.status().code(), StatusCode::IoError);
    auto reader = TraceReader::open(path);
    ASSERT_TRUE(reader.isOk()) << reader.status().toString();
    EXPECT_EQ((*reader)->totalEvents(), 16u);
}

/**
 * Every cell of a runResilient() sweep in plan order, journaled to
 * `checkpoint` when one is named; the call's error otherwise.
 */
StatusOr<std::vector<SweepCellResult>>
sweepCells(const SweepRunner &runner, unsigned threads,
           const std::string &checkpoint = "")
{
    SweepResilienceOptions options;
    options.threads = threads;
    options.checkpointPath = checkpoint;
    StatusOr<SweepReport> report = runner.runResilient(options);
    if (!report.isOk())
        return report.status();
    EXPECT_TRUE(report->quarantined.empty());
    return std::move(report->results);
}

/** A small, fast sweep plan shared by the checkpoint-fault tests. */
SweepPlan
smallPlan()
{
    SweepPlan plan;
    plan.benchmarks = {"gcc", "go"};
    plan.intervals = 2;
    plan.workloadSeed = 5;
    plan.intervalLengths = {1000, 2000};
    ProfilerConfig best = bestMultiHashConfig(1000, 0.01);
    best.totalHashEntries = 512;
    plan.configs.push_back({"mh4", best});
    return plan;
}

TEST_F(FailpointIoTest, CheckpointAppendEnospcResumesBitIdentical)
{
    const std::string ckpt = base + ".ckpt";
    const SweepRunner runner(smallPlan());
    const auto reference = *sweepCells(runner, 1);

    // Cell 1's append fails (keys are cell indices, so the failing
    // record set is identical at any thread count). The call reports
    // the failure; every other cell's record stays intact.
    ASSERT_TRUE(configureFailpoints("ckpt.append.enospc=2").isOk());
    auto faulted = sweepCells(runner, 1, ckpt);
    ASSERT_FALSE(faulted.isOk());
    EXPECT_EQ(faulted.status().code(), StatusCode::IoError);
    EXPECT_NE(faulted.status().message().find("injected"),
              std::string::npos);

    clearFailpoints();
    auto resumed = sweepCells(runner, 1, ckpt);
    ASSERT_TRUE(resumed.isOk()) << resumed.status().toString();
    EXPECT_EQ(*resumed, reference);
}

TEST_F(FailpointIoTest, CheckpointTornRecordDiscardedOnResume)
{
    const std::string ckpt = base + ".ckpt";
    const SweepRunner runner(smallPlan());
    const auto reference = *sweepCells(runner, 1);

    // A short append leaves half a record on disk — the shape a real
    // ENOSPC or kill produces. Resume must discard it (CRC) and
    // recompute from the last intact record.
    ASSERT_TRUE(configureFailpoints("ckpt.append.short=2").isOk());
    auto faulted = sweepCells(runner, 1, ckpt);
    ASSERT_FALSE(faulted.isOk());
    EXPECT_EQ(faulted.status().code(), StatusCode::IoError);

    clearFailpoints();
    auto resumed = sweepCells(runner, 1, ckpt);
    ASSERT_TRUE(resumed.isOk()) << resumed.status().toString();
    EXPECT_EQ(*resumed, reference);
}

TEST_F(FailpointIoTest, CheckpointFsyncFailureReportedJournalIntact)
{
    const std::string ckpt = base + ".ckpt";
    const SweepRunner runner(smallPlan());
    const auto reference = *sweepCells(runner, 1);

    ASSERT_TRUE(configureFailpoints("ckpt.fsync=*").isOk());
    auto faulted = sweepCells(runner, 1, ckpt);
    ASSERT_FALSE(faulted.isOk());
    EXPECT_EQ(faulted.status().code(), StatusCode::IoError);

    // Every record was appended and flushed before the final fsync
    // failed, so a resume recomputes nothing and matches exactly.
    clearFailpoints();
    const auto sizeBefore = std::filesystem::file_size(ckpt);
    auto resumed = sweepCells(runner, 1, ckpt);
    ASSERT_TRUE(resumed.isOk()) << resumed.status().toString();
    EXPECT_EQ(*resumed, reference);
    EXPECT_EQ(std::filesystem::file_size(ckpt), sizeBefore);
}

} // namespace
} // namespace mhp
