/**
 * @file
 * Resilient sweep execution: injected cell failures must quarantine
 * exactly the cells the failpoint spec names — reproducibly at every
 * thread count — while every surviving cell stays bit-identical to a
 * fault-free run. Transient faults recover through retries,
 * injected slowdowns trip the per-attempt deadline, cancellation
 * stops at an interval boundary with the checkpoint intact, and a
 * resumed run completes to the fault-free answer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sweep_runner.h"
#include "core/factory.h"
#include "support/cancel.h"
#include "support/failpoint.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

/** 2 benchmarks x 1 config x 2 lengths = 4 cells, small and fast. */
SweepPlan
faultPlan()
{
    SweepPlan plan;
    plan.benchmarks = {"gcc", "go"};
    plan.intervals = 3;
    plan.workloadSeed = 5;
    plan.intervalLengths = {1000, 2000};
    ProfilerConfig best = bestMultiHashConfig(1000, 0.01);
    best.totalHashEntries = 512;
    plan.configs.push_back({"mh4", best});
    return plan;
}

/** A fault-free, single-threaded sweep: the reference results. */
std::vector<SweepCellResult>
plainCells(const SweepRunner &runner)
{
    SweepResilienceOptions options;
    options.threads = 1;
    options.maxAttempts = 1;
    StatusOr<SweepReport> report = runner.runResilient(options);
    EXPECT_TRUE(report.isOk()) << report.status().toString();
    if (!report.isOk())
        return {};
    EXPECT_TRUE(report->quarantined.empty());
    return std::move(report->results);
}

class ResilientSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearFailpoints();
        setFailpointSeed(0);
        ckpt = (std::filesystem::temp_directory_path() /
                (std::string("mhp_resil_") +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name() +
                 ".mhpswp"))
                   .string();
        std::remove(ckpt.c_str());
    }

    void
    TearDown() override
    {
        clearFailpoints();
        setFailpointSeed(0);
        std::remove(ckpt.c_str());
    }

    std::string ckpt;
};

TEST_F(ResilientSweepTest, FaultFreeReportMatchesPlainRun)
{
    const SweepRunner runner(faultPlan());
    const auto plain = plainCells(runner);
    SweepResilienceOptions options;
    options.threads = 2;
    auto report = runner.runResilient(options);
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_EQ(report->results, plain);
    EXPECT_TRUE(report->quarantined.empty());
    EXPECT_FALSE(report->interrupted);
    EXPECT_EQ(report->completedCells, plain.size());
}

TEST_F(ResilientSweepTest, QuarantineSetIsThreadCountInvariant)
{
    const SweepRunner runner(faultPlan());
    const auto plain = plainCells(runner);

    // Cells 0 and 2 fail every attempt (key % 2 < 1); 1 and 3
    // survive. The spec decides, never the schedule.
    ASSERT_TRUE(
        configureFailpoints("sweep.cell.compute=1/2").isOk());

    SweepReport reports[2];
    const unsigned threadCounts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        SweepResilienceOptions options;
        options.threads = threadCounts[i];
        options.maxAttempts = 2;
        auto report = runner.runResilient(options);
        ASSERT_TRUE(report.isOk()) << report.status().toString();
        reports[i] = std::move(*report);
    }

    EXPECT_EQ(reports[0].results, reports[1].results);
    EXPECT_EQ(reports[0].quarantined, reports[1].quarantined);

    ASSERT_EQ(reports[0].quarantined.size(), 2u);
    EXPECT_EQ(reports[0].quarantined[0].cellIndex, 0u);
    EXPECT_EQ(reports[0].quarantined[1].cellIndex, 2u);
    for (const QuarantinedCell &q : reports[0].quarantined) {
        EXPECT_EQ(q.attempts, 2u);
        EXPECT_EQ(q.status.code(), StatusCode::IoError);
        EXPECT_EQ(reports[0].results[q.cellIndex], SweepCellResult{});
    }

    // Survivors are bit-identical to the fault-free run.
    EXPECT_EQ(reports[0].results[1], plain[1]);
    EXPECT_EQ(reports[0].results[3], plain[3]);
    EXPECT_EQ(reports[0].completedCells, 2u);
}

TEST_F(ResilientSweepTest, TransientFaultsRecoverThroughRetries)
{
    const SweepRunner runner(faultPlan());
    const auto plain = plainCells(runner);

    // Every cell fails its first two attempts, then succeeds: a
    // maxAttempts=3 run ends with zero quarantined cells and the
    // fault-free output.
    ASSERT_TRUE(configureFailpoints("sweep.cell.compute=*@2").isOk());
    SweepResilienceOptions options;
    options.threads = 2;
    options.maxAttempts = 3;
    options.backoffBaseMs = 1; // exercise the backoff sleep path
    options.backoffSeed = 7;
    auto report = runner.runResilient(options);
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_TRUE(report->quarantined.empty());
    EXPECT_EQ(report->results, plain);
}

TEST_F(ResilientSweepTest, InjectedSlowdownTripsDeadline)
{
    const SweepRunner runner(faultPlan());
    const auto plain = plainCells(runner);

    // Cell 1 burns its whole budget per attempt (150 ms): every
    // attempt is DeadlineExceeded and the cell is quarantined. The
    // budget is far above what a real cell's interval loop needs
    // even under sanitizers, so only the injected cell trips it.
    ASSERT_TRUE(
        configureFailpoints("sweep.cell.slow=2:400ms").isOk());
    SweepResilienceOptions options;
    options.threads = 2;
    options.maxAttempts = 2;
    options.cellDeadlineMs = 150;
    options.watchdogPollMs = 20;
    auto report = runner.runResilient(options);
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    ASSERT_EQ(report->quarantined.size(), 1u);
    EXPECT_EQ(report->quarantined[0].cellIndex, 1u);
    EXPECT_EQ(report->quarantined[0].status.code(),
              StatusCode::DeadlineExceeded);
    EXPECT_EQ(report->quarantined[0].attempts, 2u);
    EXPECT_EQ(report->results[0], plain[0]);
    EXPECT_EQ(report->results[2], plain[2]);
    EXPECT_EQ(report->results[3], plain[3]);
}

TEST_F(ResilientSweepTest, QuarantinedCellsRetriedOnResume)
{
    const SweepRunner runner(faultPlan());
    const auto plain = plainCells(runner);

    // First run: cells 0 and 2 quarantined, survivors journaled.
    ASSERT_TRUE(
        configureFailpoints("sweep.cell.compute=1/2").isOk());
    SweepResilienceOptions options;
    options.threads = 1;
    options.maxAttempts = 2;
    options.checkpointPath = ckpt;
    auto faulted = runner.runResilient(options);
    ASSERT_TRUE(faulted.isOk()) << faulted.status().toString();
    ASSERT_EQ(faulted->quarantined.size(), 2u);

    // The fault clears (the disk came back, the flaky host was
    // rebooted, ...); a rerun retries exactly the quarantined cells
    // and completes to the fault-free answer.
    clearFailpoints();
    auto resumed = runner.runResilient(options);
    ASSERT_TRUE(resumed.isOk()) << resumed.status().toString();
    EXPECT_TRUE(resumed->quarantined.empty());
    EXPECT_EQ(resumed->results, plain);
    EXPECT_EQ(resumed->completedCells, plain.size());
}

TEST_F(ResilientSweepTest, CancelStopsEarlyAndResumeIsBitIdentical)
{
    const SweepRunner runner(faultPlan());
    const auto plain = plainCells(runner);

    // Slow every cell enough that the canceller fires mid-sweep,
    // then trip the token from another thread — the in-process
    // equivalent of the SIGINT handler in mhprof_run.
    ASSERT_TRUE(configureFailpoints("sweep.cell.slow=*:50ms").isOk());
    CancelToken cancel;
    SweepResilienceOptions options;
    options.threads = 1;
    options.checkpointPath = ckpt;
    options.cancel = &cancel;

    std::thread canceller([&cancel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        cancel.cancel();
    });
    auto interrupted = runner.runResilient(options);
    canceller.join();
    ASSERT_TRUE(interrupted.isOk())
        << interrupted.status().toString();
    EXPECT_TRUE(interrupted->interrupted);
    EXPECT_LT(interrupted->completedCells, plain.size());

    // Rerun without the cancel: only the missing cells are
    // recomputed, and the merged output is bit-identical to an
    // uninterrupted fault-free sweep.
    clearFailpoints();
    options.cancel = nullptr;
    auto resumed = runner.runResilient(options);
    ASSERT_TRUE(resumed.isOk()) << resumed.status().toString();
    EXPECT_FALSE(resumed->interrupted);
    EXPECT_EQ(resumed->results, plain);
}

TEST_F(ResilientSweepTest, MaxAttemptsBelowOneIsRejected)
{
    const SweepRunner runner(faultPlan());
    SweepResilienceOptions options;
    options.maxAttempts = 0;
    EXPECT_DEATH(
        { auto report = runner.runResilient(options); (void)report; },
        "at least one attempt");
}

} // namespace
} // namespace mhp
