/**
 * @file
 * Crash-safe sweep checkpointing: a sweep journaled to a checkpoint
 * file, killed at an arbitrary point, and resumed must return output
 * bit-identical to an uninterrupted run — including when the kill
 * landed mid-record. Plan fingerprinting must refuse to resume a
 * checkpoint under a modified plan.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/sweep_runner.h"
#include "core/factory.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

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

SweepPlan
resumePlan()
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

class SweepResumeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = (std::filesystem::temp_directory_path() /
                (std::string("mhp_ckpt_") +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name() +
                 ".mhpswp"))
                   .string();
        std::remove(path.c_str());
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST_F(SweepResumeTest, FreshCheckpointMatchesPlainRun)
{
    const SweepRunner runner(resumePlan());
    const auto plain = *sweepCells(runner, 1);
    auto checked = sweepCells(runner, 1, path);
    ASSERT_TRUE(checked.isOk()) << checked.status().toString();
    EXPECT_EQ(*checked, plain);
    EXPECT_TRUE(std::filesystem::exists(path));
}

TEST_F(SweepResumeTest, ResumeFromCompleteJournalRecomputesNothing)
{
    const SweepRunner runner(resumePlan());
    auto first = sweepCells(runner, 2, path);
    ASSERT_TRUE(first.isOk());

    // All cells are journaled; the resume must read them back intact
    // (the journal is untouched by a no-op resume).
    const auto sizeBefore = std::filesystem::file_size(path);
    auto second = sweepCells(runner, 2, path);
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    EXPECT_EQ(*second, *first);
    EXPECT_EQ(std::filesystem::file_size(path), sizeBefore);
}

TEST_F(SweepResumeTest, KilledSweepResumesBitIdentical)
{
    const SweepRunner runner(resumePlan());
    const auto plain = *sweepCells(runner, 1);
    auto full = sweepCells(runner, 1, path);
    ASSERT_TRUE(full.isOk());

    // Simulate a kill at every possible truncation point: any prefix
    // of the journal (including cuts mid-record and mid-header) must
    // resume to bit-identical results.
    std::vector<uint8_t> journal;
    {
        std::ifstream in(path, std::ios::binary);
        journal.assign((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    }
    for (size_t cut : {size_t{0}, size_t{10}, size_t{24}, size_t{25},
                       size_t{100}, journal.size() / 2,
                       journal.size() - 1}) {
        if (cut > journal.size())
            continue;
        {
            std::ofstream out(path,
                              std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(journal.data()),
                      static_cast<std::streamsize>(cut));
        }
        auto resumed = sweepCells(runner, 2, path);
        ASSERT_TRUE(resumed.isOk())
            << "cut at " << cut << ": " << resumed.status().toString();
        EXPECT_EQ(*resumed, plain) << "cut at " << cut;
    }
}

TEST_F(SweepResumeTest, CorruptRecordIsDiscardedAndRecomputed)
{
    const SweepRunner runner(resumePlan());
    auto full = sweepCells(runner, 1, path);
    ASSERT_TRUE(full.isOk());

    // Flip a bit in the middle of the journal body: everything from
    // the damaged record on is recomputed; results stay identical.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        const auto size = std::filesystem::file_size(path);
        f.seekg(static_cast<std::streamoff>(size / 2));
        char byte;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x10);
        f.seekp(static_cast<std::streamoff>(size / 2));
        f.write(&byte, 1);
    }
    auto resumed = sweepCells(runner, 1, path);
    ASSERT_TRUE(resumed.isOk()) << resumed.status().toString();
    EXPECT_EQ(*resumed, *full);
}

TEST_F(SweepResumeTest, ModifiedPlanIsRejected)
{
    const SweepRunner runner(resumePlan());
    ASSERT_TRUE(sweepCells(runner, 1, path).isOk());

    SweepPlan changed = resumePlan();
    changed.workloadSeed = 6; // different stream -> different results
    const SweepRunner other(changed);
    EXPECT_NE(other.planFingerprint(), runner.planFingerprint());
    auto resumed = sweepCells(other, 1, path);
    ASSERT_FALSE(resumed.isOk());
    EXPECT_EQ(resumed.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(resumed.status().message().find("different sweep plan"),
              std::string::npos);
}

TEST_F(SweepResumeTest, ForeignFileIsRejectedNotClobbered)
{
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is the user's important file, not a checkpoint";
    }
    const SweepRunner runner(resumePlan());
    auto resumed = sweepCells(runner, 1, path);
    ASSERT_FALSE(resumed.isOk());
    EXPECT_EQ(resumed.status().code(), StatusCode::CorruptData);
    // The file must be left exactly as it was.
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content,
              "this is the user's important file, not a checkpoint");
}

TEST_F(SweepResumeTest, FingerprintIsSensitiveToEveryKnob)
{
    const SweepPlan base = resumePlan();
    const uint64_t baseline = SweepRunner(base).planFingerprint();

    auto fingerprintWith = [&](auto mutate) {
        SweepPlan p = resumePlan();
        mutate(p);
        return SweepRunner(p).planFingerprint();
    };

    EXPECT_NE(fingerprintWith([](SweepPlan &p) {
                  p.benchmarks = {"gcc"};
              }),
              baseline);
    EXPECT_NE(fingerprintWith(
                  [](SweepPlan &p) { p.kind = ProfileKind::Edge; }),
              baseline);
    EXPECT_NE(fingerprintWith(
                  [](SweepPlan &p) { p.kind = ProfileKind::Path; }),
              baseline);
    EXPECT_NE(fingerprintWith([](SweepPlan &p) { p.intervals = 4; }),
              baseline);
    EXPECT_NE(fingerprintWith([](SweepPlan &p) { p.workloadSeed = 1; }),
              baseline);
    EXPECT_NE(fingerprintWith([](SweepPlan &p) { p.batchSize = 128; }),
              baseline);
    EXPECT_NE(fingerprintWith([](SweepPlan &p) {
                  p.intervalLengths = {1000};
              }),
              baseline);
    EXPECT_NE(fingerprintWith([](SweepPlan &p) {
                  p.configs[0].config.conservativeUpdate = false;
              }),
              baseline);
    EXPECT_NE(fingerprintWith([](SweepPlan &p) {
                  p.configs[0].config.seed ^= 1;
              }),
              baseline);
}

/** Checkpoint/resume over a mapped trace instead of workloads. */
class MappedTraceResumeTest : public SweepResumeTest
{
  protected:
    void
    SetUp() override
    {
        SweepResumeTest::SetUp();
        tracePath = path + ".mht";
        recordTrace(tracePath, /*seed=*/5);
    }

    void
    TearDown() override
    {
        std::remove(tracePath.c_str());
        SweepResumeTest::TearDown();
    }

    static void
    recordTrace(const std::string &to, uint64_t seed)
    {
        auto workload = makeValueWorkload("gcc", seed);
        TraceWriter w(to, ProfileKind::Value);
        pump(*workload, w, 8'000);
        ASSERT_TRUE(w.close().isOk());
    }

    /** resumePlan()'s knobs, but replaying the recorded trace. */
    SweepPlan
    mappedPlan() const
    {
        auto map = TraceMap::open(tracePath);
        EXPECT_TRUE(map.isOk()) << map.status().toString();
        SweepPlan plan = resumePlan();
        plan.benchmarks.clear();
        plan.trace = *map;
        return plan;
    }

    std::string tracePath;
};

TEST_F(MappedTraceResumeTest, KilledMappedSweepResumesBitIdentical)
{
    const SweepRunner runner(mappedPlan());
    const auto plain = *sweepCells(runner, 1);
    auto full = sweepCells(runner, 1, path);
    ASSERT_TRUE(full.isOk()) << full.status().toString();
    EXPECT_EQ(*full, plain);

    // Truncate the journal at arbitrary points (a simulated kill) and
    // resume: the recomputed cells replay the same shared mapping, so
    // the merged output must stay bit-identical.
    std::vector<uint8_t> journal;
    {
        std::ifstream in(path, std::ios::binary);
        journal.assign((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    }
    for (size_t cut :
         {size_t{0}, size_t{24}, journal.size() / 2,
          journal.size() - 1}) {
        {
            std::ofstream out(path,
                              std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(journal.data()),
                      static_cast<std::streamsize>(cut));
        }
        auto resumed = sweepCells(runner, 2, path);
        ASSERT_TRUE(resumed.isOk())
            << "cut at " << cut << ": " << resumed.status().toString();
        EXPECT_EQ(*resumed, plain) << "cut at " << cut;
    }
}

TEST_F(MappedTraceResumeTest, DifferentTraceIsRejected)
{
    {
        const SweepRunner runner(mappedPlan());
        ASSERT_TRUE(sweepCells(runner, 1, path).isOk());
    }

    // Re-record the trace from a different seed: same path, different
    // content. The trace fingerprint is part of the plan fingerprint,
    // so resuming the old checkpoint must be refused.
    recordTrace(tracePath, /*seed=*/6);
    const SweepRunner other(mappedPlan());
    auto resumed = sweepCells(other, 1, path);
    ASSERT_FALSE(resumed.isOk());
    EXPECT_EQ(resumed.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(resumed.status().message().find("different sweep plan"),
              std::string::npos);
}

} // namespace
} // namespace mhp
