/**
 * @file
 * The distributed determinism contract, tested in-process: a
 * coordinator (runDistributedSweep with acceptExternal and no spawned
 * processes) serving worker threads that run the real runSweepWorker()
 * loop over real Unix sockets must produce a SweepReport bit-identical
 * to the single-process runResilient() — same results, same
 * quarantine set — for any worker count, any work-stealing schedule,
 * and any checkpoint handoff between the serial and distributed
 * engines. Process-level crash coverage (kill -9 of coordinator and
 * workers) lives in tests/distributed_chaos_smoke.sh; this file pins
 * the protocol and merge logic where a debugger can reach them.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/sweep_distributed.h"
#include "analysis/sweep_journal.h"
#include "analysis/sweep_runner.h"
#include "analysis/sweep_wire.h"
#include "support/failpoint.h"
#include "support/wire.h"

namespace mhp {
namespace {

std::string
tempPath(const char *stem, const char *suffix)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("mhp_dist_") + stem + "_" +
             std::to_string(::getpid()) + suffix))
        .string();
}

/** A small plan: 1 benchmark x 2 configs x 4 lengths = 8 cells. */
SweepPlan
smallPlan()
{
    SweepPlan plan;
    plan.benchmarks = {"li"};
    ProfilerConfig cfg;
    cfg.intervalLength = 1000;
    cfg.candidateThreshold = 0.01;
    cfg.numHashTables = 2;
    cfg.totalHashEntries = 1024;
    plan.configs.push_back({"mh2", cfg});
    cfg.numHashTables = 4;
    plan.configs.push_back({"mh4", cfg});
    plan.intervalLengths = {500, 1000, 2000, 4000};
    plan.intervals = 2;
    plan.workloadSeed = 7;
    plan.batchSize = 512;
    return plan;
}

void
expectSameReport(const SweepReport &got, const SweepReport &want)
{
    EXPECT_EQ(got.results, want.results);
    EXPECT_EQ(got.quarantined, want.quarantined);
    EXPECT_EQ(got.completedCells, want.completedCells);
    EXPECT_EQ(got.interrupted, want.interrupted);
}

/** Worker threads running the real protocol loop against `socket`. */
class WorkerPool
{
  public:
    explicit WorkerPool(const std::string &socket, unsigned count)
    {
        statuses.resize(count);
        for (unsigned i = 0; i < count; ++i) {
            threads.emplace_back([this, socket, i] {
                SweepWorkerOptions options;
                options.socketPath = socket;
                // The pool starts before the coordinator binds; keep
                // retrying the connect until it is listening. The
                // budget must absorb a multi-second journal fsync
                // stall ahead of the bind on a loaded disk.
                options.connectRetryMs = 60'000;
                options.heartbeatMs = 100;
                statuses[i] = runSweepWorker(options);
            });
        }
    }

    void
    joinAndExpectClean()
    {
        for (std::thread &t : threads)
            t.join();
        threads.clear();
        for (const Status &status : statuses) {
            // A small sweep can finish and unlink the socket inside
            // a worker's connect-poll gap; a worker that never found
            // the coordinator is a legal schedule, but one that
            // connected must exit clean.
            if (status.code() == StatusCode::NotFound)
                continue;
            EXPECT_TRUE(status.isOk()) << status.toString();
        }
    }

  private:
    std::vector<std::thread> threads;
    std::vector<Status> statuses;
};

TEST(DistributedSweep, TwoWorkersMatchInProcessBitExact)
{
    const SweepPlan plan = smallPlan();
    SweepResilienceOptions resilience;
    resilience.maxAttempts = 2;

    SweepRunner runner(plan);
    auto reference = runner.runResilient(resilience);
    ASSERT_TRUE(reference.isOk());

    // Slow every cell a little so the sweep outlives worker startup:
    // without it, 8 tiny cells can all finish through the first
    // worker before the second one's connect lands, and the late
    // worker finds the socket already unlinked. Delay-only failpoints
    // never change results, so the parity assertion is unaffected.
    const std::string socket = tempPath("two", ".sock");
    DistributedSweepOptions options;
    options.acceptExternal = true;
    options.socketPath = socket;
    options.resilience = resilience;
    options.failpointSpec = "sweep.cell.slow=*:20ms";

    WorkerPool pool(socket, 2);
    auto distributed = runDistributedSweep(plan, options);
    pool.joinAndExpectClean();
    clearFailpoints();
    ASSERT_TRUE(distributed.isOk()) << distributed.status().toString();
    expectSameReport(*distributed, *reference);
}

TEST(DistributedSweep, FailpointQuarantineParity)
{
    const SweepPlan plan = smallPlan();
    // Every third cell fails both attempts: a permanent failure the
    // retry loop cannot outlast, so cells 0, 3, 6 are quarantined.
    const std::string spec = "sweep.cell.compute=1/3";
    SweepResilienceOptions resilience;
    resilience.maxAttempts = 2;

    setFailpointSeed(11);
    ASSERT_TRUE(configureFailpoints(spec).isOk());
    SweepRunner runner(plan);
    auto reference = runner.runResilient(resilience);
    clearFailpoints();
    ASSERT_TRUE(reference.isOk());
    ASSERT_FALSE(reference->quarantined.empty());

    const std::string socket = tempPath("fail", ".sock");
    DistributedSweepOptions options;
    options.acceptExternal = true;
    options.socketPath = socket;
    options.resilience = resilience;
    options.failpointSpec = spec;
    options.failpointSeed = 11;

    // One worker: the handshake configures the global failpoint
    // registry from the Plan envelope, exactly as the mhprof_worker
    // process does.
    WorkerPool pool(socket, 1);
    auto distributed = runDistributedSweep(plan, options);
    pool.joinAndExpectClean();
    clearFailpoints();
    ASSERT_TRUE(distributed.isOk()) << distributed.status().toString();
    expectSameReport(*distributed, *reference);
}

TEST(DistributedSweep, DistributedJournalResumesSerially)
{
    const SweepPlan plan = smallPlan();
    const std::string ckpt = tempPath("d2s", ".ckpt");
    std::filesystem::remove(ckpt);

    SweepResilienceOptions resilience;
    resilience.maxAttempts = 2;
    resilience.checkpointPath = ckpt;

    const std::string socket = tempPath("d2s", ".sock");
    DistributedSweepOptions options;
    options.acceptExternal = true;
    options.socketPath = socket;
    options.resilience = resilience;

    WorkerPool pool(socket, 2);
    auto distributed = runDistributedSweep(plan, options);
    pool.joinAndExpectClean();
    ASSERT_TRUE(distributed.isOk()) << distributed.status().toString();

    // The coordinator journaled a lease trail alongside the cells.
    SweepRunner runner(plan);
    auto loaded = loadSweepCheckpoint(ckpt, runner.planFingerprint(),
                                      runner.cellCount());
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded->completed.size(), runner.cellCount());
    EXPECT_FALSE(loaded->leases.empty());

    // The serial engine resumes the coordinator's journal: every cell
    // loads, nothing recomputes, and the report is bit-identical.
    auto serial = runner.runResilient(resilience);
    ASSERT_TRUE(serial.isOk());
    expectSameReport(*serial, *distributed);
    std::filesystem::remove(ckpt);
}

TEST(DistributedSweep, SerialJournalResumesDistributed)
{
    const SweepPlan plan = smallPlan();
    const std::string ckpt = tempPath("s2d", ".ckpt");
    std::filesystem::remove(ckpt);

    SweepResilienceOptions resilience;
    resilience.maxAttempts = 2;
    resilience.checkpointPath = ckpt;

    SweepRunner runner(plan);
    auto serial = runner.runResilient(resilience);
    ASSERT_TRUE(serial.isOk());

    // Every cell is already journaled, so the coordinator finishes
    // without granting a single lease — no worker ever needs to
    // connect (acceptExternal only satisfies the "some worker is
    // possible" validation).
    DistributedSweepOptions options;
    options.acceptExternal = true;
    options.socketPath = tempPath("s2d", ".sock");
    options.resilience = resilience;
    auto distributed = runDistributedSweep(plan, options);
    ASSERT_TRUE(distributed.isOk()) << distributed.status().toString();
    expectSameReport(*distributed, *serial);
    std::filesystem::remove(ckpt);
}

TEST(DistributedSweep, WorkStealingScheduleDoesNotChangeResults)
{
    const SweepPlan plan = smallPlan();
    SweepResilienceOptions resilience;
    resilience.maxAttempts = 2;

    SweepRunner runner(plan);
    auto reference = runner.runResilient(resilience);
    ASSERT_TRUE(reference.isOk());

    // One giant lease covering the whole plan plus a slow-cell
    // failpoint: the first worker to say Ready is granted everything
    // while the second sits idle, which forces the coordinator down
    // the Trim/TrimAck work-stealing path. Whatever schedule results,
    // the report must not change.
    const std::string socket = tempPath("steal", ".sock");
    DistributedSweepOptions options;
    options.acceptExternal = true;
    options.socketPath = socket;
    options.chunkCells = runner.cellCount();
    options.resilience = resilience;
    options.failpointSpec = "sweep.cell.slow=*:20ms";

    WorkerPool pool(socket, 2);
    auto distributed = runDistributedSweep(plan, options);
    pool.joinAndExpectClean();
    clearFailpoints();
    ASSERT_TRUE(distributed.isOk()) << distributed.status().toString();
    expectSameReport(*distributed, *reference);
}

TEST(DistributedSweep, WorkerConnectToNothingFailsCleanly)
{
    SweepWorkerOptions options;
    options.socketPath = tempPath("nowhere", ".sock");
    options.connectRetryMs = 0;
    const Status status = runSweepWorker(options);
    EXPECT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::NotFound)
        << status.toString();
}

TEST(DistributedSweep, LateWorkerAfterLastCellSaysByeAndExitsClean)
{
    // A worker accepted after the last cell finished never gets a
    // Plan: the coordinator's shutdown broadcast reaches it before its
    // Hello is served, so Shutdown is its first frame. A stand-in
    // coordinator replays exactly that frame order.
    const std::string socket = tempPath("late", ".sock");
    auto listener = WireListener::bind(socket);
    ASSERT_TRUE(listener.isOk()) << listener.status().toString();

    Status workerStatus;
    std::thread worker([&] {
        SweepWorkerOptions options;
        options.socketPath = socket;
        options.ioTimeoutMs = 10'000;
        workerStatus = runSweepWorker(options);
    });

    WireFrame hello;
    WireFrame bye;
    auto conn = listener->accept(10'000);
    EXPECT_TRUE(conn.isOk()) << conn.status().toString();
    if (conn.isOk()) {
        EXPECT_TRUE(conn->recv(hello, 10'000).isOk());
        EXPECT_TRUE(conn->send(static_cast<uint8_t>(SweepMsg::Shutdown),
                               ByteBuffer(), 10'000)
                        .isOk());
        EXPECT_TRUE(conn->recv(bye, 10'000).isOk());
    }
    worker.join();
    listener->close();

    EXPECT_EQ(hello.type, static_cast<uint8_t>(SweepMsg::Hello));
    EXPECT_EQ(bye.type, static_cast<uint8_t>(SweepMsg::Bye));
    EXPECT_TRUE(workerStatus.isOk()) << workerStatus.toString();
}

TEST(DistributedSweep, CoordinatorWithNoPossibleWorkersIsAnError)
{
    DistributedSweepOptions options; // workers=0, acceptExternal=false
    auto swept = runDistributedSweep(smallPlan(), options);
    EXPECT_FALSE(swept.isOk());
    EXPECT_EQ(swept.status().code(), StatusCode::InvalidArgument)
        << swept.status().toString();
}

} // namespace
} // namespace mhp
