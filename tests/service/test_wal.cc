/**
 * @file
 * Crash-recovery tests for the service journal (src/service/wal.h),
 * driven in-process: a "crash" is committing the WAL and then
 * abandoning the ServiceCore + ServiceState without a checkpoint —
 * exactly the disk state a kill -9 after commit leaves behind. The
 * corruption corpus (WalCorruptionCorpus.*, picked up by the
 * sanitizer CI's `ctest -R CorruptionCorpus` leg) then damages those
 * files every way a real disk can: torn tails, flipped CRC bytes,
 * duplicated records, truncated checkpoints — recovery must replay
 * cleanly to the last intact record or refuse to start with a
 * one-line `path@offset` diagnostic, never serve a partial rebuild.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/factory.h"
#include "service/daemon.h"
#include "service/wal.h"
#include "support/failpoint.h"
#include "support/wire.h"
#include "trace/tuple.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

namespace fs = std::filesystem;

ProfilerConfig
smallConfig()
{
    ProfilerConfig config;
    config.intervalLength = 100;
    config.numHashTables = 2;
    config.totalHashEntries = 64;
    return config;
}

WireTenantHello
helloFor(const std::string &name, uint32_t priority = 0)
{
    WireTenantHello hello;
    hello.tenant = name;
    hello.kind = static_cast<uint8_t>(ProfileKind::Value);
    hello.config = smallConfig();
    hello.quota.priority = priority;
    return hello;
}

std::vector<Tuple>
benchStream(uint64_t seed, size_t n)
{
    const std::unique_ptr<EventSource> source =
        makeValueWorkload("gcc", seed);
    std::vector<Tuple> tuples;
    tuples.reserve(n);
    while (tuples.size() < n && !source->done())
        tuples.push_back(source->next());
    return tuples;
}

/** A temp state directory, removed on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[64];
        static int counter = 0;
        std::snprintf(buf, sizeof(buf), "wal_test_%d_%d",
                      ::getpid(), counter++);
        path = (fs::temp_directory_path() / buf).string();
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

/** One daemon "boot": core + journal, recovered from `dir`. */
struct Boot
{
    ServiceOptions options;
    std::unique_ptr<ServiceCore> core;
    std::unique_ptr<ServiceState> state;
    RecoveryReport report;

    Status
    start(const std::string &dir,
          uint64_t checkpointWalBytes = 4ull << 20)
    {
        options.stateDir = dir;
        core = std::make_unique<ServiceCore>(options);
        state = std::make_unique<ServiceState>(dir,
                                               checkpointWalBytes);
        core->attachState(state.get());
        return state->recover(*core, report);
    }
};

void
expectSameCounters(const TenantCounters &a, const TenantCounters &b)
{
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.ingested, b.ingested);
    EXPECT_EQ(a.intervals, b.intervals);
    EXPECT_EQ(a.droppedQueueFull, b.droppedQueueFull);
    EXPECT_EQ(a.droppedRate, b.droppedRate);
    EXPECT_EQ(a.droppedQuota, b.droppedQuota);
    EXPECT_EQ(a.droppedShed, b.droppedShed);
    EXPECT_EQ(a.droppedQuarantine, b.droppedQuarantine);
    EXPECT_EQ(a.pushbacks, b.pushbacks);
}

std::string
walFile(const std::string &dir, uint64_t epoch)
{
    return dir + "/wal-" + std::to_string(epoch) + ".log";
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    // Unlink and create instead of truncating in place: on some file
    // systems truncating a non-empty file costs ~100x more, and the
    // corpus loops rewrite one small file thousands of times.
    std::filesystem::remove(path);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(WalState, ColdStartWritesTheInitialGeneration)
{
    TempDir dir;
    Boot boot;
    ASSERT_TRUE(boot.start(dir.path).isOk());
    EXPECT_FALSE(boot.report.recovered);
    EXPECT_TRUE(fs::exists(dir.path + "/ckpt-1"));
    EXPECT_TRUE(fs::exists(walFile(dir.path, 1)));
    EXPECT_NE(boot.state->bootId(), 0u);
}

TEST(WalState, RecoversTenantsCountersAndWatermarks)
{
    TempDir dir;
    const std::vector<Tuple> streamA = benchStream(1, 5000);
    const std::vector<Tuple> streamB = benchStream(2, 3000);

    TenantCounters wantA, wantB;
    uint64_t wantIntervalsA = 0;
    {
        Boot boot;
        ASSERT_TRUE(boot.start(dir.path).isOk());
        const auto ackA =
            boot.core->connectTenant(helloFor("alpha"));
        const auto ackB = boot.core->connectTenant(helloFor("beta"));
        ASSERT_TRUE(ackA.isOk() && ackB.isOk());
        for (uint64_t seq = 1; seq <= 5; ++seq) {
            ASSERT_TRUE(boot.core
                            ->ingest(ackA->tenantId, seq,
                                     TupleSpan(streamA.data() +
                                                   (seq - 1) * 1000,
                                               1000),
                                     seq)
                            .isOk());
            boot.core->tick();
        }
        ASSERT_TRUE(boot.core
                        ->ingest(ackB->tenantId, 1,
                                 TupleSpan(streamB.data(), 3000), 9)
                        .isOk());
        boot.core->tick();
        ASSERT_TRUE(boot.state->commit().isOk());
        const TenantSession *a =
            boot.core->registry().byId(ackA->tenantId);
        const TenantSession *b =
            boot.core->registry().byId(ackB->tenantId);
        // The uncrashed endpoint the replay must land on: every
        // accepted event ingested (recovery drains to completion).
        boot.core->finishTenant(a->id());
        boot.core->finishTenant(b->id());
        wantA = a->counters();
        wantB = b->counters();
        wantIntervalsA = a->intervalCount();
        // No commit after finishTenant: the crash happens with those
        // drains unjournaled — replay must redo them from the WAL.
    }

    Boot boot;
    ASSERT_TRUE(boot.start(dir.path).isOk());
    EXPECT_TRUE(boot.report.recovered);
    EXPECT_EQ(boot.report.tenantsRestored, 2u);
    ASSERT_EQ(boot.core->registry().size(), 2u);
    const TenantSession *a = boot.core->registry().byName("alpha");
    const TenantSession *b = boot.core->registry().byName("beta");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    expectSameCounters(a->counters(), wantA);
    expectSameCounters(b->counters(), wantB);
    EXPECT_EQ(a->intervalCount(), wantIntervalsA);
    EXPECT_EQ(a->lastSeq(), 5u);
    EXPECT_EQ(b->lastSeq(), 1u);
    // The read side is republished: a query answers immediately.
    EXPECT_NE(boot.core->store().epochOf(a->id()), 0u);
}

TEST(WalState, IngestIsExactlyOnceAcrossRestart)
{
    TempDir dir;
    const std::vector<Tuple> stream = benchStream(3, 2000);
    uint64_t tenantId = 0;
    {
        Boot boot;
        ASSERT_TRUE(boot.start(dir.path).isOk());
        const auto ack = boot.core->connectTenant(helloFor("gamma"));
        ASSERT_TRUE(ack.isOk());
        tenantId = ack->tenantId;
        for (uint64_t seq = 1; seq <= 2; ++seq)
            ASSERT_TRUE(boot.core
                            ->ingest(tenantId, seq,
                                     TupleSpan(stream.data() +
                                                   (seq - 1) * 1000,
                                               1000),
                                     seq)
                            .isOk());
        ASSERT_TRUE(boot.state->commit().isOk());
    }

    Boot boot;
    ASSERT_TRUE(boot.start(dir.path).isOk());
    const TenantSession *session =
        boot.core->registry().byName("gamma");
    ASSERT_NE(session, nullptr);
    const uint64_t arrivedBefore = session->counters().arrived;

    // The client replays its last unacknowledged batch after the
    // bounce; the recovered watermark dedups it exactly.
    const auto replay = boot.core->ingest(
        tenantId, 2, TupleSpan(stream.data() + 1000, 1000), 99);
    ASSERT_TRUE(replay.isOk());
    EXPECT_EQ(replay->accepted, 0u);
    EXPECT_EQ(session->counters().arrived, arrivedBefore);

    // A genuinely new batch still flows.
    const auto fresh = boot.core->ingest(
        tenantId, 3, TupleSpan(stream.data(), 500), 100);
    ASSERT_TRUE(fresh.isOk());
    EXPECT_EQ(fresh->accepted, 500u);
    EXPECT_EQ(session->lastSeq(), 3u);
}

TEST(WalState, CheckpointRotationKeepsExactlyOneGeneration)
{
    TempDir dir;
    const std::vector<Tuple> stream = benchStream(4, 4000);
    Boot boot;
    // A tiny threshold: every commit wants a checkpoint.
    ASSERT_TRUE(boot.start(dir.path, 64).isOk());
    const auto ack = boot.core->connectTenant(helloFor("delta"));
    ASSERT_TRUE(ack.isOk());
    for (uint64_t seq = 1; seq <= 4; ++seq) {
        ASSERT_TRUE(boot.core
                        ->ingest(ack->tenantId, seq,
                                 TupleSpan(stream.data() +
                                               (seq - 1) * 1000,
                                           1000),
                                 seq)
                        .isOk());
        boot.core->tick();
        ASSERT_TRUE(boot.state->commit().isOk());
        ASSERT_TRUE(boot.state->wantCheckpoint());
        ASSERT_TRUE(boot.state->checkpoint(*boot.core).isOk());
    }
    const uint64_t epoch = boot.state->epoch();
    EXPECT_GE(epoch, 5u);

    size_t ckpts = 0, wals = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir.path)) {
        const std::string name = entry.path().filename().string();
        ckpts += name.rfind("ckpt-", 0) == 0 ? 1 : 0;
        wals += name.rfind("wal-", 0) == 0 ? 1 : 0;
    }
    EXPECT_EQ(ckpts, 1u);
    EXPECT_EQ(wals, 1u);

    const TenantCounters want =
        boot.core->registry().byName("delta")->counters();
    boot.core.reset();
    boot.state.reset();

    Boot next;
    ASSERT_TRUE(next.start(dir.path).isOk());
    EXPECT_EQ(next.report.checkpointEpoch, epoch);
    // Everything was checkpointed; nothing should need replay.
    EXPECT_EQ(next.report.walRecordsReplayed, 0u);
    expectSameCounters(
        next.core->registry().byName("delta")->counters(), want);
}

TEST(WalState, FinalRecordPreservesDepartedTenantAccounting)
{
    TempDir dir;
    const std::vector<Tuple> stream = benchStream(5, 1500);
    TenantCounters want;
    {
        Boot boot;
        ASSERT_TRUE(boot.start(dir.path).isOk());
        const auto ack = boot.core->connectTenant(helloFor("omega"));
        ASSERT_TRUE(ack.isOk());
        ASSERT_TRUE(boot.core
                        ->ingest(ack->tenantId, 1,
                                 TupleSpan(stream.data(), 1500), 1)
                        .isOk());
        // Goodbye / idle-eviction path: drain fully, journal Final.
        boot.core->finishTenant(ack->tenantId);
        want = boot.core->registry().byId(ack->tenantId)->counters();
        EXPECT_GT(want.ingested, 0u);
        ASSERT_TRUE(boot.state->commit().isOk());
    }

    Boot boot;
    ASSERT_TRUE(boot.start(dir.path).isOk());
    const TenantSession *session =
        boot.core->registry().byName("omega");
    ASSERT_NE(session, nullptr);
    expectSameCounters(session->counters(), want);
    EXPECT_EQ(session->queuedEvents(), 0u);
}

TEST(WalState, ReplayedRunMatchesUncrashedRunExactly)
{
    // The headline determinism property, in-process: same batches,
    // one run bounced after every commit, identical final state.
    const std::vector<Tuple> stream = benchStream(6, 8000);

    TempDir straightDir;
    TenantCounters straight;
    uint64_t straightIntervals = 0;
    {
        Boot boot;
        ASSERT_TRUE(boot.start(straightDir.path).isOk());
        const auto ack = boot.core->connectTenant(helloFor("t"));
        ASSERT_TRUE(ack.isOk());
        for (uint64_t seq = 1; seq <= 8; ++seq) {
            ASSERT_TRUE(boot.core
                            ->ingest(ack->tenantId, seq,
                                     TupleSpan(stream.data() +
                                                   (seq - 1) * 1000,
                                               1000),
                                     seq)
                            .isOk());
            boot.core->tick();
        }
        boot.core->finishTenant(ack->tenantId);
        const TenantSession *s =
            boot.core->registry().byId(ack->tenantId);
        straight = s->counters();
        straightIntervals = s->intervalCount();
    }

    TempDir bouncedDir;
    uint64_t tenantId = 0;
    for (uint64_t seq = 1; seq <= 8; ++seq) {
        Boot boot;
        ASSERT_TRUE(boot.start(bouncedDir.path).isOk());
        if (seq == 1) {
            const auto ack = boot.core->connectTenant(helloFor("t"));
            ASSERT_TRUE(ack.isOk());
            tenantId = ack->tenantId;
        }
        ASSERT_TRUE(boot.core
                        ->ingest(tenantId, seq,
                                 TupleSpan(stream.data() +
                                               (seq - 1) * 1000,
                                           1000),
                                 seq)
                        .isOk());
        boot.core->tick();
        ASSERT_TRUE(boot.state->commit().isOk());
        // kill -9: no checkpoint, no graceful anything.
    }
    Boot last;
    ASSERT_TRUE(last.start(bouncedDir.path).isOk());
    last.core->finishTenant(tenantId);
    const TenantSession *s = last.core->registry().byId(tenantId);
    expectSameCounters(s->counters(), straight);
    EXPECT_EQ(s->intervalCount(), straightIntervals);
    ASSERT_EQ(s->intervalCount(),
              static_cast<uint64_t>(s->history().size()));
}

TEST(WalState, CommitFailpointsSurfaceAsIoErrors)
{
    TempDir dir;
    Boot boot;
    ASSERT_TRUE(boot.start(dir.path).isOk());
    const auto ack = boot.core->connectTenant(helloFor("x"));
    ASSERT_TRUE(ack.isOk());

    ASSERT_TRUE(configureFailpoints("wal.write.eio=1").isOk());
    EXPECT_EQ(boot.state->commit().code(), StatusCode::IoError);
    clearFailpoints();

    const std::vector<Tuple> stream = benchStream(7, 100);
    ASSERT_TRUE(boot.core
                    ->ingest(ack->tenantId, 1,
                             TupleSpan(stream.data(), 100), 1)
                    .isOk());
    ASSERT_TRUE(configureFailpoints("wal.fsync.eio=1").isOk());
    EXPECT_EQ(boot.state->commit().code(), StatusCode::IoError);
    clearFailpoints();
    // The records are still pending; a healthy retry lands them.
    EXPECT_TRUE(boot.state->dirty());
    EXPECT_TRUE(boot.state->commit().isOk());
}

TEST(WalState, CheckpointFailureLeavesThePreviousGenerationServing)
{
    TempDir dir;
    const std::vector<Tuple> stream = benchStream(8, 1000);
    TenantCounters want;
    {
        Boot boot;
        ASSERT_TRUE(boot.start(dir.path, 64).isOk());
        const auto ack = boot.core->connectTenant(helloFor("y"));
        ASSERT_TRUE(ack.isOk());
        ASSERT_TRUE(boot.core
                        ->ingest(ack->tenantId, 1,
                                 TupleSpan(stream.data(), 1000), 1)
                        .isOk());
        boot.core->tick();
        ASSERT_TRUE(boot.state->commit().isOk());
        want = boot.core->registry().byId(ack->tenantId)->counters();

        ASSERT_TRUE(
            configureFailpoints("snapshot.checkpoint.eio=1").isOk());
        EXPECT_FALSE(boot.state->checkpoint(*boot.core).isOk());
        clearFailpoints();
        // Failure is retryable, and the cue to retry persists.
        EXPECT_TRUE(boot.state->wantCheckpoint());
        ASSERT_TRUE(boot.state->checkpoint(*boot.core).isOk());
    }
    Boot boot;
    ASSERT_TRUE(boot.start(dir.path).isOk());
    expectSameCounters(boot.core->registry().byName("y")->counters(),
                       want);
}

TEST(WalState, RotateFailpointSurfacesAndOldGenerationRecovers)
{
    TempDir dir;
    const std::vector<Tuple> stream = benchStream(9, 1000);
    TenantCounters want;
    {
        Boot boot;
        ASSERT_TRUE(boot.start(dir.path, 64).isOk());
        const auto ack = boot.core->connectTenant(helloFor("z"));
        ASSERT_TRUE(ack.isOk());
        ASSERT_TRUE(boot.core
                        ->ingest(ack->tenantId, 1,
                                 TupleSpan(stream.data(), 1000), 1)
                        .isOk());
        boot.core->tick();
        ASSERT_TRUE(boot.state->commit().isOk());
        want = boot.core->registry().byId(ack->tenantId)->counters();
        ASSERT_TRUE(configureFailpoints("wal.rotate.eio=1").isOk());
        EXPECT_FALSE(boot.state->checkpoint(*boot.core).isOk());
        clearFailpoints();
        // Crash here: a ckpt of the next epoch exists but its WAL
        // segment does not — the legal crash-between-rename-and-
        // rotation window recovery must accept.
    }
    Boot boot;
    ASSERT_TRUE(boot.start(dir.path).isOk());
    expectSameCounters(boot.core->registry().byName("z")->counters(),
                       want);
}

// ---------------------------------------------------------------------------
// Corruption corpus

/** Set up a state dir with one tenant and committed WAL records. */
uint64_t
seedStateDir(const std::string &dir)
{
    Boot boot;
    EXPECT_TRUE(boot.start(dir).isOk());
    const auto ack = boot.core->connectTenant(helloFor("c"));
    EXPECT_TRUE(ack.isOk());
    const std::vector<Tuple> stream = benchStream(10, 3000);
    for (uint64_t seq = 1; seq <= 3; ++seq)
        EXPECT_TRUE(boot.core
                        ->ingest(ack->tenantId, seq,
                                 TupleSpan(stream.data() +
                                               (seq - 1) * 1000,
                                           1000),
                                 seq)
                        .isOk());
    EXPECT_TRUE(boot.state->commit().isOk());
    return boot.state->epoch();
}

TEST(WalCorruptionCorpus, TornTailReplaysToTheLastIntactRecord)
{
    TempDir dir;
    const uint64_t epoch = seedStateDir(dir.path);
    const std::string wal = walFile(dir.path, epoch);
    std::vector<uint8_t> bytes = readFile(wal);
    ASSERT_GT(bytes.size(), 40u);
    // Cut mid-record: the torn write of a crashed commit.
    bytes.resize(bytes.size() - 17);
    writeFile(wal, bytes);

    Boot boot;
    const Status recovered = boot.start(dir.path);
    ASSERT_TRUE(recovered.isOk()) << recovered.toString();
    const TenantSession *session = boot.core->registry().byName("c");
    ASSERT_NE(session, nullptr);
    // The last batch's record was torn; the prefix replayed.
    EXPECT_EQ(session->counters().arrived, 2000u);
    EXPECT_EQ(session->lastSeq(), 2u);
}

TEST(WalCorruptionCorpus, EveryTruncationRecoversOrRefusesCleanly)
{
    TempDir dir;
    const uint64_t epoch = seedStateDir(dir.path);
    const std::string wal = walFile(dir.path, epoch);
    const std::vector<uint8_t> pristine = readFile(wal);
    for (size_t cut = 0; cut < pristine.size();
         cut += std::max<size_t>(1, pristine.size() / 96)) {
        std::vector<uint8_t> bytes = pristine;
        bytes.resize(cut);
        writeFile(wal, bytes);
        Boot boot;
        const Status recovered = boot.start(dir.path);
        // Either a clean prefix replay or a refusal naming the file
        // — but never a crash and never a half-rebuilt registry
        // presented as healthy.
        if (!recovered.isOk()) {
            EXPECT_EQ(recovered.code(), StatusCode::CorruptData);
            EXPECT_NE(recovered.message().find('@'),
                      std::string::npos);
        } else {
            for (const TenantSession *session :
                 boot.core->registry().all())
                EXPECT_TRUE(session->verifyInvariants().isOk());
        }
    }
}

TEST(WalCorruptionCorpus, CrcFlipRefusesWithPathAndOffset)
{
    TempDir dir;
    const uint64_t epoch = seedStateDir(dir.path);
    const std::string wal = walFile(dir.path, epoch);
    std::vector<uint8_t> bytes = readFile(wal);
    ASSERT_GT(bytes.size(), 60u);
    bytes[bytes.size() / 2] ^= 0x40; // damage a committed record
    writeFile(wal, bytes);

    Boot boot;
    const Status recovered = boot.start(dir.path);
    ASSERT_FALSE(recovered.isOk());
    EXPECT_EQ(recovered.code(), StatusCode::CorruptData);
    EXPECT_NE(recovered.message().find("wal-"), std::string::npos);
    EXPECT_NE(recovered.message().find('@'), std::string::npos);
}

TEST(WalCorruptionCorpus, DuplicatedAdmitRecordRefusesToStart)
{
    TempDir dir;
    const uint64_t epoch = seedStateDir(dir.path);
    const std::string wal = walFile(dir.path, epoch);
    std::vector<uint8_t> bytes = readFile(wal);

    // Locate the admit record (the frame after the segment header)
    // and append a byte-identical duplicate at the tail.
    size_t pos = 0;
    std::vector<std::pair<size_t, size_t>> frames;
    while (pos + 4 <= bytes.size()) {
        const uint32_t length = static_cast<uint32_t>(bytes[pos]) |
                                (static_cast<uint32_t>(bytes[pos + 1])
                                 << 8) |
                                (static_cast<uint32_t>(bytes[pos + 2])
                                 << 16) |
                                (static_cast<uint32_t>(bytes[pos + 3])
                                 << 24);
        const size_t total = 4 + static_cast<size_t>(length) + 4;
        frames.push_back({pos, total});
        pos += total;
    }
    ASSERT_GE(frames.size(), 2u);
    const auto [admitAt, admitLen] = frames[1];
    bytes.insert(bytes.end(), bytes.begin() + admitAt,
                 bytes.begin() + admitAt + admitLen);
    writeFile(wal, bytes);

    Boot boot;
    const Status recovered = boot.start(dir.path);
    ASSERT_FALSE(recovered.isOk());
    EXPECT_EQ(recovered.code(), StatusCode::CorruptData);
}

TEST(WalCorruptionCorpus, TornCheckpointRefusesToStart)
{
    TempDir dir;
    const uint64_t epoch = seedStateDir(dir.path);
    const std::string ckpt =
        dir.path + "/ckpt-" + std::to_string(epoch);
    std::vector<uint8_t> bytes = readFile(ckpt);
    ASSERT_GT(bytes.size(), 10u);
    bytes.resize(bytes.size() - 5);
    writeFile(ckpt, bytes);

    Boot boot;
    const Status recovered = boot.start(dir.path);
    ASSERT_FALSE(recovered.isOk());
    EXPECT_EQ(recovered.code(), StatusCode::CorruptData);
    EXPECT_NE(recovered.message().find("ckpt-"), std::string::npos);
}

TEST(WalCorruptionCorpus, MissingCheckpointWithLiveWalRefuses)
{
    TempDir dir;
    const uint64_t epoch = seedStateDir(dir.path);
    fs::remove(dir.path + "/ckpt-" + std::to_string(epoch));
    // Only the WAL remains: this is not a cold start, and quietly
    // treating it as one would silently discard every tenant.
    Boot boot;
    const Status recovered = boot.start(dir.path);
    ASSERT_FALSE(recovered.isOk());
}

} // namespace
} // namespace mhp
