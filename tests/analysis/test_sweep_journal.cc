/**
 * @file
 * Lease-record journaling: the distributed coordinator's accounting
 * trail shares the checkpoint journal with cell records, and resume
 * correctness must never depend on it. These tests pin the payload
 * round trips for every LeaseAction, mixed cell+lease journals loading
 * back exactly, torn tails cutting at the last intact record, and the
 * corruption corpus over the lease payloads (ctest -R
 * CorruptionCorpus picks the latter up under ASan+UBSan).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/sweep_journal.h"
#include "support/bytes.h"

namespace mhp {
namespace {

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
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

std::string
tempName(const char *stem)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("mhp_journal_") + stem + "_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()))
        .string();
}

SweepCellResult
sampleCell(uint64_t index)
{
    SweepCellResult cell;
    cell.benchmarkIndex = index % 3;
    cell.configIndex = index % 2;
    cell.intervalLengthIndex = index;
    cell.benchmark = "gcc";
    cell.configLabel = "mh4";
    cell.intervalLength = 1000 * (index + 1);
    cell.thresholdCount = 10 + index;
    cell.eventsConsumed = 1'000'000 + index;
    cell.intervalsCompleted = 10;
    return cell;
}

LeaseRecord
sampleLease(uint64_t id, LeaseAction action)
{
    LeaseRecord lease;
    lease.leaseId = id;
    lease.begin = id * 10;
    lease.end = id * 10 + 7;
    lease.workerId = id % 4;
    lease.action = action;
    return lease;
}

TEST(SweepJournalLease, RoundTripsEveryAction)
{
    for (const LeaseAction action :
         {LeaseAction::Acquire, LeaseAction::Complete,
          LeaseAction::Reclaim, LeaseAction::Trim}) {
        const LeaseRecord lease =
            sampleLease(42, action);
        ByteBuffer payload;
        serializeLeaseRecord(payload, lease);

        ByteCursor cursor(payload.data(), payload.size());
        uint64_t mark = 0;
        ASSERT_TRUE(cursor.u64(mark));
        ASSERT_EQ(mark, kLeaseRecordMark);
        LeaseRecord back;
        ASSERT_TRUE(deserializeLeaseRecord(cursor, back));
        EXPECT_EQ(back, lease);
        EXPECT_TRUE(cursor.atEnd());
    }
}

TEST(SweepJournalLease, MixedJournalLoadsCellsAndLeaseTrail)
{
    const std::string path = tempName("mixed");
    std::filesystem::remove(path);
    const uint64_t fingerprint = 0xFEEDFACE12345678ULL;
    const size_t cellCount = 16;

    {
        auto fresh = loadSweepCheckpoint(path, fingerprint, cellCount);
        ASSERT_TRUE(fresh.isOk());
        EXPECT_FALSE(fresh->exists);

        CheckpointJournal journal;
        ASSERT_TRUE(
            journal.open(path, fingerprint, *fresh).isOk());
        ASSERT_TRUE(
            journal
                .appendLease(sampleLease(1, LeaseAction::Acquire))
                .isOk());
        ASSERT_TRUE(journal.append(10, sampleCell(10)).isOk());
        ASSERT_TRUE(journal.append(11, sampleCell(11)).isOk());
        ASSERT_TRUE(
            journal.appendLease(sampleLease(1, LeaseAction::Trim))
                .isOk());
        ASSERT_TRUE(
            journal
                .appendLease(sampleLease(1, LeaseAction::Complete))
                .isOk());
        ASSERT_TRUE(
            journal
                .appendLease(sampleLease(2, LeaseAction::Reclaim))
                .isOk());
        ASSERT_TRUE(journal.finish().isOk());
    }

    auto loaded = loadSweepCheckpoint(path, fingerprint, cellCount);
    ASSERT_TRUE(loaded.isOk());
    EXPECT_TRUE(loaded->exists);
    ASSERT_EQ(loaded->completed.size(), 2u);
    EXPECT_EQ(loaded->completed.at(10), sampleCell(10));
    EXPECT_EQ(loaded->completed.at(11), sampleCell(11));
    ASSERT_EQ(loaded->leases.size(), 4u);
    EXPECT_EQ(loaded->leases[0], sampleLease(1, LeaseAction::Acquire));
    EXPECT_EQ(loaded->leases[1], sampleLease(1, LeaseAction::Trim));
    EXPECT_EQ(loaded->leases[2],
              sampleLease(1, LeaseAction::Complete));
    EXPECT_EQ(loaded->leases[3],
              sampleLease(2, LeaseAction::Reclaim));

    // The single-process resume path ignores the lease trail
    // entirely: the completed map is the only state it consumes.
    std::filesystem::remove(path);
}

TEST(SweepJournalLease, TornTailIsCutAtLastIntactRecord)
{
    const std::string path = tempName("torn");
    std::filesystem::remove(path);
    const uint64_t fingerprint = 0xABCDULL;
    const size_t cellCount = 8;

    {
        auto fresh = loadSweepCheckpoint(path, fingerprint, cellCount);
        ASSERT_TRUE(fresh.isOk());
        CheckpointJournal journal;
        ASSERT_TRUE(journal.open(path, fingerprint, *fresh).isOk());
        ASSERT_TRUE(journal.append(3, sampleCell(3)).isOk());
        ASSERT_TRUE(
            journal
                .appendLease(sampleLease(9, LeaseAction::Acquire))
                .isOk());
        ASSERT_TRUE(journal.finish().isOk());
    }

    const std::vector<uint8_t> intact = readFile(path);
    ASSERT_GT(intact.size(), 24u);

    // Tear the file at every length: the loader must never crash and
    // must keep exactly the records that are still whole.
    for (size_t cut = 0; cut < intact.size(); ++cut) {
        std::vector<uint8_t> torn(intact.begin(),
                                  intact.begin() + cut);
        writeFile(path, torn);
        auto loaded =
            loadSweepCheckpoint(path, fingerprint, cellCount);
        ASSERT_TRUE(loaded.isOk()) << "cut at " << cut;
        if (cut < 24) {
            // A header cut short by a kill during creation is our own
            // debris (a prefix of the magic): restart from scratch.
            EXPECT_FALSE(loaded->exists) << "cut at " << cut;
            continue;
        }
        EXPECT_LE(loaded->goodOffset, cut) << "cut at " << cut;
        EXPECT_LE(loaded->completed.size(), 1u);
        EXPECT_LE(loaded->leases.size(), 1u);
        if (cut == intact.size() - 1) {
            // Only the lease record's last CRC byte is gone.
            EXPECT_EQ(loaded->completed.size(), 1u);
            EXPECT_TRUE(loaded->leases.empty());
        }
    }

    // Resume after a tear: reopen truncates the torn tail and appends
    // cleanly; the journal is whole again afterwards.
    writeFile(path, std::vector<uint8_t>(intact.begin(),
                                         intact.end() - 3));
    auto loaded = loadSweepCheckpoint(path, fingerprint, cellCount);
    ASSERT_TRUE(loaded.isOk());
    CheckpointJournal journal;
    ASSERT_TRUE(journal.open(path, fingerprint, *loaded).isOk());
    ASSERT_TRUE(
        journal.appendLease(sampleLease(9, LeaseAction::Reclaim))
            .isOk());
    ASSERT_TRUE(journal.append(5, sampleCell(5)).isOk());
    ASSERT_TRUE(journal.finish().isOk());

    auto reloaded = loadSweepCheckpoint(path, fingerprint, cellCount);
    ASSERT_TRUE(reloaded.isOk());
    ASSERT_EQ(reloaded->completed.size(), 2u);
    EXPECT_EQ(reloaded->completed.at(3), sampleCell(3));
    EXPECT_EQ(reloaded->completed.at(5), sampleCell(5));
    ASSERT_EQ(reloaded->leases.size(), 1u);
    EXPECT_EQ(reloaded->leases[0],
              sampleLease(9, LeaseAction::Reclaim));
    std::filesystem::remove(path);
}

TEST(CorruptionCorpusSweepJournal, LeasePayloadSurvivesMutation)
{
    const LeaseRecord lease = sampleLease(7, LeaseAction::Complete);
    ByteBuffer payload;
    serializeLeaseRecord(payload, lease);
    const std::vector<uint8_t> pristine(
        payload.data(), payload.data() + payload.size());

    for (size_t cut = 0; cut < pristine.size(); ++cut) {
        ByteCursor cursor(pristine.data(), cut);
        uint64_t mark = 0;
        if (!cursor.u64(mark))
            continue;
        LeaseRecord back;
        EXPECT_FALSE(deserializeLeaseRecord(cursor, back))
            << "cut at " << cut;
    }

    for (size_t bit = 0; bit < pristine.size() * 8; ++bit) {
        std::vector<uint8_t> mutated = pristine;
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        ByteCursor cursor(mutated.data(), mutated.size());
        uint64_t mark = 0;
        ASSERT_TRUE(cursor.u64(mark));
        LeaseRecord back;
        // Flips in the id/range fields decode to different values;
        // flips in the action byte must be rejected. Either way: no
        // crash, no overrun (ASan enforces the latter).
        (void)deserializeLeaseRecord(cursor, back);
    }

    // An action byte (payload offset 8, right after the mark) outside
    // the enum is malformed.
    std::vector<uint8_t> badAction = pristine;
    badAction[8] = 0;
    {
        ByteCursor cursor(badAction.data(), badAction.size());
        uint64_t mark = 0;
        ASSERT_TRUE(cursor.u64(mark));
        LeaseRecord back;
        EXPECT_FALSE(deserializeLeaseRecord(cursor, back));
    }
    badAction[8] = 99;
    {
        ByteCursor cursor(badAction.data(), badAction.size());
        uint64_t mark = 0;
        ASSERT_TRUE(cursor.u64(mark));
        LeaseRecord back;
        EXPECT_FALSE(deserializeLeaseRecord(cursor, back));
    }
}

TEST(CorruptionCorpusSweepJournal, FlippedLeaseRecordStopsTheLoad)
{
    const std::string path = tempName("flip");
    std::filesystem::remove(path);
    const uint64_t fingerprint = 0x1234ULL;

    {
        auto fresh = loadSweepCheckpoint(path, fingerprint, 4);
        ASSERT_TRUE(fresh.isOk());
        CheckpointJournal journal;
        ASSERT_TRUE(journal.open(path, fingerprint, *fresh).isOk());
        ASSERT_TRUE(journal.append(0, sampleCell(0)).isOk());
        ASSERT_TRUE(
            journal
                .appendLease(sampleLease(1, LeaseAction::Acquire))
                .isOk());
        ASSERT_TRUE(journal.append(1, sampleCell(1)).isOk());
        ASSERT_TRUE(journal.finish().isOk());
    }

    const std::vector<uint8_t> intact = readFile(path);

    // Find the lease record: its payload is between the two cell
    // records. Flip one byte inside it (after the first cell record's
    // bytes) — the CRC must catch it, and the load must keep the first
    // cell but drop the lease and everything after it.
    // Locate the second record's start by re-walking the layout:
    // header(24) + rec1(8 + payload1 + 4).
    size_t offset = 24;
    const uint64_t payload1 = getLe64(intact.data() + offset);
    offset += 8 + static_cast<size_t>(payload1) + 4;
    ASSERT_LT(offset + 12, intact.size());

    std::vector<uint8_t> mutated = intact;
    mutated[offset + 8 + 2] ^= 0x40; // inside the lease payload
    writeFile(path, mutated);

    auto loaded = loadSweepCheckpoint(path, fingerprint, 4);
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded->completed.size(), 1u);
    EXPECT_TRUE(loaded->completed.count(0));
    EXPECT_TRUE(loaded->leases.empty());
    EXPECT_EQ(loaded->goodOffset, offset);
    std::filesystem::remove(path);
}

} // namespace
} // namespace mhp
