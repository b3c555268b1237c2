/**
 * @file
 * The CRC-journaled sweep checkpoint format, shared by
 * SweepRunner::runResilient and the distributed coordinator (see
 * docs/DISTRIBUTED.md).
 *
 * A journal is a 24-byte header — magic, plan fingerprint, header
 * CRC — followed by append-only records, each `size(8) payload crc(4)`.
 * Two record kinds share the stream, distinguished by the payload's
 * leading u64:
 *
 *  - *cell records* (leading u64 = cell index < cellCount): one
 *    completed SweepCellResult, bit-exact;
 *  - *lease records* (leading u64 = kLeaseRecordMark): the distributed
 *    coordinator's work-accounting trail — which worker held which
 *    cell range, and whether the lease completed or was reclaimed
 *    after a worker died.
 *
 * Only cell records carry result state; resume correctness never
 * depends on lease records (a missing cell is simply recomputed), so
 * journals written by the single-process engine — which emits no
 * leases — and by the coordinator are mutually resumable. Loading
 * stops at the first record that fails its CRC or parse (a record
 * torn by a kill).
 */

#ifndef MHP_ANALYSIS_SWEEP_JOURNAL_H
#define MHP_ANALYSIS_SWEEP_JOURNAL_H

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/sweep_runner.h"
#include "support/bytes.h"
#include "support/status.h"

namespace mhp {

/** Leading u64 of a lease record's payload (never a cell index). */
constexpr uint64_t kLeaseRecordMark = ~0ULL;

/** What happened to a leased cell range. */
enum class LeaseAction : uint8_t
{
    Acquire = 1,  ///< the range was granted to a worker
    Complete = 2, ///< every cell in the range was reported
    Reclaim = 3,  ///< the worker died/stalled; the tail was repooled
    Trim = 4,     ///< the range was shortened by work-stealing
};

/** One lease-journal entry. */
struct LeaseRecord
{
    uint64_t leaseId = 0;
    uint64_t begin = 0;
    uint64_t end = 0; ///< exclusive
    uint64_t workerId = 0;
    LeaseAction action = LeaseAction::Acquire;

    friend bool operator==(const LeaseRecord &,
                           const LeaseRecord &) = default;
};

/** Serialize one finished cell into a journal/wire record payload. */
void serializeCellRecord(ByteBuffer &payload, uint64_t cellIndex,
                         const SweepCellResult &cell);

/** Parse a cell record payload; false on any bounds violation. */
bool deserializeCellRecord(ByteCursor &cursor, uint64_t &cellIndex,
                           SweepCellResult &cell);

/** Serialize a lease record (kLeaseRecordMark-prefixed payload). */
void serializeLeaseRecord(ByteBuffer &payload,
                          const LeaseRecord &lease);

/**
 * Parse a lease record payload *after* the caller consumed the
 * kLeaseRecordMark u64; false on malformed input.
 */
bool deserializeLeaseRecord(ByteCursor &cursor, LeaseRecord &lease);

/** What survived of an existing checkpoint journal. */
struct LoadedCheckpoint
{
    std::unordered_map<uint64_t, SweepCellResult> completed;

    /** Lease trail in journal order (diagnostics, resume reports). */
    std::vector<LeaseRecord> leases;

    /** File offset just past the last intact record. */
    uint64_t goodOffset = 0;

    /** False when the file does not exist (start a fresh journal). */
    bool exists = false;
};

/**
 * Load a checkpoint journal, validating magic, header CRC, and the
 * plan fingerprint; any corrupt/truncated tail is cut at the last
 * intact record. NotFound never happens — a missing file is a fresh
 * run (exists = false).
 */
StatusOr<LoadedCheckpoint>
loadSweepCheckpoint(const std::string &path, uint64_t fingerprint,
                    size_t cellCount);

/**
 * Append-only writer over the checkpoint journal, shared by
 * SweepRunner's checkpointed runs and the distributed coordinator.
 * append()/appendLease() are thread-safe and write+flush each record
 * whole under a lock, so a kill can only truncate the final record
 * (which loadSweepCheckpoint discards); finish() makes the journal
 * durable with an fsync of the file and its parent directory.
 */
class CheckpointJournal
{
  public:
    /** Truncate any corrupt tail and open for append (or create). */
    Status open(const std::string &journalPath, uint64_t fingerprint,
                const LoadedCheckpoint &loaded);

    /** Serialize, write, and flush one finished cell (thread-safe). */
    Status append(uint64_t cellIndex, const SweepCellResult &cell);

    /** Write and flush one lease record (thread-safe). */
    Status appendLease(const LeaseRecord &lease);

    /** Flush and fsync the journal and its directory. */
    Status finish();

  private:
    Status appendRecordLocked(const ByteBuffer &payload,
                              uint64_t failpointKey);

    std::string path;
    std::ofstream out;
    std::mutex mutex;
};

} // namespace mhp

#endif // MHP_ANALYSIS_SWEEP_JOURNAL_H
