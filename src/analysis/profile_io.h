/**
 * @file
 * Binary serialization of captured profiles (.mhp files).
 *
 * A profile file stores the sequence of interval snapshots a profiler
 * produced — the artifact a run-time optimizer (or an offline tool)
 * consumes. The current on-disk format is v3 (see docs/FORMATS.md for
 * the byte-level specification):
 *
 *   header:   magic "MHPROF3\0" (8 bytes)
 *             kind (1 byte)    reserved (7 bytes, zero)
 *             intervalLength (8 bytes LE)
 *             thresholdCount (8 bytes LE)
 *             intervalCount (8 bytes LE, back-patched on close)
 *             headerCrc (4 bytes LE, CRC-32 of bytes [0,40))
 *   per interval:
 *             candidateCount (8 bytes LE)
 *             candidateCount * { first, second, count } (24 bytes LE)
 *             intervalCrc (4 bytes LE, CRC-32 of count + records)
 *
 * The writer streams to "<path>.tmp" and renames into place on
 * close(), so a crash never leaves a half-written profile under the
 * final name. The reader validates both CRCs, bounds every allocation
 * by the remaining file size, and detects truncation from the explicit
 * interval count; it still accepts v2 ("MHPROF2\0", same layout but
 * the kind byte predates the event-class registry, so only the
 * original four kinds are valid) and the legacy v1 format
 * ("MHPROF1\0", no CRCs, implicit interval count read until EOF).
 *
 * Everything here treats the file as untrusted input: failures are
 * reported as Status values whose messages carry path, offset, and
 * reason — nothing in this file aborts the process (see
 * docs/ROBUSTNESS.md for the error-handling contract).
 */

#ifndef MHP_ANALYSIS_PROFILE_IO_H
#define MHP_ANALYSIS_PROFILE_IO_H

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "support/status.h"
#include "trace/tuple.h"

namespace mhp {

/** Streams interval snapshots into a .mhp file (v3, checksummed). */
class ProfileWriter
{
  public:
    /**
     * Open "<path>.tmp" for writing; the file appears under its final
     * name only when close() succeeds.
     *
     * @param path Final output file (replaced atomically on close).
     * @param kind What the tuples represent.
     * @param intervalLength Events per interval (metadata).
     * @param thresholdCount Candidate threshold (metadata).
     */
    ProfileWriter(const std::string &path, ProfileKind kind,
                  uint64_t intervalLength, uint64_t thresholdCount);

    /** Abandons (close()s) the profile if still open; errors are lost. */
    ~ProfileWriter();

    ProfileWriter(const ProfileWriter &) = delete;
    ProfileWriter &operator=(const ProfileWriter &) = delete;

    bool ok() const { return static_cast<bool>(out); }

    /**
     * Append one interval's snapshot (checksummed). Failures latch:
     * after the first error every further write returns it, and
     * close() removes the temp file instead of publishing a partial
     * profile.
     */
    Status writeInterval(const IntervalSnapshot &snapshot);

    /**
     * Back-patch the interval count, flush, fsync the temp file,
     * atomically rename it into place, and fsync the parent directory
     * so the rename survives a crash. Idempotent; returns the first
     * error. On any failure before the rename the temp file is
     * removed and nothing appears under the final name.
     */
    Status close();

    uint64_t intervalsWritten() const { return intervals; }

  private:
    /** Record (and return) the first write failure. */
    Status fail(Status error);

    std::string finalPath;
    std::string tempPath;
    std::ofstream out;
    uint64_t intervals = 0;
    ProfileKind kind;
    uint64_t intervalLength;
    uint64_t thresholdCount;
    bool closed = false;
    Status firstError;
};

/** Reads a .mhp file back (v3/v2 with validation; v1 accepted). */
class ProfileReader
{
  public:
    /**
     * Open and validate a profile header. Every failure — missing
     * file, bad magic, corrupt header CRC, unterminated v2 writer —
     * comes back as a Status naming the path and reason.
     */
    static StatusOr<ProfileReader> open(const std::string &path);

    ProfileKind kind() const { return profileKind; }
    uint64_t intervalLength() const { return length; }
    uint64_t thresholdCount() const { return threshold; }

    /** On-disk format version: 1 (legacy), 2, or 3. */
    unsigned formatVersion() const { return version; }

    /** Intervals the v2/v3 header promises (0 for v1: implicit). */
    uint64_t declaredIntervals() const
    {
        return version >= 2 ? intervalCount : 0;
    }

    /**
     * Cursor: read the next snapshot, or nullopt at the clean end of
     * the profile (where a v2 file with bytes trailing the last
     * declared interval is rejected as corrupt). Peak memory is one
     * interval — this is the streaming interface the tools are built
     * on.
     */
    StatusOr<std::optional<IntervalSnapshot>> next();

    /**
     * Read the next snapshot.
     * @return true if one was read, false at clean end of profile, or
     *         a CorruptData/IoError Status (path + offset + reason).
     */
    StatusOr<bool> readInterval(IntervalSnapshot &snapshot);

  private:
    ProfileReader() = default;

    Status corruptHere(const std::string &reason) const;

    std::string path;
    std::ifstream in;
    ProfileKind profileKind = ProfileKind::Value;
    uint64_t length = 0;
    uint64_t threshold = 0;
    unsigned version = 3;
    uint64_t intervalCount = 0; ///< declared (v2/v3 only)
    uint64_t intervalsRead = 0;
    uint64_t fileSize = 0;
    uint64_t offset = 0; ///< bytes consumed so far (diagnostics)
};

} // namespace mhp

#endif // MHP_ANALYSIS_PROFILE_IO_H
