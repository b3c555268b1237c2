#include "analysis/profile_io.h"

#include <cstdio>
#include <cstring>

#include "support/bytes.h"
#include "support/crc32.h"
#include "support/durable.h"
#include "support/failpoint.h"
#include "trace/event_class.h"

namespace mhp {

namespace {

constexpr char kMagicV3[8] = {'M', 'H', 'P', 'R', 'O', 'F', '3', '\0'};
constexpr char kMagicV2[8] = {'M', 'H', 'P', 'R', 'O', 'F', '2', '\0'};
constexpr char kMagicV1[8] = {'M', 'H', 'P', 'R', 'O', 'F', '1', '\0'};

/**
 * v2/v3: magic(8) kind(1) pad(7) len(8) thr(8) count(8) crc(4).
 * v3 is byte-identical to v2 except for the magic and the kind byte's
 * domain: v3 kinds come from the event-class registry (including
 * 0xff = Unknown), while v2/v1 files predate Path and accept only the
 * original four values.
 */
constexpr size_t kHeaderSizeV2 = 44;
constexpr size_t kHeaderCrcSpan = 40; ///< bytes the header CRC covers

/** v1: magic(8) kind(1) pad(7) len(8) thr(8). */
constexpr size_t kHeaderSizeV1 = 32;

constexpr size_t kRecordSize = 24;
constexpr size_t kCrcSize = 4;

/** v2/v3 sentinel: the writer is still open (count not yet patched). */
constexpr uint64_t kUnterminated = UINT64_MAX;

/** Serialize a v3 header with the given interval count. */
void
buildHeaderV3(uint8_t (&header)[kHeaderSizeV2], ProfileKind kind,
              uint64_t intervalLength, uint64_t thresholdCount,
              uint64_t intervalCount)
{
    std::memset(header, 0, sizeof(header));
    std::memcpy(header, kMagicV3, sizeof(kMagicV3));
    header[8] = profileKindToByte(kind);
    putLe64(header + 16, intervalLength);
    putLe64(header + 24, thresholdCount);
    putLe64(header + 32, intervalCount);
    putLe32(header + 40, crc32(header, kHeaderCrcSpan));
}

} // namespace

ProfileWriter::ProfileWriter(const std::string &path, ProfileKind kind_,
                             uint64_t intervalLength_,
                             uint64_t thresholdCount_)
    : finalPath(path), tempPath(path + ".tmp"),
      out(tempPath, std::ios::binary | std::ios::trunc), kind(kind_),
      intervalLength(intervalLength_), thresholdCount(thresholdCount_)
{
    if (!out)
        return;
    uint8_t header[kHeaderSizeV2];
    buildHeaderV3(header, kind, intervalLength, thresholdCount,
                  kUnterminated);
    out.write(reinterpret_cast<const char *>(header), kHeaderSizeV2);
}

ProfileWriter::~ProfileWriter()
{
    // Best-effort finalize; callers that care about errors call
    // close() themselves first.
    Status s = close();
    (void)s;
}

Status
ProfileWriter::fail(Status error)
{
    // Latch the first failure: once any write failed (for real or by
    // injection) the temp file is suspect, so later writeInterval()
    // calls refuse and close() discards the temp instead of renaming
    // a partial profile into place.
    if (firstError.isOk())
        firstError = error;
    return error;
}

Status
ProfileWriter::writeInterval(const IntervalSnapshot &snapshot)
{
    if (closed)
        return Status::failedPrecondition(finalPath +
                                          ": write after close");
    if (!firstError.isOk())
        return firstError;
    if (!out)
        return fail(Status::ioError(tempPath +
                                    ": cannot write profile"));

    if (failpointFires("profile.write.enospc", intervals)) {
        return fail(Status::ioError(
            tempPath +
            ": injected ENOSPC (failpoint profile.write.enospc)"));
    }

    ByteBuffer payload;
    payload.u64(snapshot.size());
    for (const auto &cand : snapshot) {
        payload.u64(cand.tuple.first);
        payload.u64(cand.tuple.second);
        payload.u64(cand.count);
    }
    uint8_t crcLe[kCrcSize];
    putLe32(crcLe, crc32(payload.data(), payload.size()));

    if (failpointFires("profile.write.short", intervals)) {
        // A short write really lands some prefix of the record; cut
        // this one in half so the temp file holds torn bytes, exactly
        // like a disk that filled mid-write.
        out.write(reinterpret_cast<const char *>(payload.data()),
                  static_cast<std::streamsize>(payload.size() / 2));
        out.flush();
        return fail(Status::ioError(
            tempPath +
            ": injected short write (failpoint profile.write.short)"));
    }

    out.write(reinterpret_cast<const char *>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.write(reinterpret_cast<const char *>(crcLe), kCrcSize);
    if (!out)
        return fail(Status::ioError(tempPath + ": short write"));
    ++intervals;
    return Status::ok();
}

Status
ProfileWriter::close()
{
    if (closed)
        return Status::ok();
    closed = true;
    if (!firstError.isOk()) {
        std::remove(tempPath.c_str());
        return firstError;
    }
    if (!out) {
        std::remove(tempPath.c_str());
        return Status::ioError(tempPath + ": cannot open for writing");
    }
    if (failpointFires("profile.close.enospc")) {
        std::remove(tempPath.c_str());
        return Status::ioError(
            tempPath +
            ": injected ENOSPC (failpoint profile.close.enospc)");
    }

    // Back-patch the interval count (and thus the header CRC), then
    // publish the finished file under its final name in one rename.
    uint8_t header[kHeaderSizeV2];
    buildHeaderV3(header, kind, intervalLength, thresholdCount,
                  intervals);
    out.seekp(0);
    out.write(reinterpret_cast<const char *>(header), kHeaderSizeV2);
    out.flush();
    const bool wrote = static_cast<bool>(out);
    out.close();
    if (!wrote) {
        std::remove(tempPath.c_str());
        return Status::ioError(tempPath + ": cannot finalize profile");
    }

    // The rename only publishes the *name* atomically; the data must
    // be on disk first (and the rename itself is only durable once
    // the parent directory is synced) — otherwise a crash right after
    // close() can still surface an empty file under the final name.
    Status synced = failpointFires("profile.fsync")
                        ? Status::ioError(
                              tempPath + ": injected fsync failure "
                                         "(failpoint profile.fsync)")
                        : fsyncFile(tempPath);
    if (!synced.isOk()) {
        std::remove(tempPath.c_str());
        return synced;
    }
    if (failpointFires("profile.rename") ||
        std::rename(tempPath.c_str(), finalPath.c_str()) != 0) {
        std::remove(tempPath.c_str());
        return Status::ioError("cannot rename " + tempPath + " to " +
                               finalPath);
    }
    Status dirSynced =
        failpointFires("profile.dirsync")
            ? Status::ioError(finalPath +
                              ": injected directory fsync failure "
                              "(failpoint profile.dirsync)")
            : fsyncParentDir(finalPath);
    if (!dirSynced.isOk()) {
        // The rename already happened; the profile is complete and
        // valid, just not yet guaranteed durable. Report it — the
        // caller decides whether that is fatal.
        return dirSynced;
    }
    return Status::ok();
}

Status
ProfileReader::corruptHere(const std::string &reason) const
{
    return Status::corruptDataf(
        "%s: %s (offset %llu)", path.c_str(), reason.c_str(),
        static_cast<unsigned long long>(offset));
}

StatusOr<ProfileReader>
ProfileReader::open(const std::string &path)
{
    ProfileReader r;
    r.path = path;
    r.in.open(path, std::ios::binary);
    if (!r.in)
        return Status::notFound(path + ": cannot open profile file");

    r.in.seekg(0, std::ios::end);
    r.fileSize = static_cast<uint64_t>(r.in.tellg());
    r.in.seekg(0);

    uint8_t magic[8];
    r.in.read(reinterpret_cast<char *>(magic), sizeof(magic));
    if (r.in.gcount() != static_cast<std::streamsize>(sizeof(magic)))
        return r.corruptHere("truncated profile header");

    const bool isV3 = std::memcmp(magic, kMagicV3, sizeof(magic)) == 0;
    if (isV3 || std::memcmp(magic, kMagicV2, sizeof(magic)) == 0) {
        r.version = isV3 ? 3 : 2;
        uint8_t header[kHeaderSizeV2];
        std::memcpy(header, magic, sizeof(magic));
        r.in.read(reinterpret_cast<char *>(header) + sizeof(magic),
                  kHeaderSizeV2 - sizeof(magic));
        if (r.in.gcount() !=
            static_cast<std::streamsize>(kHeaderSizeV2 - sizeof(magic)))
            return r.corruptHere("truncated profile header");
        const uint32_t stored = getLe32(header + 40);
        const uint32_t computed = crc32(header, kHeaderCrcSpan);
        if (stored != computed) {
            return Status::corruptDataf(
                "%s: header CRC mismatch (stored %08x, computed %08x)",
                path.c_str(), stored, computed);
        }
        if (isV3) {
            // v3 kinds come from the registry (0xff = Unknown allowed).
            std::optional<ProfileKind> kind =
                profileKindFromByte(header[8]);
            if (!kind)
                return r.corruptHere("unknown profile kind");
            r.profileKind = *kind;
        } else {
            // v2 predates Path; files written then can only carry the
            // original four values, so anything else is corruption.
            if (header[8] >
                static_cast<uint8_t>(ProfileKind::Mispredict))
                return r.corruptHere("unknown profile kind");
            r.profileKind = static_cast<ProfileKind>(header[8]);
        }
        r.length = getLe64(header + 16);
        r.threshold = getLe64(header + 24);
        r.intervalCount = getLe64(header + 32);
        if (r.intervalCount == kUnterminated) {
            return r.corruptHere(
                "unterminated profile (writer never closed)");
        }
        // Every interval needs at least its count field and CRC, so a
        // corrupt count can never drive reads past the file.
        const uint64_t body = r.fileSize - kHeaderSizeV2;
        if (r.intervalCount > body / (8 + kCrcSize))
            return r.corruptHere("interval count exceeds file size");
        r.offset = kHeaderSizeV2;
        return r;
    }

    if (std::memcmp(magic, kMagicV1, sizeof(magic)) == 0) {
        r.version = 1;
        uint8_t header[kHeaderSizeV1];
        std::memcpy(header, magic, sizeof(magic));
        r.in.read(reinterpret_cast<char *>(header) + sizeof(magic),
                  kHeaderSizeV1 - sizeof(magic));
        if (r.in.gcount() !=
            static_cast<std::streamsize>(kHeaderSizeV1 - sizeof(magic)))
            return r.corruptHere("truncated profile header");
        if (header[8] > static_cast<uint8_t>(ProfileKind::Mispredict))
            return r.corruptHere("unknown profile kind");
        r.profileKind = static_cast<ProfileKind>(header[8]);
        r.length = getLe64(header + 16);
        r.threshold = getLe64(header + 24);
        r.offset = kHeaderSizeV1;
        return r;
    }

    return Status::corruptData(path + ": bad profile magic");
}

StatusOr<bool>
ProfileReader::readInterval(IntervalSnapshot &snapshot)
{
    if (version >= 2 && intervalsRead == intervalCount)
        return false;

    uint8_t countLe[8];
    in.read(reinterpret_cast<char *>(countLe), 8);
    if (version == 1 && in.gcount() == 0)
        return false; // v1: clean EOF
    if (in.gcount() != 8)
        return corruptHere("truncated profile interval header");
    const uint64_t count = getLe64(countLe);

    // Bound the allocation and the read loop by what the file can
    // actually hold past this point; a corrupt count field must fail
    // here, not in operator new.
    const uint64_t remaining = fileSize - offset - 8;
    const uint64_t tail = version >= 2 ? kCrcSize : 0;
    if (count > (remaining < tail ? 0 : (remaining - tail)) / kRecordSize)
        return corruptHere("candidate count exceeds remaining file size");

    Crc32 crc;
    crc.update(countLe, sizeof(countLe));

    IntervalSnapshot result;
    result.reserve(count);
    offset += 8;
    for (uint64_t i = 0; i < count; ++i) {
        uint8_t rec[kRecordSize];
        in.read(reinterpret_cast<char *>(rec), kRecordSize);
        if (in.gcount() != static_cast<std::streamsize>(kRecordSize))
            return corruptHere("truncated profile record");
        crc.update(rec, kRecordSize);
        CandidateCount cand;
        cand.tuple.first = getLe64(rec);
        cand.tuple.second = getLe64(rec + 8);
        cand.count = getLe64(rec + 16);
        result.push_back(cand);
        offset += kRecordSize;
    }

    if (version >= 2) {
        uint8_t crcLe[kCrcSize];
        in.read(reinterpret_cast<char *>(crcLe), kCrcSize);
        if (in.gcount() != static_cast<std::streamsize>(kCrcSize))
            return corruptHere("truncated interval CRC");
        const uint32_t stored = getLe32(crcLe);
        if (stored != crc.value()) {
            return Status::corruptDataf(
                "%s: interval %llu CRC mismatch at offset %llu "
                "(stored %08x, computed %08x)",
                path.c_str(),
                static_cast<unsigned long long>(intervalsRead),
                static_cast<unsigned long long>(offset), stored,
                crc.value());
        }
        offset += kCrcSize;
    }

    ++intervalsRead;
    snapshot = std::move(result);
    return true;
}

StatusOr<std::optional<IntervalSnapshot>>
ProfileReader::next()
{
    IntervalSnapshot snapshot;
    StatusOr<bool> got = readInterval(snapshot);
    if (!got.isOk())
        return got.status();
    if (!*got) {
        // The clean end is where trailing garbage becomes detectable:
        // every declared interval parsed, yet bytes remain.
        if (version >= 2 && offset != fileSize)
            return corruptHere("trailing garbage after last interval");
        return std::optional<IntervalSnapshot>();
    }
    return std::optional<IntervalSnapshot>(std::move(snapshot));
}

} // namespace mhp
