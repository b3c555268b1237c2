#include "trace/trace_map.h"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/bytes.h"
#include "support/failpoint.h"
#include "support/panic.h"
#include "trace/trace_io.h"

namespace mhp {

namespace {

// The zero-copy path reinterprets the mapped little-endian record
// region as a Tuple array, so the in-memory layout must match the
// on-disk one exactly: two unpadded 64-bit words.
static_assert(sizeof(Tuple) == kTraceRecordSize,
              "Tuple must match the .mht record layout");
static_assert(std::is_trivially_copyable_v<Tuple>);
static_assert(offsetof(Tuple, first) == 0 &&
              offsetof(Tuple, second) == 8);

/** Cap one big-endian decode chunk so scratch stays bounded. */
constexpr size_t kMaxDecodeChunk = 1u << 16;

} // namespace

StatusOr<std::shared_ptr<const TraceMap>>
TraceMap::open(const std::string &path)
{
    // Injectable mmap failure: callers are expected to fall back to
    // the buffered TraceReader, and this site lets tests prove they
    // actually do.
    if (failpointFires("trace.map.open")) {
        return Status::ioError(
            path + ": injected mmap failure (failpoint "
                   "trace.map.open); stream it with TraceReader "
                   "instead");
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return Status::notFound(path + ": cannot open trace file");

    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return Status::ioError(path + ": cannot stat trace file");
    }
    const auto fileSize = static_cast<uint64_t>(st.st_size);

    uint8_t header[kTraceHeaderSize];
    ssize_t got = ::pread(fd, header, kTraceHeaderSize, 0);
    if (got != static_cast<ssize_t>(kTraceHeaderSize)) {
        ::close(fd);
        return Status::corruptData(path + ": truncated trace header");
    }

    std::shared_ptr<TraceMap> map(new TraceMap);
    map->filePath = path;
    if (Status bad = validateTraceHeader(path, header, fileSize,
                                         map->profileKind, map->total);
        !bad.isOk()) {
        ::close(fd);
        return bad;
    }

    // Map the whole file (header included, so the record region sits
    // at a fixed 8-byte-aligned offset). A valid trace is never empty
    // — the header alone is kTraceHeaderSize bytes — so length > 0.
    void *base =
        ::mmap(nullptr, static_cast<size_t>(fileSize), PROT_READ,
               MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (base == MAP_FAILED) {
        return Status::ioError(
            path + ": cannot mmap trace (" +
            std::string(std::strerror(errno)) +
            "); stream it with TraceReader instead");
    }
    map->base = base;
    map->mapLength = static_cast<size_t>(fileSize);
    return std::shared_ptr<const TraceMap>(std::move(map));
}

TraceMap::~TraceMap()
{
    if (base != nullptr)
        ::munmap(base, mapLength);
}

const uint8_t *
TraceMap::records() const
{
    return static_cast<const uint8_t *>(base) + kTraceHeaderSize;
}

std::optional<TupleSpan>
TraceMap::span() const
{
    if (!zeroCopy())
        return std::nullopt;
    return TupleSpan(reinterpret_cast<const Tuple *>(records()), total);
}

TupleSpan
TraceMap::read(uint64_t offset, size_t maxCount,
               std::vector<Tuple> &scratch) const
{
    MHP_ASSERT(offset <= total, "read past end of mapped trace");
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(maxCount, total - offset));
    if (zeroCopy()) {
        return TupleSpan(
            reinterpret_cast<const Tuple *>(records()) + offset, n);
    }
    const size_t chunk = std::min(n, kMaxDecodeChunk);
    scratch.resize(chunk);
    const uint8_t *p = records() + offset * kTraceRecordSize;
    for (size_t i = 0; i < chunk; ++i, p += kTraceRecordSize) {
        scratch[i].first = getLe64(p);
        scratch[i].second = getLe64(p + 8);
    }
    return TupleSpan(scratch.data(), chunk);
}

Tuple
TraceMap::at(uint64_t offset) const
{
    MHP_ASSERT(offset < total, "at() past end of mapped trace");
    const uint8_t *p = records() + offset * kTraceRecordSize;
    return Tuple{getLe64(p), getLe64(p + 8)};
}

uint64_t
TraceMap::fingerprint() const
{
    ByteBuffer id;
    id.u8(static_cast<uint8_t>(profileKind));
    id.u64(total);
    uint64_t h = fnv1a64(id.data(), id.size());
    const uint64_t bodyBytes = total * kTraceRecordSize;
    const uint64_t window = std::min<uint64_t>(bodyBytes, 1u << 16);
    h ^= fnv1a64(records(), static_cast<size_t>(window));
    h ^= fnv1a64(records() + (bodyBytes - window),
                 static_cast<size_t>(window)) *
         0x100000001b3ULL;
    return h;
}

TraceMapSource::TraceMapSource(std::shared_ptr<const TraceMap> map_)
    : map(std::move(map_))
{
    MHP_REQUIRE(map != nullptr, "TraceMapSource needs a map");
}

Tuple
TraceMapSource::next()
{
    MHP_ASSERT(!done(), "next() past end of mapped trace");
    return map->at(pos++);
}

TupleSpan
TraceMapSource::take(size_t maxEvents)
{
    const TupleSpan chunk = map->read(pos, maxEvents, scratch);
    pos += chunk.size();
    return chunk;
}

} // namespace mhp
