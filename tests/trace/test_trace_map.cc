/**
 * @file
 * TraceMap / TraceMapSource: the zero-copy end of the streaming data
 * plane, and the bit-identicality of every path through it.
 *
 * The contract under test (docs/STREAMING.md): a trace replayed
 * through the per-event runner, the batched staging cursor, the mmap
 * cursor, and the in-memory span runner produces the same scores,
 * snapshots, and event counts — for traces of length 0, 1, exactly
 * one chunk, chunk +/- 1, and a non-multiple of the interval length,
 * so every chunk/interval boundary case is pinned down.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/interval_runner.h"
#include "core/factory.h"
#include "fixtures/vector_source.h"
#include "support/rng.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "trace/tuple_span.h"

namespace mhp {
namespace {

class TraceMapTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Parameterized test names contain '/'; flatten to one file.
        std::string name = ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
        for (char &c : name)
            if (c == '/')
                c = '_';
        path = (std::filesystem::temp_directory_path() /
                ("mhp_trace_map_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "_" + name + ".mht"))
                   .string();
    }

    void TearDown() override { std::remove(path.c_str()); }

    /** Write `n` deterministic tuples to `path` and return them. */
    std::vector<Tuple>
    writeTrace(size_t n, ProfileKind kind = ProfileKind::Value)
    {
        std::vector<Tuple> tuples;
        Rng rng(7);
        tuples.reserve(n);
        for (size_t i = 0; i < n; ++i)
            tuples.push_back({rng.next() % 257, rng.next() % 97});
        TraceWriter w(path, kind);
        for (const auto &t : tuples)
            w.accept(t);
        EXPECT_TRUE(w.close().isOk());
        return tuples;
    }

    std::string path;
};

TEST_F(TraceMapTest, MapsAndReadsBackEveryRecord)
{
    const auto tuples = writeTrace(1000, ProfileKind::Edge);

    auto map = TraceMap::open(path);
    ASSERT_TRUE(map.isOk()) << map.status().toString();
    EXPECT_EQ((*map)->kind(), ProfileKind::Edge);
    EXPECT_EQ((*map)->totalEvents(), tuples.size());
    EXPECT_EQ((*map)->path(), path);
    for (size_t i = 0; i < tuples.size(); ++i)
        EXPECT_EQ((*map)->at(i), tuples[i]);
}

TEST_F(TraceMapTest, SpanIsZeroCopyOnLittleEndianHosts)
{
    const auto tuples = writeTrace(100);

    auto map = TraceMap::open(path);
    ASSERT_TRUE(map.isOk()) << map.status().toString();
    const auto span = (*map)->span();
    if (!TraceMap::zeroCopy()) {
        EXPECT_FALSE(span.has_value());
        return;
    }
    ASSERT_TRUE(span.has_value());
    ASSERT_EQ(span->size(), tuples.size());
    for (size_t i = 0; i < tuples.size(); ++i)
        EXPECT_EQ((*span)[i], tuples[i]);
}

TEST_F(TraceMapTest, ReadServesChunksAtAnyOffset)
{
    const auto tuples = writeTrace(4096 + 17);

    auto map = TraceMap::open(path);
    ASSERT_TRUE(map.isOk()) << map.status().toString();
    std::vector<Tuple> scratch;
    // Walk with a chunk size that never divides the total evenly.
    uint64_t offset = 0;
    while (offset < tuples.size()) {
        const TupleSpan chunk = (*map)->read(offset, 1000, scratch);
        ASSERT_FALSE(chunk.empty());
        for (size_t i = 0; i < chunk.size(); ++i)
            EXPECT_EQ(chunk[i], tuples[offset + i]);
        offset += chunk.size();
    }
    EXPECT_EQ(offset, tuples.size());
    // Past-the-end reads are empty, not UB.
    EXPECT_TRUE((*map)->read(tuples.size(), 10, scratch).empty());
}

TEST_F(TraceMapTest, EmptyTraceMapsCleanly)
{
    writeTrace(0);

    auto map = TraceMap::open(path);
    ASSERT_TRUE(map.isOk()) << map.status().toString();
    EXPECT_EQ((*map)->totalEvents(), 0u);
    TraceMapSource source(*map);
    EXPECT_TRUE(source.done());
    EXPECT_TRUE(source.take(100).empty());
}

TEST_F(TraceMapTest, OpenRejectsMissingFile)
{
    auto map = TraceMap::open("/nonexistent/path/to/trace.mht");
    ASSERT_FALSE(map.isOk());
    EXPECT_EQ(map.status().code(), StatusCode::NotFound);
}

TEST_F(TraceMapTest, OpenRejectsBadMagic)
{
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOTATRACE-and-some-padding-bytes";
    }
    auto map = TraceMap::open(path);
    ASSERT_FALSE(map.isOk());
    EXPECT_EQ(map.status().code(), StatusCode::CorruptData);
}

TEST_F(TraceMapTest, OpenRejectsTruncatedBody)
{
    writeTrace(100);
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 5);

    auto map = TraceMap::open(path);
    ASSERT_FALSE(map.isOk());
    EXPECT_EQ(map.status().code(), StatusCode::CorruptData);
    // The one-line diagnostic must name the file.
    EXPECT_NE(map.status().message().find(path), std::string::npos);
}

TEST_F(TraceMapTest, FingerprintIsSensitiveToContent)
{
    writeTrace(500);
    uint64_t original = 0;
    {
        auto a = TraceMap::open(path);
        ASSERT_TRUE(a.isOk());
        original = (*a)->fingerprint();
    }

    // Same content reopened: same fingerprint.
    {
        auto again = TraceMap::open(path);
        ASSERT_TRUE(again.isOk());
        EXPECT_EQ((*again)->fingerprint(), original);
    }

    // One flipped record: different fingerprint.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(kTraceHeaderSize));
        const uint64_t poison = ~0ULL;
        f.write(reinterpret_cast<const char *>(&poison), 8);
    }
    auto doctored = TraceMap::open(path);
    ASSERT_TRUE(doctored.isOk());
    EXPECT_NE((*doctored)->fingerprint(), original);

    // A shorter trace (different count): different fingerprint.
    std::remove(path.c_str());
    writeTrace(499);
    auto shorter = TraceMap::open(path);
    ASSERT_TRUE(shorter.isOk());
    EXPECT_NE((*shorter)->fingerprint(), original);
}

TEST_F(TraceMapTest, SourceDeliversEveryEventInOrder)
{
    const auto tuples = writeTrace(777);

    auto map = TraceMap::open(path);
    ASSERT_TRUE(map.isOk());
    TraceMapSource source(*map);
    EXPECT_EQ(source.size(), tuples.size());
    for (const auto &expected : tuples) {
        ASSERT_FALSE(source.done());
        EXPECT_EQ(source.next(), expected);
    }
    EXPECT_TRUE(source.done());
}

TEST_F(TraceMapTest, SourceTakeWalksChunksAndRewinds)
{
    const auto tuples = writeTrace(300);

    auto map = TraceMap::open(path);
    ASSERT_TRUE(map.isOk());
    TraceMapSource source(*map);
    for (int pass = 0; pass < 2; ++pass) {
        size_t offset = 0;
        while (true) {
            const TupleSpan chunk = source.take(64);
            if (chunk.empty())
                break;
            for (size_t i = 0; i < chunk.size(); ++i)
                EXPECT_EQ(chunk[i], tuples[offset + i]);
            offset += chunk.size();
        }
        EXPECT_EQ(offset, tuples.size());
        EXPECT_EQ(source.position(), tuples.size());
        // Exhausted cursors keep returning empty.
        EXPECT_TRUE(source.take(1).empty());
        source.rewind();
        EXPECT_EQ(source.position(), 0u);
    }
}

TEST_F(TraceMapTest, TwoCursorsOverOneMapAreIndependent)
{
    const auto tuples = writeTrace(128);

    auto map = TraceMap::open(path);
    ASSERT_TRUE(map.isOk());
    TraceMapSource a(*map);
    TraceMapSource b(*map);
    (void)a.take(100);
    EXPECT_EQ(a.position(), 100u);
    EXPECT_EQ(b.position(), 0u);
    const TupleSpan first = b.take(1);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0], tuples[0]);
}

/** Compare two RunOutputs field by field, with exact equality. */
void
expectSameOutput(const RunOutput &a, const RunOutput &b)
{
    EXPECT_EQ(a.eventsConsumed, b.eventsConsumed);
    EXPECT_EQ(a.intervalsCompleted, b.intervalsCompleted);
    EXPECT_EQ(a.stream.distinctTuples, b.stream.distinctTuples);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t p = 0; p < a.results.size(); ++p) {
        const RunResult &ra = a.results[p];
        const RunResult &rb = b.results[p];
        ASSERT_EQ(ra.intervals.size(), rb.intervals.size());
        for (size_t i = 0; i < ra.intervals.size(); ++i) {
            const IntervalScore &sa = ra.intervals[i];
            const IntervalScore &sb = rb.intervals[i];
            EXPECT_EQ(sa.breakdown.falsePositive,
                      sb.breakdown.falsePositive);
            EXPECT_EQ(sa.breakdown.falseNegative,
                      sb.breakdown.falseNegative);
            EXPECT_EQ(sa.breakdown.neutralPositive,
                      sb.breakdown.neutralPositive);
            EXPECT_EQ(sa.breakdown.neutralNegative,
                      sb.breakdown.neutralNegative);
            EXPECT_EQ(sa.perfectCandidates, sb.perfectCandidates);
            EXPECT_EQ(sa.hardwareCandidates, sb.hardwareCandidates);
        }
    }
}

/**
 * The heart of the data-plane contract: every streaming path over the
 * same trace produces bit-identical output. Trace lengths cover the
 * chunk and interval boundary cases: empty, one event, exactly one
 * chunk, one less, one more, and a count that is a multiple of
 * neither the chunk nor the interval length.
 */
class StreamEquivalence : public TraceMapTest,
                          public ::testing::WithParamInterface<size_t>
{
};

TEST_P(StreamEquivalence, AllPathsProduceIdenticalRuns)
{
    constexpr uint64_t kIntervalLength = 50;
    constexpr uint64_t kBatch = 32; // never divides the interval
    constexpr uint64_t kMaxIntervals = 1000;
    const ProfilerConfig cfg = [&] {
        ProfilerConfig c = bestMultiHashConfig(kIntervalLength, 0.02);
        c.totalHashEntries = 256;
        return c;
    }();

    const auto tuples = writeTrace(GetParam());

    // Path 1 — per-event over an in-memory vector (the reference): a
    // one-event staging cursor, one onEvents() block per tuple.
    auto p1 = makeProfiler(cfg);
    VectorSource vec(tuples, ProfileKind::Value, "vector");
    EventSourceCursor single(vec, 1);
    StreamRunOptions perEventOptions;
    perEventOptions.batchSize = 1;
    const RunOutput perEvent = runIntervalsStream(
        single, {p1.get()}, kIntervalLength, cfg.thresholdCount(),
        kMaxIntervals, perEventOptions);

    // Path 2 — batched staging cursor over the same vector.
    auto p2 = makeProfiler(cfg);
    VectorSource vecAgain(tuples, ProfileKind::Value, "vector");
    EventSourceCursor staged(vecAgain, kBatch);
    StreamRunOptions batchedOptions;
    batchedOptions.batchSize = kBatch;
    const RunOutput batched = runIntervalsStream(
        staged, {p2.get()}, kIntervalLength, cfg.thresholdCount(),
        kMaxIntervals, batchedOptions);

    // Path 3 — zero-copy chunks straight from the mapping.
    auto map = TraceMap::open(path);
    ASSERT_TRUE(map.isOk()) << map.status().toString();
    auto p3 = makeProfiler(cfg);
    TraceMapSource cursor(*map);
    StreamRunOptions stream;
    stream.batchSize = kBatch;
    const RunOutput mapped = runIntervalsStream(
        cursor, {p3.get()}, kIntervalLength, cfg.thresholdCount(),
        kMaxIntervals, stream);

    expectSameOutput(perEvent, batched);
    expectSameOutput(perEvent, mapped);

    // Path 4 — the in-memory parallel runner over the map's span
    // (little-endian hosts only; big-endian has no zero-copy view).
    if (TraceMap::zeroCopy()) {
        ASSERT_TRUE((*map)->span().has_value());
        auto p4 = makeProfiler(cfg);
        const RunOutput span = runIntervalsSpan(
            *(*map)->span(), {p4.get()}, kIntervalLength,
            cfg.thresholdCount(), kMaxIntervals);
        expectSameOutput(perEvent, span);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkBoundaries, StreamEquivalence,
    ::testing::Values(0, 1, 31, 32, 33, 50, 99, 100, 101, 550 + 17),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return "events_" + std::to_string(info.param);
    });

} // namespace
} // namespace mhp
