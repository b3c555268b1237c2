/**
 * Differential tests: the flat PerfectProfiler and the uint64_t
 * scoring core against the map oracle and double-sum scorer they
 * replaced (tests/fixtures/map_oracle.h). They must agree on counts,
 * candidates, distinct tuples and every IntervalScore, bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/interval_runner.h"
#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "fixtures/map_oracle.h"
#include "support/rng.h"
#include "support/zipf.h"
#include "trace/tuple_span.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

enum class StreamKind
{
    Random,
    AllDistinct,
    SingleTuple,
    Zipf,
};

std::vector<Tuple>
makeStream(StreamKind kind, size_t n, uint64_t seed)
{
    Rng rng(seed);
    const ZipfDistribution zipf(5000, 1.1);
    std::vector<Tuple> out(n);
    for (size_t i = 0; i < n; ++i) {
        switch (kind) {
          case StreamKind::Random:
            out[i] = {rng.nextBelow(300), rng.nextBelow(4)};
            break;
          case StreamKind::AllDistinct:
            out[i] = {seed, i};
            break;
          case StreamKind::SingleTuple:
            out[i] = {7, 7};
            break;
          case StreamKind::Zipf:
            out[i] = {zipf.sample(rng) * 64, 1};
            break;
        }
    }
    return out;
}

/**
 * A hardware-like snapshot over the interval's true counts: most true
 * candidates with perturbed counts, a few sub-threshold tuples
 * promoted (false positives) and a few tuples that never occurred.
 */
IntervalSnapshot
noisySnapshot(const MapOracle::Counts &truth, uint64_t threshold, Rng &rng)
{
    IntervalSnapshot sorted;
    for (const auto &[tuple, count] : truth)
        sorted.push_back({tuple, count});
    canonicalize(sorted);

    IntervalSnapshot out;
    for (const CandidateCount &c : sorted) {
        if (c.count >= threshold) {
            if (rng.nextBelow(10) < 7) {
                const uint64_t delta = rng.nextBelow(threshold + 1);
                out.push_back({c.tuple, rng.nextBelow(2) == 0
                                            ? c.count + delta
                                            : std::max(threshold,
                                                       c.count - delta / 2)});
            }
        } else if (rng.nextBelow(50) == 0) {
            out.push_back({c.tuple, threshold + rng.nextBelow(threshold)});
        }
    }
    for (uint64_t i = 0; i < 3; ++i)
        out.push_back({{~uint64_t{0} - i, i}, threshold + i});
    canonicalize(out);
    return out;
}

/** Both oracles hold the same open interval; check every view of it. */
void
expectSameTruth(const PerfectProfiler &flat, const MapOracle &map,
                uint64_t threshold, Rng &rng)
{
    ASSERT_EQ(flat.distinctTuples(), map.distinctTuples());
    IntervalSnapshot want;
    for (const auto &[tuple, count] : map.counts()) {
        ASSERT_EQ(flat.countOf(tuple), count) << tuple.toString();
        if (count >= threshold)
            want.push_back({tuple, count});
    }
    EXPECT_EQ(flat.countOf({~uint64_t{0}, 12345}), 0u);

    IntervalSnapshot got = flat.candidates();
    ASSERT_EQ(got.size(), want.size());
    canonicalize(got);
    canonicalize(want);
    EXPECT_EQ(got, want);

    const IntervalSnapshot hw = noisySnapshot(map.counts(), threshold, rng);
    EXPECT_EQ(scoreInterval(flat, hw),
              referenceScoreInterval(map.counts(), hw, threshold));
    EXPECT_EQ(scoreInterval(map.counts(), hw, threshold),
              referenceScoreInterval(map.counts(), hw, threshold));
    const IntervalSnapshot none;
    EXPECT_EQ(scoreInterval(flat, none),
              referenceScoreInterval(map.counts(), none, threshold));
}

/**
 * Feed both oracles `intervals` intervals of `length` events in blocks
 * of varying size, checking each interval and alternating the two
 * ways of closing one.
 */
void
runBoth(const std::vector<Tuple> &stream, uint64_t length,
        uint64_t threshold, uint64_t hint)
{
    PerfectProfiler flat(threshold, hint);
    MapOracle map(threshold);
    Rng rng(threshold * 31 + length);
    const size_t blocks[] = {1, 7, 64, 1000, 4096};
    for (uint64_t k = 0; k * length + length <= stream.size(); ++k) {
        const Tuple *events = stream.data() + k * length;
        for (uint64_t at = 0, b = 0; at < length; ++b) {
            const uint64_t n =
                std::min<uint64_t>(blocks[b % 5], length - at);
            flat.onEvents(events + at, n);
            map.onEvents(events + at, n);
            at += n;
        }
        expectSameTruth(flat, map, threshold, rng);
        if (k % 2 == 0) {
            EXPECT_EQ(flat.endInterval(), map.endInterval());
        } else {
            flat.reset();
            map.reset();
        }
        EXPECT_EQ(flat.distinctTuples(), 0u);
        EXPECT_TRUE(flat.candidates().empty());
    }
}

TEST(OracleDifferential, StreamsAndThresholds)
{
    const uint64_t length = 2000;
    for (const StreamKind kind :
         {StreamKind::Random, StreamKind::AllDistinct,
          StreamKind::SingleTuple, StreamKind::Zipf}) {
        const auto stream =
            makeStream(kind, 4 * length, static_cast<uint64_t>(kind) + 1);
        for (const uint64_t threshold : {uint64_t{1}, uint64_t{3},
                                         uint64_t{20}, length + 1}) {
            SCOPED_TRACE(testing::Message()
                         << "kind=" << static_cast<int>(kind)
                         << " threshold=" << threshold);
            runBoth(stream, length, threshold, length);
        }
    }
}

TEST(OracleDifferential, GrowthPastTheHintMovesCandidates)
{
    // Heavy hitters cross first, then a flood of distinct tuples grows
    // the table several times, so recorded candidate slots must move;
    // the heavy hitters keep counting afterwards.
    std::vector<Tuple> stream;
    for (uint64_t round = 0; round < 3; ++round) {
        for (uint64_t h = 0; h < 40; ++h)
            for (int i = 0; i < 5; ++i)
                stream.push_back({h, 0});
        for (uint64_t i = 0; i < 9000; ++i)
            stream.push_back({1000 + round * 9000 + i, 1});
    }
    for (const uint64_t threshold : {uint64_t{1}, uint64_t{5}, uint64_t{9}})
        runBoth(stream, stream.size(), threshold, /*hint=*/0);

    // The grown table is reused: a second, longer interval regrows
    // nothing and still agrees.
    stream.insert(stream.end(), stream.begin(), stream.end());
    runBoth(stream, stream.size() / 2, 5, /*hint=*/16);
}

TEST(OracleDifferential, ClearThenRecross)
{
    // reset() zeroes only the filled slots; the singleton {3, 3}
    // must not outlive it.
    PerfectProfiler flat(3, /*hint=*/4096);
    MapOracle map(3);
    Rng rng(3);
    const std::vector<Tuple> first = {{1, 1}, {1, 1}, {1, 1}, {2, 2},
                                      {3, 3}, {2, 2}};
    const std::vector<Tuple> second = {{2, 2}, {1, 1}, {2, 2}, {3, 3},
                                       {1, 1}, {2, 2}, {1, 1}, {1, 1}};
    flat.onEvents(first.data(), first.size());
    map.onEvents(first.data(), first.size());
    expectSameTruth(flat, map, 3, rng);
    flat.reset();
    map.reset();

    flat.onEvents(second.data(), second.size());
    map.onEvents(second.data(), second.size());
    expectSameTruth(flat, map, 3, rng);
    const IntervalSnapshot cands = flat.candidates();
    ASSERT_EQ(cands.size(), 2u); // each crossed once this interval
    EXPECT_EQ(cands[0], (CandidateCount{{2, 2}, 3}));
    EXPECT_EQ(cands[1], (CandidateCount{{1, 1}, 4}));
    EXPECT_EQ(flat.endInterval(), map.endInterval());
}

/** The paper's design space: BSH and 2/4/8 tables over C, R and P. */
std::vector<ProfilerConfig>
paperConfigs(uint64_t length, double threshold)
{
    std::vector<ProfilerConfig> out;
    for (const unsigned tables : {1u, 2u, 4u, 8u}) {
        for (const bool conservative : {false, true}) {
            if (tables == 1 && conservative)
                continue; // C needs several tables
            for (const bool reset : {false, true}) {
                for (const bool retain : {false, true}) {
                    ProfilerConfig c =
                        bestMultiHashConfig(length, threshold);
                    c.numHashTables = tables;
                    c.conservativeUpdate = conservative;
                    c.resetOnPromote = reset;
                    c.retaining = retain;
                    out.push_back(c);
                }
            }
        }
    }
    return out;
}

struct ReferenceRun
{
    std::vector<std::vector<IntervalScore>> scores;
    std::vector<uint64_t> distinct;
};

/** The pre-flat serial pipeline: map oracle, double-sum scorer. */
ReferenceRun
referenceRun(const std::vector<Tuple> &events,
             const std::vector<ProfilerConfig> &configs, uint64_t length,
             uint64_t intervals)
{
    const uint64_t threshold = configs[0].thresholdCount();
    std::vector<std::unique_ptr<HardwareProfiler>> profilers;
    for (const auto &c : configs)
        profilers.push_back(makeProfiler(c));
    MapOracle oracle(threshold);
    ReferenceRun out;
    out.scores.resize(configs.size());
    for (uint64_t k = 0; k < intervals; ++k) {
        const Tuple *interval = events.data() + k * length;
        oracle.onEvents(interval, length);
        for (auto &p : profilers)
            p->onEvents(interval, length);
        out.distinct.push_back(oracle.distinctTuples());
        for (size_t i = 0; i < profilers.size(); ++i) {
            out.scores[i].push_back(referenceScoreInterval(
                oracle.counts(), profilers[i]->endInterval(), threshold));
        }
        oracle.reset();
    }
    return out;
}

void
expectMatchesReference(const RunOutput &got, const ReferenceRun &want)
{
    ASSERT_EQ(got.results.size(), want.scores.size());
    EXPECT_EQ(got.stream.distinctTuples, want.distinct);
    for (size_t i = 0; i < want.scores.size(); ++i)
        EXPECT_EQ(got.results[i].intervals, want.scores[i]) << "config " << i;
}

TEST(OracleDifferential, EveryPaperConfigMatchesTheMapOracle)
{
    struct Regime
    {
        const char *benchmark;
        uint64_t length;
        double threshold;
        uint64_t intervals;
    };
    for (const Regime r : {Regime{"gcc", 10'000, 0.01, 6},
                           Regime{"go", 10'000, 0.01, 6},
                           Regime{"gcc", 200'000, 0.001, 2}}) {
        SCOPED_TRACE(testing::Message() << r.benchmark << " " << r.length);
        auto workload = makeValueWorkload(r.benchmark, 3);
        std::vector<Tuple> events(r.length * r.intervals);
        for (Tuple &t : events)
            t = workload->next();
        const auto configs = paperConfigs(r.length, r.threshold);
        const uint64_t threshold = configs[0].thresholdCount();
        const ReferenceRun want =
            referenceRun(events, configs, r.length, r.intervals);

        const auto fresh = [&configs](auto &owned) {
            owned.clear();
            std::vector<HardwareProfiler *> raw;
            for (const auto &c : configs) {
                owned.push_back(makeProfiler(c));
                raw.push_back(owned.back().get());
            }
            return raw;
        };
        std::vector<std::unique_ptr<HardwareProfiler>> owned;

        TupleSpanSource cursor{TupleSpan(events)};
        expectMatchesReference(runIntervalsStream(cursor, fresh(owned),
                                                  r.length, threshold,
                                                  r.intervals),
                               want);
        for (const unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(testing::Message() << "threads=" << threads);
            expectMatchesReference(
                runIntervalsSpan(TupleSpan(events), fresh(owned), r.length,
                                 threshold, r.intervals,
                                 {.threads = threads}),
                want);
        }
    }
}

} // namespace
} // namespace mhp
