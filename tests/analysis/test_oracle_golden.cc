/**
 * Frozen digest of the scores both interval runners produce.
 *
 * The .mhp files carry snapshots, not scores, so a change to the
 * oracle or to scoreInterval() could move every published error
 * number while every two-path identity test still passes. This test
 * pins an FNV-1a digest of every IntervalScore (the bit patterns of
 * its doubles and its counts) and every per-interval distinct-tuple
 * count over:
 *
 *  - the 8 suite benchmarks x {BSH, mh4} at 10K / 1%, 40 intervals;
 *  - gcc x {BSH, mh4} at 1M / 0.1%, 4 intervals;
 *
 * each run through runIntervalsStream() and runIntervalsSpan(). The
 * literal was recorded with the std::unordered_map oracle; a change
 * that moves it changes published numbers and must say so.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "analysis/interval_runner.h"
#include "core/factory.h"
#include "trace/tuple_span.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void add(double d) { add(std::bit_cast<uint64_t>(d)); }

    void
    add(const RunOutput &out)
    {
        for (const RunResult &r : out.results) {
            for (const IntervalScore &s : r.intervals) {
                add(s.breakdown.falsePositive);
                add(s.breakdown.falseNegative);
                add(s.breakdown.neutralPositive);
                add(s.breakdown.neutralNegative);
                add(s.counts.falsePositive);
                add(s.counts.falseNegative);
                add(s.counts.neutralPositive);
                add(s.counts.neutralNegative);
                add(s.perfectCandidates);
                add(s.hardwareCandidates);
            }
        }
        for (uint64_t d : out.stream.distinctTuples)
            add(d);
    }
};

/** Score BSH and mh4 on one benchmark through both runners. */
void
digestCell(Fnv1a &digest, const std::string &benchmark,
           uint64_t intervalLength, double threshold, uint64_t intervals)
{
    auto workload = makeValueWorkload(benchmark);
    std::vector<Tuple> events(intervalLength * intervals);
    for (Tuple &t : events)
        t = workload->next();

    const ProfilerConfig configs[] = {
        bestSingleHashConfig(intervalLength, threshold),
        bestMultiHashConfig(intervalLength, threshold),
    };
    const uint64_t thresholdCount = configs[0].thresholdCount();

    auto bsh = makeProfiler(configs[0]);
    auto mh4 = makeProfiler(configs[1]);
    TupleSpanSource cursor{TupleSpan(events)};
    digest.add(runIntervalsStream(cursor, {bsh.get(), mh4.get()},
                                  intervalLength, thresholdCount,
                                  intervals));

    bsh = makeProfiler(configs[0]);
    mh4 = makeProfiler(configs[1]);
    digest.add(runIntervalsSpan(TupleSpan(events), {bsh.get(), mh4.get()},
                                intervalLength, thresholdCount, intervals,
                                {.threads = 3}));
}

TEST(OracleGolden, ScoresMatchRecordedDigest)
{
    Fnv1a digest;
    for (const std::string &name : benchmarkNames())
        digestCell(digest, name, 10'000, 0.01, 40);
    digestCell(digest, "gcc", 1'000'000, 0.001, 4);
    EXPECT_EQ(digest.h, 0x4b14c8450210cf95ULL);
}

} // namespace
} // namespace mhp
