/**
 * @file
 * Test fixture: the std::unordered_map oracle and double-sum scorer
 * that PerfectProfiler and the uint64_t scoring core replaced, kept
 * verbatim in behaviour as the reference for differential tests.
 */

#ifndef MHP_TESTS_FIXTURES_MAP_ORACLE_H
#define MHP_TESTS_FIXTURES_MAP_ORACLE_H

#include <cstdint>
#include <unordered_map>

#include "analysis/error_metrics.h"
#include "core/profiler.h"
#include "trace/tuple.h"

namespace mhp {

/** Exact per-interval tuple counts in a std::unordered_map. */
class MapOracle
{
  public:
    using Counts = std::unordered_map<Tuple, uint64_t, TupleHash>;

    explicit MapOracle(uint64_t thresholdCount) : threshold(thresholdCount)
    {
    }

    void
    onEvents(const Tuple *events, size_t count)
    {
        for (size_t i = 0; i < count; ++i)
            ++table[events[i]];
    }

    /** Exact counts of the current (un-ended) interval. */
    const Counts &counts() const { return table; }

    uint64_t distinctTuples() const { return table.size(); }

    /** Every tuple at or above the threshold, canonical; clears. */
    IntervalSnapshot endInterval();

    void reset() { table.clear(); }

  private:
    Counts table;
    uint64_t threshold;
};

/** The scorer as it was: double sums, a hash map of the hardware. */
IntervalScore referenceScoreInterval(const MapOracle::Counts &perfectCounts,
                                     const IntervalSnapshot &hardware,
                                     uint64_t thresholdCount);

} // namespace mhp

#endif // MHP_TESTS_FIXTURES_MAP_ORACLE_H
