/**
 * @file
 * The perfect (oracle) interval profiler used for error calculation.
 *
 * Keeps an exact count for every tuple seen in the current interval;
 * its candidates are the ground truth against which the hardware
 * profilers' snapshots are scored (paper Section 5.5.1).
 *
 * The counts live in one flat open-addressing table, reused across
 * intervals: structure-of-arrays keys[] and uint32_t counts[], linear
 * probing, count 0 marking an empty slot. A tuple goes on the
 * candidate list the moment its count reaches the threshold, so
 * closing or scoring an interval reads only those ~1/threshold
 * candidates instead of every distinct tuple. Clearing an interval
 * zeroes just the slots it filled. See docs/STREAMING.md ("The
 * oracle").
 */

#ifndef MHP_CORE_PERFECT_PROFILER_H
#define MHP_CORE_PERFECT_PROFILER_H

#include <unordered_map>
#include <vector>

#include "core/profiler.h"
#include "trace/tuple.h"

namespace mhp {

/** Exact per-interval tuple counter (grows without bound). */
class PerfectProfiler : public HardwareProfiler
{
  public:
    /**
     * @param thresholdCount Occurrences needed within the interval to
     *        be reported as a candidate.
     * @param expectedDistinct Distinct tuples expected per interval
     *        (the runners pass the interval length). The table starts
     *        at the power of two that holds them at half load, capped
     *        at 2^20 slots; 0 starts at 1024. Either way the table
     *        doubles whenever it passes half load.
     */
    explicit PerfectProfiler(uint64_t thresholdCount,
                             uint64_t expectedDistinct = 0);

    void onEvent(const Tuple &t) override;
    void onEvents(const Tuple *events, size_t count) override;

    /** The candidate list as a canonical snapshot, then reset(). */
    IntervalSnapshot endInterval() override;

    /**
     * Drop the interval's counts without building a snapshot. Zeroes
     * only the slots this interval filled; the table keeps its size.
     */
    void reset() override;

    std::string name() const override { return "perfect"; }

    /** An oracle has no hardware budget. */
    uint64_t areaBytes() const override { return 0; }

    /** Exact count of a tuple this interval; 0 if it has not occurred. */
    uint64_t countOf(const Tuple &t) const;

    /**
     * Every tuple whose count has reached the threshold this interval,
     * with its current count, in the order they crossed (not sorted).
     */
    IntervalSnapshot candidates() const;

    /** Distinct tuples seen so far this interval. */
    uint64_t distinctTuples() const { return filled.size(); }

    /**
     * Ledger-only adapter, kept until the ledger drivers score through
     * the candidate list: the interval's exact counts as a map, then
     * reset().
     */
    std::unordered_map<Tuple, uint64_t, TupleHash> takeCounts();

    uint64_t thresholdCount() const { return threshold; }

  private:
    /** Slot holding t, or the empty slot where it would go. */
    size_t probe(const Tuple &t) const;

    /** Double the table and move every filled slot. */
    void grow();

    std::vector<Tuple> keys;
    std::vector<uint32_t> counts; ///< 0 = empty slot
    size_t mask = 0;              ///< slots - 1

    std::vector<uint32_t> filled;  ///< slots filled this interval
    std::vector<uint32_t> crossed; ///< slots that reached threshold
    uint64_t threshold;
};

} // namespace mhp

#endif // MHP_CORE_PERFECT_PROFILER_H
