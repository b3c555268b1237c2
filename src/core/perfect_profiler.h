/**
 * @file
 * The perfect (oracle) interval profiler used for error calculation.
 *
 * Keeps an exact count for every tuple seen in the current interval;
 * its candidates are the ground truth against which the hardware
 * profilers' snapshots are scored (paper Section 5.5.1).
 */

#ifndef MHP_CORE_PERFECT_PROFILER_H
#define MHP_CORE_PERFECT_PROFILER_H

#include <unordered_map>

#include "core/profiler.h"
#include "trace/tuple.h"

namespace mhp {

/** Exact per-interval tuple counter (unbounded storage). */
class PerfectProfiler : public HardwareProfiler
{
  public:
    /**
     * @param thresholdCount Occurrences needed within the interval to
     *        be reported as a candidate.
     */
    explicit PerfectProfiler(uint64_t thresholdCount);

    void onEvent(const Tuple &t) override;
    void onEvents(const Tuple *events, size_t count) override;
    IntervalSnapshot endInterval() override;
    void reset() override;
    std::string name() const override { return "perfect"; }

    /** An oracle has no hardware budget. */
    uint64_t areaBytes() const override { return 0; }

    /**
     * Exact counts for the current (un-ended) interval; used by the
     * error metrics to look up the true frequency of any tuple the
     * hardware reported. Cleared by endInterval().
     */
    const std::unordered_map<Tuple, uint64_t, TupleHash> &
    counts() const
    {
        return table;
    }

    /** Distinct tuples seen so far this interval. */
    uint64_t distinctTuples() const { return table.size(); }

    /**
     * Close the interval by moving its exact counts out instead of
     * producing a snapshot: the profiler is left in the same
     * fresh-interval state endInterval() leaves, and the caller owns
     * the truth table outright.
     */
    std::unordered_map<Tuple, uint64_t, TupleHash>
    takeCounts()
    {
        std::unordered_map<Tuple, uint64_t, TupleHash> out;
        out.swap(table);
        return out;
    }

    uint64_t thresholdCount() const { return threshold; }

  private:
    std::unordered_map<Tuple, uint64_t, TupleHash> table;
    uint64_t threshold;
};

} // namespace mhp

#endif // MHP_CORE_PERFECT_PROFILER_H
