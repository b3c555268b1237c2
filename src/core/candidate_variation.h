/**
 * @file
 * Candidate-set variation between consecutive intervals (paper Section
 * 5.6.1, Figure 6): the Jaccard distance between one interval's
 * candidate tuples and the next interval's, in percent (0% = identical
 * sets, 100% = disjoint sets).
 *
 * The Fig. 6 characterization (analysis/candidate_stats), the adaptive
 * interval controller (core/adaptive_interval) and
 * examples/adaptive_interval all measure variation through this one
 * tracker.
 */

#ifndef MHP_CORE_CANDIDATE_VARIATION_H
#define MHP_CORE_CANDIDATE_VARIATION_H

#include <optional>
#include <unordered_set>

#include "core/profiler.h"
#include "trace/tuple.h"

namespace mhp {

/** Tracks the variation of a run's candidate sets, interval by interval. */
class CandidateVariation
{
  public:
    /**
     * Record the snapshot that closed an interval.
     * @return The variation (%) from the previous interval's
     *         candidates (two empty sets are 0%); nullopt for the first
     *         interval since construction or restart().
     */
    std::optional<double> next(const IntervalSnapshot &snapshot);

    /** Make the next interval a fresh baseline (compared to nothing). */
    void restart() { havePrev = false; }

  private:
    std::unordered_set<Tuple, TupleHash> prev;
    bool havePrev = false;
};

} // namespace mhp

#endif // MHP_CORE_CANDIDATE_VARIATION_H
