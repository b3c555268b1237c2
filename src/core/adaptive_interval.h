/**
 * @file
 * Adaptive interval-length selection — the paper's Section 5.6.1
 * future-work idea made concrete: "different interval lengths suit
 * different programs ... one can potentially adaptively pick the
 * appropriate interval length for a given program."
 *
 * Policy: track the candidate-set variation (Jaccard distance) between
 * consecutive intervals. Sustained low variation means the profile is
 * stable at this timescale, so a longer interval captures the same
 * information with less churn — double it. Sustained high variation
 * means the interval spans multiple behaviours — halve it. Lengths are
 * clamped to a configured range and changes require the condition to
 * hold for `holdIntervals` consecutive intervals (hysteresis).
 */

#ifndef MHP_CORE_ADAPTIVE_INTERVAL_H
#define MHP_CORE_ADAPTIVE_INTERVAL_H

#include <cstdint>

#include "core/candidate_variation.h"
#include "core/profiler.h"

namespace mhp {

/** Policy knobs of the adaptive controller. */
struct AdaptiveIntervalConfig
{
    uint64_t minLength = 10'000;
    uint64_t maxLength = 1'000'000;

    /** Variation (%) below which the interval is a growth candidate. */
    double growBelowPercent = 15.0;

    /** Variation (%) above which the interval is a shrink candidate. */
    double shrinkAbovePercent = 60.0;

    /** Consecutive qualifying intervals required before changing. */
    unsigned holdIntervals = 2;
};

/** Online interval-length controller fed by interval snapshots. */
class AdaptiveIntervalController
{
  public:
    /**
     * @param config Policy knobs.
     * @param initialLength Starting interval length (clamped to the
     *        configured range).
     */
    AdaptiveIntervalController(const AdaptiveIntervalConfig &config,
                               uint64_t initialLength);

    /** The interval length the next interval should use. */
    uint64_t currentLength() const { return length; }

    /**
     * Report the snapshot that closed an interval.
     * @return The (possibly updated) length for the next interval.
     *         After a change, the variation baseline resets (the next
     *         interval is not compared against a different-length
     *         predecessor).
     */
    uint64_t onIntervalEnd(const IntervalSnapshot &snapshot);

    /** Variation (%) between the last two same-length intervals. */
    double lastVariation() const { return variation; }

    /** Number of length changes so far. */
    uint64_t changes() const { return changeCount; }

  private:
    AdaptiveIntervalConfig config;
    uint64_t length;
    CandidateVariation tracker;
    double variation = 0.0;
    unsigned growStreak = 0;
    unsigned shrinkStreak = 0;
    uint64_t changeCount = 0;
};

} // namespace mhp

#endif // MHP_CORE_ADAPTIVE_INTERVAL_H
