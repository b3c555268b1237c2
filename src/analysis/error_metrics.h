/**
 * @file
 * The paper's error metric (Section 5.5, Figure 3).
 *
 * A hardware profile for one interval is compared against the perfect
 * profile. Every tuple that is a candidate in either profile falls
 * into one of four categories:
 *
 *   False Positive   fp <  T, fh >= T   (over-aggressive optimization)
 *   False Negative   fp >= T, fh <  T   (missed opportunity)
 *   Neutral Positive fh >  fp >= T      (over-counted true candidate)
 *   Neutral Negative fp >  fh >= T      (under-counted true candidate)
 *
 * where fp/fh are the perfect/hardware frequencies and T the candidate
 * threshold. The interval error is the weighted formula (1):
 *
 *   E = sum_i |fp_i - fh_i| / sum_i fp_i
 *
 * over all candidates i, and the net error is the simple average of E
 * over all intervals. The per-category split attributes each
 * candidate's |fp - fh| to its category, giving the stacked bars of
 * Figures 7 and 10-12.
 *
 * Scoring reads the perfect profile through two things only: its
 * candidate list (every tuple with fp >= T) and an exact count lookup
 * for the hardware's candidates. A PerfectProfiler supplies both
 * while the interval is open; the interval runners score that way.
 */

#ifndef MHP_ANALYSIS_ERROR_METRICS_H
#define MHP_ANALYSIS_ERROR_METRICS_H

#include <cstdint>
#include <unordered_map>

#include "core/perfect_profiler.h"
#include "core/profiler.h"
#include "trace/tuple.h"

namespace mhp {

/** Classification of one candidate tuple (Figure 3). */
enum class ErrorCategory
{
    NeutralPositive,
    NeutralNegative,
    FalsePositive,
    FalseNegative,
    DontCare, ///< below threshold in both profiles
};

/** Classify a tuple from its two frequencies and the threshold. */
ErrorCategory classifyTuple(uint64_t perfectFreq, uint64_t hardwareFreq,
                            uint64_t thresholdCount);

/** Printable category name. */
const char *errorCategoryName(ErrorCategory c);

/**
 * An interval's error rate split by category; each component is the
 * category's share of formula (1), as a fraction (0.01 == 1%).
 */
struct ErrorBreakdown
{
    double falsePositive = 0.0;
    double falseNegative = 0.0;
    double neutralPositive = 0.0;
    double neutralNegative = 0.0;

    double
    total() const
    {
        return falsePositive + falseNegative + neutralPositive +
               neutralNegative;
    }

    ErrorBreakdown &operator+=(const ErrorBreakdown &o);
    ErrorBreakdown &operator/=(double d);

    friend bool operator==(const ErrorBreakdown &,
                           const ErrorBreakdown &) = default;
};

/** Category occurrence counts for one interval (diagnostics). */
struct CategoryCounts
{
    uint64_t falsePositive = 0;
    uint64_t falseNegative = 0;
    uint64_t neutralPositive = 0;
    uint64_t neutralNegative = 0;

    friend bool operator==(const CategoryCounts &,
                           const CategoryCounts &) = default;
};

/** Result of scoring one interval. */
struct IntervalScore
{
    ErrorBreakdown breakdown;
    CategoryCounts counts;
    uint64_t perfectCandidates = 0;
    uint64_t hardwareCandidates = 0;

    friend bool operator==(const IntervalScore &,
                           const IntervalScore &) = default;
};

/**
 * Score one interval of a hardware profiler against an oracle that has
 * ingested the interval, before its endInterval() or reset(): its
 * candidate list and countOf().
 *
 * The four category numerators and the denominator are uint64_t sums
 * divided once at the end, so the score does not depend on the order
 * of either list.
 */
IntervalScore scoreInterval(const PerfectProfiler &truth,
                            const IntervalSnapshot &hardware);

/**
 * Ledger-only adapter over the same scoring core, for exact counts
 * taken as a map (PerfectProfiler::takeCounts()); kept until the
 * ledger drivers score through a PerfectProfiler.
 */
IntervalScore scoreInterval(
    const std::unordered_map<Tuple, uint64_t, TupleHash> &perfectCounts,
    const IntervalSnapshot &hardware, uint64_t thresholdCount);

} // namespace mhp

#endif // MHP_ANALYSIS_ERROR_METRICS_H
