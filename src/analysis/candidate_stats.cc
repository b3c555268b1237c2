#include "analysis/candidate_stats.h"

#include <algorithm>

#include "core/candidate_variation.h"
#include "core/perfect_profiler.h"
#include "support/panic.h"

namespace mhp {

double
CandidateAnalysis::variationQuantile(double q) const
{
    if (variations.empty())
        return 0.0;
    std::vector<double> sorted = variations;
    std::sort(sorted.begin(), sorted.end());
    if (q <= 0.0)
        return sorted.front();
    if (q >= 1.0)
        return sorted.back();
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= sorted.size())
        return sorted.back();
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

CandidateAnalysis
analyzeCandidates(EventSource &source, uint64_t intervalLength,
                  uint64_t thresholdCount, uint64_t numIntervals)
{
    MHP_REQUIRE(intervalLength > 0, "intervalLength must be positive");

    CandidateAnalysis out;
    PerfectProfiler perfect(thresholdCount, intervalLength);
    CandidateVariation variation;

    for (uint64_t interval = 0; interval < numIntervals; ++interval) {
        uint64_t consumed = 0;
        while (consumed < intervalLength && !source.done()) {
            perfect.onEvent(source.next());
            ++consumed;
        }
        if (consumed < intervalLength)
            break; // discard partial interval

        out.distinctPerInterval.add(
            static_cast<double>(perfect.distinctTuples()));
        const IntervalSnapshot snap = perfect.endInterval();
        out.candidatesPerInterval.add(static_cast<double>(snap.size()));

        if (const std::optional<double> v = variation.next(snap))
            out.variations.push_back(*v);
        ++out.intervalsCompleted;
    }
    return out;
}

} // namespace mhp
