#include "core/candidate_variation.h"

#include <cstdint>
#include <utility>

namespace mhp {

std::optional<double>
CandidateVariation::next(const IntervalSnapshot &snapshot)
{
    std::unordered_set<Tuple, TupleHash> cur;
    cur.reserve(snapshot.size() * 2);
    for (const auto &cand : snapshot)
        cur.insert(cand.tuple);

    std::optional<double> variation;
    if (havePrev) {
        variation = 0.0;
        if (!(prev.empty() && cur.empty())) {
            uint64_t inter = 0;
            for (const auto &t : cur)
                inter += prev.count(t);
            const uint64_t uni = prev.size() + cur.size() - inter;
            variation = 100.0 * (1.0 - static_cast<double>(inter) /
                                           static_cast<double>(uni));
        }
    }
    prev = std::move(cur);
    havePrev = true;
    return variation;
}

} // namespace mhp
