#include "fixtures/map_oracle.h"

#include "support/panic.h"

namespace mhp {

IntervalSnapshot
MapOracle::endInterval()
{
    IntervalSnapshot out;
    for (const auto &[tuple, count] : table) {
        if (count >= threshold)
            out.push_back({tuple, count});
    }
    canonicalize(out);
    table.clear();
    return out;
}

IntervalScore
referenceScoreInterval(const MapOracle::Counts &perfectCounts,
                       const IntervalSnapshot &hardware,
                       uint64_t thresholdCount)
{
    IntervalScore score;

    std::unordered_map<Tuple, uint64_t, TupleHash> hw;
    hw.reserve(hardware.size() * 2);
    for (const auto &cand : hardware)
        hw.emplace(cand.tuple, cand.count);

    double num_fp = 0.0, num_fn = 0.0, num_np = 0.0, num_nn = 0.0;
    double denom = 0.0;

    for (const auto &[tuple, fp] : perfectCounts) {
        if (fp < thresholdCount)
            continue;
        ++score.perfectCandidates;
        denom += static_cast<double>(fp);
        const auto it = hw.find(tuple);
        const uint64_t fh = it == hw.end() ? 0 : it->second;
        const double diff = fp > fh ? static_cast<double>(fp - fh)
                                    : static_cast<double>(fh - fp);
        switch (classifyTuple(fp, fh, thresholdCount)) {
          case ErrorCategory::FalseNegative:
            num_fn += diff;
            ++score.counts.falseNegative;
            break;
          case ErrorCategory::NeutralPositive:
            num_np += diff;
            ++score.counts.neutralPositive;
            break;
          case ErrorCategory::NeutralNegative:
            num_nn += diff;
            ++score.counts.neutralNegative;
            break;
          default:
            MHP_PANIC("perfect candidate classified as FP/DontCare");
        }
    }

    for (const auto &cand : hardware) {
        ++score.hardwareCandidates;
        const auto it = perfectCounts.find(cand.tuple);
        const uint64_t fp = it == perfectCounts.end() ? 0 : it->second;
        if (fp >= thresholdCount)
            continue;
        denom += static_cast<double>(fp);
        num_fp += cand.count > fp ? static_cast<double>(cand.count - fp)
                                  : static_cast<double>(fp - cand.count);
        ++score.counts.falsePositive;
    }

    if (denom > 0.0) {
        score.breakdown.falsePositive = num_fp / denom;
        score.breakdown.falseNegative = num_fn / denom;
        score.breakdown.neutralPositive = num_np / denom;
        score.breakdown.neutralNegative = num_nn / denom;
    } else if (score.hardwareCandidates > 0) {
        score.breakdown.falsePositive = 1.0;
    }
    return score;
}

} // namespace mhp
