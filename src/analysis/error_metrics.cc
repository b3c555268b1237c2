#include "analysis/error_metrics.h"

#include "support/panic.h"

namespace mhp {

ErrorCategory
classifyTuple(uint64_t perfectFreq, uint64_t hardwareFreq,
              uint64_t thresholdCount)
{
    const bool in_perfect = perfectFreq >= thresholdCount;
    const bool in_hardware = hardwareFreq >= thresholdCount;
    if (in_perfect && in_hardware) {
        return hardwareFreq >= perfectFreq ? ErrorCategory::NeutralPositive
                                           : ErrorCategory::NeutralNegative;
    }
    if (!in_perfect && in_hardware)
        return ErrorCategory::FalsePositive;
    if (in_perfect && !in_hardware)
        return ErrorCategory::FalseNegative;
    return ErrorCategory::DontCare;
}

const char *
errorCategoryName(ErrorCategory c)
{
    switch (c) {
      case ErrorCategory::NeutralPositive:
        return "neutral-positive";
      case ErrorCategory::NeutralNegative:
        return "neutral-negative";
      case ErrorCategory::FalsePositive:
        return "false-positive";
      case ErrorCategory::FalseNegative:
        return "false-negative";
      case ErrorCategory::DontCare:
        return "dont-care";
    }
    return "?";
}

ErrorBreakdown &
ErrorBreakdown::operator+=(const ErrorBreakdown &o)
{
    falsePositive += o.falsePositive;
    falseNegative += o.falseNegative;
    neutralPositive += o.neutralPositive;
    neutralNegative += o.neutralNegative;
    return *this;
}

ErrorBreakdown &
ErrorBreakdown::operator/=(double d)
{
    MHP_ASSERT(d != 0.0, "division by zero");
    falsePositive /= d;
    falseNegative /= d;
    neutralPositive /= d;
    neutralNegative /= d;
    return *this;
}

namespace {

/**
 * The scoring core. perfectCandidates holds every tuple whose exact
 * count reaches thresholdCount, with that count, in any order;
 * perfectCountOf(t) is the exact count of any tuple (0 if it did not
 * occur) and is consulted for the hardware candidates.
 */
template <typename CountOf>
IntervalScore
scoreCore(const IntervalSnapshot &perfectCandidates,
          const CountOf &perfectCountOf, const IntervalSnapshot &hardware,
          uint64_t thresholdCount)
{
    IntervalScore score;

    // Index the hardware snapshot for lookups.
    std::unordered_map<Tuple, uint64_t, TupleHash> hw;
    hw.reserve(hardware.size() * 2);
    for (const auto &cand : hardware)
        hw.emplace(cand.tuple, cand.count);
    const auto absDiff = [](uint64_t a, uint64_t b) {
        return a > b ? a - b : b - a;
    };

    uint64_t num_fp = 0, num_fn = 0, num_np = 0, num_nn = 0;
    uint64_t denom = 0;

    // Pass 1: every perfect candidate (covers FN, NP, NN).
    for (const auto &[tuple, fp] : perfectCandidates) {
        MHP_ASSERT(fp >= thresholdCount,
                   "perfect candidate below the threshold");
        ++score.perfectCandidates;
        denom += fp;
        const auto it = hw.find(tuple);
        const uint64_t fh = it == hw.end() ? 0 : it->second;
        switch (classifyTuple(fp, fh, thresholdCount)) {
          case ErrorCategory::FalseNegative:
            num_fn += absDiff(fp, fh);
            ++score.counts.falseNegative;
            break;
          case ErrorCategory::NeutralPositive:
            num_np += absDiff(fp, fh);
            ++score.counts.neutralPositive;
            break;
          case ErrorCategory::NeutralNegative:
            num_nn += absDiff(fp, fh);
            ++score.counts.neutralNegative;
            break;
          default:
            MHP_PANIC("perfect candidate classified as FP/DontCare");
        }
    }

    // Pass 2: hardware candidates that are not perfect candidates (FP).
    for (const auto &cand : hardware) {
        ++score.hardwareCandidates;
        const uint64_t fp = perfectCountOf(cand.tuple);
        if (fp >= thresholdCount)
            continue; // already handled in pass 1
        denom += fp;
        num_fp += absDiff(cand.count, fp);
        ++score.counts.falsePositive;
    }

    if (denom > 0) {
        const auto share = [&](uint64_t num) {
            return static_cast<double>(num) / static_cast<double>(denom);
        };
        score.breakdown.falsePositive = share(num_fp);
        score.breakdown.falseNegative = share(num_fn);
        score.breakdown.neutralPositive = share(num_np);
        score.breakdown.neutralNegative = share(num_nn);
    } else if (score.hardwareCandidates > 0) {
        // No true candidates at all but the hardware reported some:
        // pure false-positive noise; call it 100% FP error.
        score.breakdown.falsePositive = 1.0;
    }
    return score;
}

} // namespace

IntervalScore
scoreInterval(const PerfectProfiler &truth, const IntervalSnapshot &hardware)
{
    return scoreCore(
        truth.candidates(),
        [&truth](const Tuple &t) { return truth.countOf(t); }, hardware,
        truth.thresholdCount());
}

IntervalScore
scoreInterval(
    const std::unordered_map<Tuple, uint64_t, TupleHash> &perfectCounts,
    const IntervalSnapshot &hardware, uint64_t thresholdCount)
{
    IntervalSnapshot candidates;
    for (const auto &[tuple, count] : perfectCounts) {
        if (count >= thresholdCount)
            candidates.push_back({tuple, count});
    }
    return scoreCore(
        candidates,
        [&perfectCounts](const Tuple &t) -> uint64_t {
            const auto it = perfectCounts.find(t);
            return it == perfectCounts.end() ? 0 : it->second;
        },
        hardware, thresholdCount);
}

} // namespace mhp
