#include "core/adaptive_interval.h"

#include <algorithm>

#include "support/panic.h"

namespace mhp {

AdaptiveIntervalController::AdaptiveIntervalController(
        const AdaptiveIntervalConfig &config_, uint64_t initialLength)
    : config(config_)
{
    MHP_REQUIRE(config.minLength >= 1, "minLength must be positive");
    MHP_REQUIRE(config.minLength <= config.maxLength,
                "empty length range");
    MHP_REQUIRE(config.growBelowPercent <= config.shrinkAbovePercent,
                "grow/shrink thresholds overlap");
    MHP_REQUIRE(config.holdIntervals >= 1, "holdIntervals >= 1");
    length = std::clamp(initialLength, config.minLength,
                        config.maxLength);
}

uint64_t
AdaptiveIntervalController::onIntervalEnd(const IntervalSnapshot &snapshot)
{
    const std::optional<double> measured = tracker.next(snapshot);
    if (!measured)
        return length;
    variation = *measured;

    if (variation < config.growBelowPercent) {
        ++growStreak;
        shrinkStreak = 0;
    } else if (variation > config.shrinkAbovePercent) {
        ++shrinkStreak;
        growStreak = 0;
    } else {
        growStreak = 0;
        shrinkStreak = 0;
    }

    if (growStreak >= config.holdIntervals &&
        length < config.maxLength) {
        length = std::min(length * 2, config.maxLength);
        ++changeCount;
        growStreak = 0;
        tracker.restart(); // don't compare across a length change
    } else if (shrinkStreak >= config.holdIntervals &&
               length > config.minLength) {
        length = std::max(length / 2, config.minLength);
        ++changeCount;
        shrinkStreak = 0;
        tracker.restart();
    }
    return length;
}

} // namespace mhp
