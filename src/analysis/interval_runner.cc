#include "analysis/interval_runner.h"

#include <algorithm>
#include <chrono>

#include "core/perfect_profiler.h"
#include "support/panic.h"
#include "support/parallel.h"

namespace mhp {

ErrorBreakdown
RunResult::averageError() const
{
    ErrorBreakdown avg;
    if (intervals.empty())
        return avg;
    for (const auto &score : intervals)
        avg += score.breakdown;
    avg /= static_cast<double>(intervals.size());
    return avg;
}

double
RunResult::averageErrorPercent() const
{
    return averageError().total() * 100.0;
}

double
RunResult::meanHardwareCandidates() const
{
    if (intervals.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &score : intervals)
        sum += static_cast<double>(score.hardwareCandidates);
    return sum / static_cast<double>(intervals.size());
}

double
RunResult::meanPerfectCandidates() const
{
    if (intervals.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &score : intervals)
        sum += static_cast<double>(score.perfectCandidates);
    return sum / static_cast<double>(intervals.size());
}

double
StreamStats::meanDistinctTuples() const
{
    if (distinctTuples.empty())
        return 0.0;
    double sum = 0.0;
    for (uint64_t d : distinctTuples)
        sum += static_cast<double>(d);
    return sum / static_cast<double>(distinctTuples.size());
}

RunOutput
runIntervalsStream(StreamCursor &stream,
                   const std::vector<HardwareProfiler *> &profilers,
                   uint64_t intervalLength, uint64_t thresholdCount,
                   uint64_t numIntervals,
                   const StreamRunOptions &options)
{
    MHP_REQUIRE(!profilers.empty(), "no profilers to run");
    MHP_REQUIRE(intervalLength > 0, "intervalLength must be positive");
    MHP_REQUIRE(options.batchSize > 0, "batchSize must be positive");

    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();

    RunOutput out;
    out.results.resize(profilers.size());
    if (options.keepSnapshots)
        out.snapshots.resize(profilers.size());
    for (size_t i = 0; i < profilers.size(); ++i) {
        MHP_REQUIRE(profilers[i] != nullptr, "null profiler");
        out.results[i].profilerName = profilers[i]->name();
    }
    PerfectProfiler perfect(thresholdCount);

    for (uint64_t interval = 0; interval < numIntervals; ++interval) {
        // Cooperative stops land only on interval boundaries, so every
        // completed interval is whole and scored; the partial state of
        // an aborted interval is never produced.
        if (options.cancel != nullptr && options.cancel->cancelled()) {
            out.stopped = RunStopReason::Cancelled;
            break;
        }
        if (options.deadlineMs > 0 &&
            Clock::now() - start >=
                std::chrono::milliseconds(options.deadlineMs)) {
            out.stopped = RunStopReason::DeadlineExceeded;
            break;
        }

        // Chunks never cross an interval boundary, so endInterval
        // always lands exactly on intervalLength events.
        uint64_t consumed = 0;
        while (consumed < intervalLength) {
            const uint64_t want = std::min<uint64_t>(
                options.batchSize, intervalLength - consumed);
            const TupleSpan chunk =
                stream.take(static_cast<size_t>(want));
            if (chunk.empty())
                break;
            perfect.onEvents(chunk.data(), chunk.size());
            for (auto *profiler : profilers)
                profiler->onEvents(chunk.data(), chunk.size());
            consumed += chunk.size();
        }
        out.eventsConsumed += consumed;
        if (consumed < intervalLength)
            break; // stream ran dry: discard the partial interval

        const auto truth = perfect.takeCounts();
        out.stream.distinctTuples.push_back(truth.size());
        for (size_t i = 0; i < profilers.size(); ++i) {
            IntervalSnapshot snap = profilers[i]->endInterval();
            out.results[i].intervals.push_back(
                scoreInterval(truth, snap, thresholdCount));
            if (options.keepSnapshots)
                out.snapshots[i].push_back(std::move(snap));
        }
        ++out.intervalsCompleted;
    }
    return out;
}

RunOutput
runIntervalsSpan(TupleSpan stream,
                 const std::vector<HardwareProfiler *> &profilers,
                 uint64_t intervalLength, uint64_t thresholdCount,
                 uint64_t numIntervals, const BatchedRunOptions &options)
{
    MHP_REQUIRE(!profilers.empty(), "no profilers to run");
    MHP_REQUIRE(intervalLength > 0, "intervalLength must be positive");
    MHP_REQUIRE(options.batchSize > 0, "batchSize must be positive");

    const uint64_t intervals = std::min<uint64_t>(
        numIntervals, stream.size() / intervalLength);

    RunOutput out;
    out.results.resize(profilers.size());
    std::vector<std::vector<IntervalSnapshot>> snapshots(
        profilers.size());
    for (size_t i = 0; i < profilers.size(); ++i) {
        MHP_REQUIRE(profilers[i] != nullptr, "null profiler");
        out.results[i].profilerName = profilers[i]->name();
        out.results[i].intervals.resize(intervals);
        snapshots[i].resize(intervals);
    }
    out.stream.distinctTuples.resize(intervals);
    // Mirror runIntervalsStream(): a trailing partial interval is
    // consumed (then discarded), a finished run leaves the tail
    // untouched.
    out.eventsConsumed = std::min<uint64_t>(
        stream.size(), numIntervals * intervalLength);
    out.intervalsCompleted = intervals;
    if (intervals == 0) {
        if (options.keepSnapshots)
            out.snapshots = std::move(snapshots);
        return out;
    }

    // Phase 1 — ingest: each profiler walks its whole timeline on one
    // worker in batchSize blocks clipped to interval boundaries
    // (scoring is deferred to phase 2). Profilers share no mutable
    // state and all of them read the same span.
    parallelFor(
        profilers.size(),
        [&](size_t p) {
            for (uint64_t k = 0; k < intervals; ++k) {
                const Tuple *events = stream.data() + k * intervalLength;
                for (uint64_t at = 0; at < intervalLength;
                     at += options.batchSize) {
                    profilers[p]->onEvents(
                        events + at, std::min(options.batchSize,
                                              intervalLength - at));
                }
                snapshots[p][k] = profilers[p]->endInterval();
            }
        },
        options.threads, /*grain=*/1);

    // Phase 2 — score: each interval's perfect profile depends only on
    // that interval's events, so truth construction and scoring shard
    // cleanly across intervals.
    parallelFor(
        intervals,
        [&](size_t k) {
            PerfectProfiler perfect(thresholdCount);
            const TupleSpan interval =
                stream.subspan(k * intervalLength, intervalLength);
            perfect.onEvents(interval.data(), interval.size());
            out.stream.distinctTuples[k] = perfect.distinctTuples();
            const auto &truth = perfect.counts();
            for (size_t p = 0; p < profilers.size(); ++p) {
                out.results[p].intervals[k] =
                    scoreInterval(truth, snapshots[p][k], thresholdCount);
            }
        },
        options.threads, /*grain=*/1);

    if (options.keepSnapshots)
        out.snapshots = std::move(snapshots);
    return out;
}

} // namespace mhp
