#include "analysis/interval_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

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
    PerfectProfiler perfect(thresholdCount, intervalLength);

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

        out.stream.distinctTuples.push_back(perfect.distinctTuples());
        for (size_t i = 0; i < profilers.size(); ++i) {
            IntervalSnapshot snap = profilers[i]->endInterval();
            out.results[i].intervals.push_back(scoreInterval(perfect, snap));
            if (options.keepSnapshots)
                out.snapshots[i].push_back(std::move(snap));
        }
        perfect.reset();
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

    // One task graph over a fixed pool. Tasks [0, P) ingest one
    // profiler each, walking its whole timeline in batchSize blocks
    // clipped to interval boundaries and publishing every interval's
    // snapshot as it closes. Tasks [P, P + workers) score: each claims
    // intervals one at a time, builds the interval's truth in its one
    // reused oracle table while the profilers are still ingesting, and
    // scores the interval once every profiler has published it.
    // parallelFor claims tasks in index order, so every ingest task is
    // running (or done) before a scoring task can wait on it.
    const size_t numProfilers = profilers.size();
    const unsigned workers =
        parallelWorkers(numProfilers + intervals, options.threads);
    std::mutex publishMutex;
    std::condition_variable publishedCv;
    std::vector<uint64_t> published(numProfilers, 0); // intervals closed
    std::atomic<uint64_t> nextInterval{0};
    parallelFor(
        numProfilers + workers,
        [&](size_t task) {
            if (task < numProfilers) {
                HardwareProfiler &profiler = *profilers[task];
                for (uint64_t k = 0; k < intervals; ++k) {
                    const Tuple *events =
                        stream.data() + k * intervalLength;
                    for (uint64_t at = 0; at < intervalLength;
                         at += options.batchSize) {
                        profiler.onEvents(
                            events + at, std::min(options.batchSize,
                                                  intervalLength - at));
                    }
                    snapshots[task][k] = profiler.endInterval();
                    {
                        const std::lock_guard<std::mutex> lock(
                            publishMutex);
                        published[task] = k + 1;
                    }
                    publishedCv.notify_all();
                }
                return;
            }
            uint64_t k = nextInterval.fetch_add(1);
            if (k >= intervals)
                return;
            PerfectProfiler perfect(thresholdCount, intervalLength);
            for (; k < intervals; k = nextInterval.fetch_add(1)) {
                perfect.onEvents(stream.data() + k * intervalLength,
                                 intervalLength);
                out.stream.distinctTuples[k] = perfect.distinctTuples();
                {
                    std::unique_lock<std::mutex> lock(publishMutex);
                    publishedCv.wait(lock, [&] {
                        return std::all_of(
                            published.begin(), published.end(),
                            [k](uint64_t closed) { return closed > k; });
                    });
                }
                for (size_t p = 0; p < numProfilers; ++p) {
                    out.results[p].intervals[k] =
                        scoreInterval(perfect, snapshots[p][k]);
                }
                perfect.reset();
            }
        },
        workers, /*grain=*/1);

    if (options.keepSnapshots)
        out.snapshots = std::move(snapshots);
    return out;
}

} // namespace mhp
