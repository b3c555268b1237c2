/**
 * @file
 * Drives event streams through hardware profilers interval by interval
 * and scores every interval against the perfect profiler.
 *
 * Several profiler configurations can be evaluated simultaneously on
 * the *same* stream (the stream is generated once and fanned out),
 * which is how the benches sweep Figure 7/10/11/12 design spaces
 * efficiently and with identical inputs per configuration.
 *
 * Three runners, one engine: runIntervalsStream() pulls contiguous
 * blocks from a StreamCursor, clips them to interval boundaries, feeds
 * every profiler through onEvents() in O(chunk) memory, and scores each
 * interval inline as it closes. runIntervals() adapts an EventSource
 * onto it; runIntervalsSpan() runs an in-memory span with parallel
 * ingest and scoring phases. Every path produces bit-identical scores
 * and snapshots (asserted by tests). See docs/STREAMING.md.
 */

#ifndef MHP_ANALYSIS_INTERVAL_RUNNER_H
#define MHP_ANALYSIS_INTERVAL_RUNNER_H

#include <string>
#include <vector>

#include "analysis/error_metrics.h"
#include "core/profiler.h"
#include "support/cancel.h"
#include "trace/source.h"
#include "trace/tuple_span.h"

namespace mhp {

/** Why a streaming run stopped before completing every interval. */
enum class RunStopReason
{
    None,             ///< ran to numIntervals (or the stream's end)
    Cancelled,        ///< the CancelToken tripped
    DeadlineExceeded, ///< the wall-clock budget ran out
};

/** The scored history of one profiler over a whole run. */
struct RunResult
{
    std::string profilerName;

    /** One score per completed interval, in execution order. */
    std::vector<IntervalScore> intervals;

    /** Simple average of interval errors (the paper's net error). */
    ErrorBreakdown averageError() const;

    /** Average total error as a percentage. */
    double averageErrorPercent() const;

    /** Mean candidates per interval as seen by this profiler. */
    double meanHardwareCandidates() const;

    /** Mean candidates per interval in the perfect profile. */
    double meanPerfectCandidates() const;

    friend bool operator==(const RunResult &, const RunResult &) =
        default;
};

/** Per-interval stream statistics shared by all profilers in a run. */
struct StreamStats
{
    /** Distinct tuples in each interval. */
    std::vector<uint64_t> distinctTuples;

    double meanDistinctTuples() const;

    friend bool operator==(const StreamStats &, const StreamStats &) =
        default;
};

/** Everything a run produced. */
struct RunOutput
{
    std::vector<RunResult> results; ///< one per profiler, input order
    StreamStats stream;
    uint64_t eventsConsumed = 0;
    uint64_t intervalsCompleted = 0;

    /**
     * Why the run stopped early, if it did. Cancellation and deadline
     * are honored at interval boundaries only, so completed intervals
     * are always intact and scored.
     */
    RunStopReason stopped = RunStopReason::None;

    /**
     * Per-profiler, per-interval snapshots; populated only when the
     * run's keepSnapshots option is set (StreamRunOptions or
     * BatchedRunOptions) — scored runs otherwise discard them to
     * bound memory.
     */
    std::vector<std::vector<IntervalSnapshot>> snapshots;
};

/** Knobs of the chunk-pull streaming core. */
struct StreamRunOptions
{
    /** Chunk size requested from the cursor per onEvents() block. */
    uint64_t batchSize = 4096;

    /** Keep every interval snapshot in RunOutput::snapshots. */
    bool keepSnapshots = false;

    /**
     * Build the perfect profile and score every interval. Disable to
     * run ingest only (snapshots, event counts) — the span runner's
     * parallel scoring phase rebuilds truth separately.
     */
    bool score = true;

    /**
     * Optional cooperative stop: checked before every interval (not
     * owned). When it trips, the run returns what it completed with
     * RunOutput::stopped == Cancelled.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Wall-clock budget in milliseconds from entry, checked at the
     * same interval boundaries; 0 = none. An expired budget returns
     * the completed prefix with stopped == DeadlineExceeded.
     */
    uint64_t deadlineMs = 0;
};

/**
 * The chunk-pull streaming engine. Pulls blocks of at most
 * options.batchSize events from the cursor, never crossing an
 * interval boundary, and feeds each block to every profiler via
 * onEvents(); at each interval end the profilers' snapshots are
 * scored inline against a perfect profile of the same events (unless
 * options.score is off). Peak memory is
 * O(batchSize) plus whatever the cursor itself holds — a zero-copy
 * cursor (TupleSpanSource, TraceMapSource) adds nothing.
 *
 * A trailing partial interval (stream runs dry before numIntervals *
 * intervalLength events) is consumed but discarded.
 */
RunOutput runIntervalsStream(
    StreamCursor &stream,
    const std::vector<HardwareProfiler *> &profilers,
    uint64_t intervalLength, uint64_t thresholdCount,
    uint64_t numIntervals, const StreamRunOptions &options = {});

/**
 * Run an EventSource through every profiler for a number of intervals:
 * runIntervalsStream() over an EventSourceCursor that stages events
 * in blocks of batchSize, so each profiler pays one virtual dispatch
 * per block instead of per event. Memory use is O(batchSize),
 * independent of the stream length. The cursor pulls only what each
 * interval needs, so the source is left exactly after the last
 * consumed event.
 *
 * @param source The event stream (consumed).
 * @param profilers The hardware profilers under test (not owned).
 * @param intervalLength Events per profile interval.
 * @param thresholdCount Candidate threshold in occurrences.
 * @param numIntervals Intervals to execute; a finite source may end
 *        the run early (partial final intervals are discarded).
 * @param batchSize Events per onEvents() block.
 */
RunOutput runIntervals(EventSource &source,
                       const std::vector<HardwareProfiler *> &profilers,
                       uint64_t intervalLength, uint64_t thresholdCount,
                       uint64_t numIntervals, uint64_t batchSize = 4096);

/** Knobs of the in-memory parallel runner. */
struct BatchedRunOptions
{
    /** Events per onEvents() block. */
    uint64_t batchSize = 4096;

    /**
     * Worker threads for the ingest (across profilers) and scoring
     * (across intervals) phases; 0 = min(hardware concurrency, work),
     * overridable via MHP_THREADS. The output is bit-identical for
     * every thread count.
     */
    unsigned threads = 0;

    /** Keep every interval snapshot in RunOutput::snapshots. */
    bool keepSnapshots = false;
};

/**
 * In-memory parallel variant of runIntervalsStream(): identical
 * scores, with two parallel phases. Ingest runs each profiler's full
 * timeline on its own worker (profilers share no state; each consumes
 * the same read-only span). Scoring rebuilds the perfect profile of each
 * interval independently and scores all profilers against it, one
 * interval per worker. All results land in slots indexed by
 * (profiler, interval), so the merge is deterministic and bit-identical
 * to the serial run regardless of scheduling.
 *
 * A trailing partial interval (stream shorter than numIntervals *
 * intervalLength) is discarded, exactly like the streaming runner on
 * a finite source.
 */
RunOutput runIntervalsSpan(
    TupleSpan stream, const std::vector<HardwareProfiler *> &profilers,
    uint64_t intervalLength, uint64_t thresholdCount,
    uint64_t numIntervals, const BatchedRunOptions &options = {});

} // namespace mhp

#endif // MHP_ANALYSIS_INTERVAL_RUNNER_H
