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
 * Two runners, one interval contract: runIntervalsStream() pulls
 * contiguous blocks from a StreamCursor, clips them to interval
 * boundaries, feeds every profiler through onEvents() in O(chunk)
 * memory, and scores each interval inline as it closes;
 * runIntervalsSpan() runs an in-memory span, scoring intervals on
 * parallel workers while the profilers ingest. An EventSource runs through runIntervalsStream()
 * over an EventSourceCursor. Both produce bit-identical scores and
 * snapshots (asserted by tests). See docs/STREAMING.md.
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
 * scored inline against a perfect profile of the same events. Peak
 * memory is O(batchSize) plus whatever the cursor itself holds — a
 * zero-copy cursor (TupleSpanSource, TraceMapSource) adds nothing; an
 * EventSourceCursor stages up to its capacity and pulls only what
 * each take() asks for, so the source is left exactly after the last
 * consumed event.
 *
 * A trailing partial interval (stream runs dry before numIntervals *
 * intervalLength events) is consumed but discarded.
 */
RunOutput runIntervalsStream(
    StreamCursor &stream,
    const std::vector<HardwareProfiler *> &profilers,
    uint64_t intervalLength, uint64_t thresholdCount,
    uint64_t numIntervals, const StreamRunOptions &options = {});

/** Knobs of the in-memory parallel runner. */
struct BatchedRunOptions
{
    /** Events per onEvents() block. */
    uint64_t batchSize = 4096;

    /**
     * Worker threads shared by ingest (one per profiler) and scoring
     * (across intervals); 0 = min(hardware concurrency, work),
     * overridable via MHP_THREADS. The output is bit-identical for
     * every thread count.
     */
    unsigned threads = 0;

    /** Keep every interval snapshot in RunOutput::snapshots. */
    bool keepSnapshots = false;
};

/**
 * In-memory parallel variant of runIntervalsStream(): identical
 * scores. Ingest runs each profiler's full timeline on its own worker
 * (profilers share no state; each consumes the same read-only span)
 * and publishes each interval's snapshot as it closes. The other
 * workers meanwhile claim intervals one at a time, build each one's
 * perfect profile in one reused oracle table, and score it against
 * every profiler once all of them have published it. All results land
 * in slots indexed by (profiler, interval), so the merge is
 * deterministic and bit-identical to the serial run regardless of
 * scheduling.
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
