/**
 * @file
 * The parallel sweep engine: shards a (benchmark x configuration x
 * interval-length) design space into independent cells and evaluates
 * them concurrently.
 *
 * Cells of one benchmark, interval length and threshold count form a
 * group: they read the same stream and are scored against the same
 * truth, so runResilient() generates that stream once from the
 * workload seed — or, when the plan carries a mapped trace, replays
 * one immutable TraceMap through one zero-copy cursor — and feeds
 * every member's profiler and one perfect profile from it through the
 * streaming interval pipeline. Each profiler sees exactly the chunks
 * it would see alone, so a grouped cell equals the same cell run on
 * its own (runCellResilient). Groups share no mutable state; results
 * land in slots indexed by cell, which makes the merged output
 * bit-identical for every thread count (asserted by
 * tests/analysis/test_sweep_runner).
 *
 * runResilient() is the one entry point. Failed cells are retried with
 * capped exponential backoff (deterministically jittered from a seed),
 * cells that keep failing are quarantined into a per-cell Status
 * report instead of aborting the sweep, a per-cell wall-clock deadline
 * bounds runaway cells, and a CancelToken stops the sweep at an
 * interval boundary. With a checkpointPath every finished cell is
 * journaled (CRC-protected, fingerprinted against the plan), and a
 * re-run of the same plan recomputes only the missing cells — a killed
 * sweep resumes bit-identical to an uninterrupted one (see
 * docs/FORMATS.md and tests/integration/test_sweep_resume). Whether a
 * cell fails is a pure function of the failpoint spec and seed, never
 * of the thread schedule (see docs/ROBUSTNESS.md).
 */

#ifndef MHP_ANALYSIS_SWEEP_RUNNER_H
#define MHP_ANALYSIS_SWEEP_RUNNER_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/interval_runner.h"
#include "core/config.h"
#include "support/status.h"
#include "trace/trace_map.h"
#include "trace/tuple.h"

namespace mhp {

/** One profiler configuration in a sweep, with a display label. */
struct SweepConfig
{
    std::string label;
    ProfilerConfig config;
};

/** The design space a SweepRunner evaluates. */
struct SweepPlan
{
    /** Suite benchmarks to run (workload model names). */
    std::vector<std::string> benchmarks;

    /**
     * Event class to sweep: selects the calibrated workload model
     * (value, edge, or path) each sweep group generates.
     * Fingerprints are backward compatible: Value and Edge encode the
     * same bytes the old `edges` flag did, so existing checkpoints
     * still resume.
     */
    ProfileKind kind = ProfileKind::Value;

    /** Profiler configurations to evaluate per benchmark. */
    std::vector<SweepConfig> configs;

    /**
     * Interval lengths to sweep; each overrides the config's own
     * intervalLength (the candidate threshold stays the config's
     * fraction, so the threshold count scales with the interval).
     * Empty = one cell per config using its own intervalLength.
     */
    std::vector<uint64_t> intervalLengths;

    /** Profile intervals per cell. */
    uint64_t intervals = 10;

    /**
     * Workload seed: every cell of a benchmark reads the same stream,
     * generated once per sweep group.
     */
    uint64_t workloadSeed = 1;

    /** Events per onEvents() block in the batched ingest. */
    uint64_t batchSize = 4096;

    /**
     * Optional recorded input: when set, every sweep group replays
     * this one immutable mapping through its own zero-copy cursor
     * instead of generating a workload stream — no cell copies the
     * trace, and all of them (parallel or resumed) read the same
     * bytes. The
     * `benchmarks` list then holds a single display name (defaulted
     * to the trace path by SweepRunner); `kind` and `workloadSeed`
     * are ignored. The trace fingerprint joins the plan fingerprint,
     * so a checkpoint cannot be resumed against a different trace.
     */
    std::shared_ptr<const TraceMap> trace;
};

/** The scored result of one sweep cell. */
struct SweepCellResult
{
    size_t benchmarkIndex = 0;
    size_t configIndex = 0;
    size_t intervalLengthIndex = 0;

    std::string benchmark;
    std::string configLabel;
    uint64_t intervalLength = 0;
    uint64_t thresholdCount = 0;

    RunResult run;
    StreamStats stream;
    uint64_t eventsConsumed = 0;
    uint64_t intervalsCompleted = 0;

    friend bool operator==(const SweepCellResult &,
                           const SweepCellResult &) = default;
};

/** A cell that kept failing and was excluded from the sweep output. */
struct QuarantinedCell
{
    uint64_t cellIndex = 0;
    std::string benchmark;
    std::string configLabel;
    uint64_t intervalLength = 0;

    /** Attempts actually made (== maxAttempts unless cancelled). */
    unsigned attempts = 0;

    /** The last failure; never ok(). */
    Status status;

    friend bool operator==(const QuarantinedCell &,
                           const QuarantinedCell &) = default;
};

/** Everything a resilient sweep produced. */
struct SweepReport
{
    /**
     * One slot per cell in benchmark-major order. Quarantined or
     * not-yet-run (cancelled) cells hold default-constructed results;
     * every populated slot is bit-identical to what run() computes.
     */
    std::vector<SweepCellResult> results;

    /** Cells that failed every attempt, sorted by cellIndex. */
    std::vector<QuarantinedCell> quarantined;

    /** True when the CancelToken stopped the sweep early. */
    bool interrupted = false;

    /** Cells with populated result slots (loaded or computed). */
    uint64_t completedCells = 0;
};

/** Knobs of SweepRunner::runResilient(). */
struct SweepResilienceOptions
{
    /** Worker threads; 0 = min(hardware concurrency, cells). */
    unsigned threads = 0;

    /** Attempts per cell before it is quarantined (>= 1). */
    unsigned maxAttempts = 3;

    /**
     * Wall-clock budget per *attempt* in milliseconds, enforced at
     * interval boundaries inside the cell; 0 = none. An attempt that
     * overruns counts as a failure (retried, then quarantined with
     * StatusCode::DeadlineExceeded).
     */
    uint64_t cellDeadlineMs = 0;

    /**
     * Base backoff before retry k is base << k milliseconds, capped
     * at backoffCapMs and scaled by a jitter factor in [0.5, 1.0)
     * drawn deterministically from (backoffSeed, cell, attempt).
     * 0 = retry immediately (the default: tests stay fast).
     */
    uint64_t backoffBaseMs = 0;
    uint64_t backoffCapMs = 1000;
    uint64_t backoffSeed = 0;

    /** Optional cooperative stop, polled at interval boundaries. */
    const CancelToken *cancel = nullptr;

    /**
     * Journal finished cells here and skip cells a previous run
     * already journaled; resuming with a modified plan is an
     * InvalidArgument error, and a record half-written at a crash is
     * discarded and its cell recomputed. The file is left in place
     * (delete it to force a full re-run). Empty = no checkpointing.
     * Quarantined and cancelled cells are never journaled — a rerun
     * retries them.
     */
    std::string checkpointPath;
};

/**
 * Outcome of one cell's full retry loop (runCellResilient): either a
 * populated result, the final failure after every attempt, or a
 * cooperative cancellation.
 */
struct CellOutcome
{
    /** Valid exactly when status.isOk() and !cancelled. */
    SweepCellResult result;

    /** ok() on success; otherwise the last attempt's failure. */
    Status status;

    /** Attempts actually made. */
    unsigned attempts = 0;

    /** True when the CancelToken stopped the loop. */
    bool cancelled = false;
};

/** Shards a SweepPlan over worker threads with deterministic merging. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepPlan plan);

    /** Cells in the plan: benchmarks x configs x interval lengths. */
    size_t cellCount() const;

    /**
     * Evaluate every cell, possibly concurrently, into a report whose
     * results are in benchmark-major (benchmark, config,
     * interval-length) order. Cells that share a stream and a truth
     * run as one group over one generated stream (split into config
     * slices when there are fewer groups than workers); a cell whose
     * first attempt a failpoint fails or slows, and every cell when
     * options.cellDeadlineMs is set, runs alone through
     * runCellResilient(). Every cell gets up to
     * options.maxAttempts attempts (with deterministic capped
     * exponential backoff between them); cells that fail every
     * attempt land in SweepReport::quarantined with their last Status
     * instead of aborting the sweep. A per-attempt deadline and a
     * CancelToken stop work at interval boundaries; an optional
     * checkpoint journal makes the whole thing resumable. Injected
     * failures (see support/failpoint.h, sites "sweep.cell.compute"
     * and "sweep.cell.slow") are keyed by cell index and attempt, so
     * which cells fail — and therefore the surviving results and the
     * quarantine list — is reproducible from the spec + seed at any
     * thread count.
     *
     * The call itself only fails for infrastructure errors (an
     * unreadable or mismatched checkpoint, a journal append failure);
     * cell failures are data in the report.
     */
    StatusOr<SweepReport>
    runResilient(const SweepResilienceOptions &options = {}) const;

    /**
     * The retry loop of one cell, exactly as runResilient() executes
     * it: up to options.maxAttempts attempts with deterministic
     * backoff, per-attempt deadline, cooperative cancellation, and
     * the same failpoint sites keyed by (cell, attempt) — which is
     * what makes a distributed worker's successes, failures, and
     * quarantine statuses bit-identical to the in-process engine's
     * (the distributed executor in sweep_distributed.h is built on
     * this). Checkpointing and thread scheduling are the caller's
     * business.
     */
    CellOutcome runCellResilient(
        uint64_t cell, const SweepResilienceOptions &options) const;

    /** Build the quarantine row for a cell that failed every attempt. */
    QuarantinedCell quarantineFor(uint64_t cell, unsigned attempts,
                                  Status lastError) const;

    const SweepPlan &plan() const { return sweepPlan; }

    /** Stable fingerprint of the plan (checkpoint compatibility). */
    uint64_t planFingerprint() const;

  private:
    /**
     * Evaluate cells that share one benchmark, interval length and
     * threshold count over one stream: one workload (or trace
     * cursor), one perfect profile, one profiler per cell, with
     * results[i] for cells[i]. A single cell is the one-member group.
     * Cancel and deadline are polled at interval boundaries. Returns
     * why the run stopped (None = completed). A stopped run leaves
     * `results` partially filled; callers must discard them.
     */
    RunStopReason computeCells(std::span<const uint64_t> cells,
                               std::span<SweepCellResult> results,
                               const CancelToken *cancel,
                               uint64_t deadlineMs) const;

    SweepPlan sweepPlan;
};

} // namespace mhp

#endif // MHP_ANALYSIS_SWEEP_RUNNER_H
