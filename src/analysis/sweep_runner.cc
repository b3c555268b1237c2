#include "analysis/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "analysis/sweep_journal.h"
#include "core/factory.h"
#include "support/bytes.h"
#include "support/failpoint.h"
#include "support/panic.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "trace/event_class.h"
#include "workload/benchmarks.h"

namespace mhp {

namespace {

/** Milliseconds on the steady clock (watchdog bookkeeping). */
int64_t
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Backoff before retrying `cell` after failed attempt `attempt`:
 * capped exponential, scaled by a jitter factor in [0.5, 1.0) that is
 * a pure function of (seed, cell, attempt) — reruns back off
 * identically, and the schedule never leaks into results.
 */
uint64_t
backoffDelayMs(const SweepResilienceOptions &options, uint64_t cell,
               unsigned attempt)
{
    uint64_t raw = options.backoffBaseMs;
    for (unsigned i = 0; i < attempt && raw < options.backoffCapMs; ++i)
        raw <<= 1;
    raw = std::min(raw, options.backoffCapMs);
    SplitMix64 mix(options.backoffSeed ^
                   cell * 0x9e3779b97f4a7c15ULL ^ (attempt + 1));
    const double unit =
        static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
    return static_cast<uint64_t>(static_cast<double>(raw) *
                                 (0.5 + 0.5 * unit));
}

/** A cell's (benchmark, config, interval-length) indexes. */
struct CellCoordinates
{
    size_t benchmark = 0;
    size_t config = 0;
    size_t intervalLength = 0;
};

/** Cells are numbered benchmark-major, interval length fastest. */
CellCoordinates
coordinatesOf(const SweepPlan &plan, uint64_t cell)
{
    const size_t lengths =
        plan.intervalLengths.empty() ? 1 : plan.intervalLengths.size();
    const size_t rem = cell % (plan.configs.size() * lengths);
    CellCoordinates at;
    at.benchmark = cell / (plan.configs.size() * lengths);
    at.config = rem / lengths;
    at.intervalLength = rem % lengths;
    return at;
}

} // namespace

SweepRunner::SweepRunner(SweepPlan plan) : sweepPlan(std::move(plan))
{
    if (sweepPlan.trace && sweepPlan.benchmarks.empty())
        sweepPlan.benchmarks.push_back(sweepPlan.trace->path());
    MHP_REQUIRE(!sweepPlan.benchmarks.empty(), "sweep needs benchmarks");
    MHP_REQUIRE(!sweepPlan.configs.empty(), "sweep needs configurations");
    MHP_REQUIRE(sweepPlan.intervals > 0, "sweep needs intervals");
    if (sweepPlan.trace) {
        MHP_REQUIRE(sweepPlan.benchmarks.size() == 1,
                    "a mapped-trace sweep has exactly one stream");
    } else {
        for (const auto &name : sweepPlan.benchmarks)
            MHP_REQUIRE(isBenchmarkName(name),
                        "unknown benchmark in sweep");
    }
}

size_t
SweepRunner::cellCount() const
{
    const size_t lengths = sweepPlan.intervalLengths.empty()
                               ? 1
                               : sweepPlan.intervalLengths.size();
    return sweepPlan.benchmarks.size() * sweepPlan.configs.size() *
           lengths;
}

uint64_t
SweepRunner::planFingerprint() const
{
    // Everything that affects any cell's output goes into the
    // fingerprint, so a checkpoint can never be resumed against a
    // plan that would compute different results for the same index.
    ByteBuffer plan;
    for (const auto &name : sweepPlan.benchmarks)
        plan.str(name);
    // Byte-compatible with the old bool-edges encoding: Value = 0,
    // Edge = 1, so pre-existing value/edge checkpoints still resume.
    plan.u8(profileKindToByte(sweepPlan.kind));
    for (const auto &config : sweepPlan.configs) {
        plan.str(config.label);
        const ProfilerConfig &c = config.config;
        plan.u64(c.intervalLength);
        plan.f64(c.candidateThreshold);
        plan.u64(c.totalHashEntries);
        plan.u64(c.numHashTables);
        plan.u64(c.counterBits);
        plan.u8(c.retaining ? 1 : 0);
        plan.u8(c.resetOnPromote ? 1 : 0);
        plan.u8(c.conservativeUpdate ? 1 : 0);
        plan.u8(c.shielding ? 1 : 0);
        plan.u8(c.flushHashTables ? 1 : 0);
        plan.u64(c.accumulatorEntries);
        plan.u64(c.seed);
    }
    for (uint64_t length : sweepPlan.intervalLengths)
        plan.u64(length);
    plan.u64(sweepPlan.intervals);
    plan.u64(sweepPlan.workloadSeed);
    plan.u64(sweepPlan.batchSize);
    // Appended only for trace-backed plans, so workload-plan
    // fingerprints (and their existing checkpoints) are unchanged.
    if (sweepPlan.trace)
        plan.u64(sweepPlan.trace->fingerprint());
    return fnv1a64(plan.data(), plan.size());
}

RunStopReason
SweepRunner::computeCellStream(size_t cell, SweepCellResult &result,
                               const CancelToken *cancel,
                               uint64_t deadlineMs) const
{
    const SweepPlan &plan = sweepPlan;
    const CellCoordinates at = coordinatesOf(plan, cell);
    result.benchmarkIndex = at.benchmark;
    result.configIndex = at.config;
    result.intervalLengthIndex = at.intervalLength;
    result.benchmark = plan.benchmarks[at.benchmark];
    result.configLabel = plan.configs[at.config].label;

    ProfilerConfig config = plan.configs[at.config].config;
    if (!plan.intervalLengths.empty())
        config.intervalLength = plan.intervalLengths[at.intervalLength];
    result.intervalLength = config.intervalLength;
    result.thresholdCount = config.thresholdCount();

    const std::unique_ptr<HardwareProfiler> profiler =
        makeProfiler(config);
    std::unique_ptr<EventSource> workload;
    std::unique_ptr<StreamCursor> cursor;
    if (plan.trace) {
        // Every cell gets its own cursor over the one shared mapping:
        // zero-copy chunks, no per-cell trace materialization.
        cursor = std::make_unique<TraceMapSource>(plan.trace);
    } else {
        switch (plan.kind) {
        case ProfileKind::Edge:
            workload =
                makeEdgeWorkload(result.benchmark, plan.workloadSeed);
            break;
        case ProfileKind::Path:
            workload =
                makePathWorkload(result.benchmark, plan.workloadSeed);
            break;
        default:
            workload =
                makeValueWorkload(result.benchmark, plan.workloadSeed);
            break;
        }
        // Mirror runIntervals() exactly (cursor capacity clipped to
        // one interval) so results stay bit-identical to existing
        // checkpoints.
        cursor = std::make_unique<EventSourceCursor>(
            *workload,
            static_cast<size_t>(
                std::min(plan.batchSize, config.intervalLength)));
    }

    StreamRunOptions options;
    options.batchSize = plan.batchSize;
    options.cancel = cancel;
    options.deadlineMs = deadlineMs;

    RunOutput run = runIntervalsStream(
        *cursor, {profiler.get()}, config.intervalLength,
        config.thresholdCount(), plan.intervals, options);

    result.run = std::move(run.results[0]);
    result.stream = std::move(run.stream);
    result.eventsConsumed = run.eventsConsumed;
    result.intervalsCompleted = run.intervalsCompleted;
    return run.stopped;
}

CellOutcome
SweepRunner::runCellResilient(
    uint64_t cell, const SweepResilienceOptions &options,
    const std::function<void(bool running)> &attemptMark) const
{
    MHP_REQUIRE(options.maxAttempts >= 1,
                "resilient cell needs at least one attempt");
    CellOutcome outcome;
    Status lastError;
    unsigned attempt = 0;
    for (; attempt < options.maxAttempts; ++attempt) {
        if (options.cancel != nullptr && options.cancel->cancelled()) {
            outcome.cancelled = true;
            outcome.attempts = attempt;
            outcome.status = Status::cancelled(
                "cell " + std::to_string(cell) + " cancelled");
            return outcome;
        }
        if (attemptMark)
            attemptMark(true);
        // An injected slowdown spends the attempt's deadline budget,
        // so whether the deadline trips is still a pure function of
        // (spec, seed, cell, attempt) — the sleep models a slow cell,
        // not a slow clock.
        uint64_t deadlineMs = options.cellDeadlineMs;
        bool slowExhausted = false;
        if (const uint64_t delay =
                failpointDelayMs("sweep.cell.slow", cell, attempt)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                deadlineMs > 0 ? std::min(delay, deadlineMs) : delay));
            if (deadlineMs > 0) {
                slowExhausted = delay >= deadlineMs;
                deadlineMs -= std::min(delay, deadlineMs - 1);
            }
        }
        Status st;
        if (slowExhausted) {
            st = Status::deadlineExceeded(
                "cell " + std::to_string(cell) + " exceeded its " +
                std::to_string(options.cellDeadlineMs) +
                " ms deadline");
        } else if (failpointFires("sweep.cell.compute", cell,
                                  attempt)) {
            st = Status::ioError("cell " + std::to_string(cell) +
                                 ": injected failure (failpoint "
                                 "sweep.cell.compute)");
        } else {
            SweepCellResult result;
            const RunStopReason stop = computeCellStream(
                cell, result, options.cancel, deadlineMs);
            if (stop == RunStopReason::Cancelled) {
                if (attemptMark)
                    attemptMark(false);
                outcome.cancelled = true;
                outcome.attempts = attempt;
                outcome.status = Status::cancelled(
                    "cell " + std::to_string(cell) + " cancelled");
                return outcome;
            }
            if (stop == RunStopReason::DeadlineExceeded) {
                st = Status::deadlineExceeded(
                    "cell " + std::to_string(cell) + " exceeded its " +
                    std::to_string(options.cellDeadlineMs) +
                    " ms deadline");
            } else {
                outcome.result = std::move(result);
            }
        }
        if (attemptMark)
            attemptMark(false);

        if (st.isOk()) {
            outcome.status = Status::ok();
            outcome.attempts = attempt + 1;
            return outcome;
        }
        lastError = std::move(st);
        if (attempt + 1 < options.maxAttempts &&
            options.backoffBaseMs > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                backoffDelayMs(options, cell, attempt)));
        }
    }
    outcome.status = std::move(lastError);
    outcome.attempts = attempt;
    return outcome;
}

QuarantinedCell
SweepRunner::quarantineFor(uint64_t cell, unsigned attempts,
                           Status lastError) const
{
    const SweepPlan &plan = sweepPlan;
    const CellCoordinates at = coordinatesOf(plan, cell);
    QuarantinedCell q;
    q.cellIndex = cell;
    q.benchmark = plan.benchmarks[at.benchmark];
    q.configLabel = plan.configs[at.config].label;
    q.intervalLength =
        plan.intervalLengths.empty()
            ? plan.configs[at.config].config.intervalLength
            : plan.intervalLengths[at.intervalLength];
    q.attempts = attempts;
    q.status = std::move(lastError);
    return q;
}

StatusOr<SweepReport>
SweepRunner::runResilient(const SweepResilienceOptions &options) const
{
    MHP_REQUIRE(options.maxAttempts >= 1,
                "resilient sweep needs at least one attempt per cell");
    const size_t cells = cellCount();
    const uint64_t fingerprint = planFingerprint();

    SweepReport report;
    report.results.resize(cells);

    const bool checkpointing = !options.checkpointPath.empty();
    LoadedCheckpoint loaded;
    CheckpointJournal journal;
    if (checkpointing) {
        StatusOr<LoadedCheckpoint> prior = loadSweepCheckpoint(
            options.checkpointPath, fingerprint, cells);
        if (!prior.isOk())
            return prior.status();
        loaded = std::move(*prior);
        if (Status bad = journal.open(options.checkpointPath,
                                      fingerprint, loaded);
            !bad.isOk())
            return bad;
    }

    std::mutex reportMutex; // guards quarantined + journalStatus
    Status journalStatus;
    std::atomic<bool> interrupted{false};
    std::atomic<uint64_t> completed{0};

    // Watchdog: per-cell attempt start times (−1 = not running) that
    // a polling thread compares against the deadline. It only ever
    // *flags* cells — enforcement stays inside the cell at interval
    // boundaries, where it is deterministic.
    const bool watch =
        options.watchdogPollMs > 0 && options.cellDeadlineMs > 0;
    std::vector<std::atomic<int64_t>> attemptStartMs(watch ? cells : 0);
    for (auto &start : attemptStartMs)
        start.store(-1, std::memory_order_relaxed);
    std::set<uint64_t> flagged;
    std::atomic<bool> watchdogStop{false};
    std::thread watchdog;
    if (watch) {
        watchdog = std::thread([&] {
            while (!watchdogStop.load(std::memory_order_relaxed)) {
                const int64_t now = steadyNowMs();
                for (size_t i = 0; i < cells; ++i) {
                    const int64_t start = attemptStartMs[i].load(
                        std::memory_order_relaxed);
                    if (start >= 0 &&
                        now - start > static_cast<int64_t>(
                                          options.cellDeadlineMs)) {
                        std::lock_guard<std::mutex> lock(reportMutex);
                        flagged.insert(i);
                    }
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(options.watchdogPollMs));
            }
        });
    }

    parallelFor(
        cells,
        [&](size_t cell) {
            if (auto it = loaded.completed.find(cell);
                it != loaded.completed.end()) {
                report.results[cell] = it->second;
                completed.fetch_add(1, std::memory_order_relaxed);
                return;
            }

            const std::function<void(bool)> mark =
                watch ? std::function<void(bool)>([&, cell](
                            bool running) {
                      attemptStartMs[cell].store(
                          running ? steadyNowMs() : -1,
                          std::memory_order_relaxed);
                  })
                      : std::function<void(bool)>();
            CellOutcome outcome =
                runCellResilient(cell, options, mark);
            if (outcome.cancelled) {
                interrupted.store(true, std::memory_order_relaxed);
                return;
            }
            if (outcome.status.isOk()) {
                report.results[cell] = std::move(outcome.result);
                completed.fetch_add(1, std::memory_order_relaxed);
                if (checkpointing) {
                    if (Status appended = journal.append(
                            cell, report.results[cell]);
                        !appended.isOk()) {
                        std::lock_guard<std::mutex> lock(reportMutex);
                        if (journalStatus.isOk())
                            journalStatus = std::move(appended);
                    }
                }
                return;
            }

            // Every attempt failed: quarantine the cell instead of
            // sinking the sweep.
            QuarantinedCell q =
                quarantineFor(cell, outcome.attempts,
                              std::move(outcome.status));
            std::lock_guard<std::mutex> lock(reportMutex);
            report.quarantined.push_back(std::move(q));
        },
        options.threads, /*grain=*/1);

    if (watch) {
        watchdogStop.store(true, std::memory_order_relaxed);
        watchdog.join();
        report.deadlineFlagged.assign(flagged.begin(), flagged.end());
    }

    // parallelFor's schedule decided the push order; the content is
    // schedule-independent, so sorting restores determinism.
    std::sort(report.quarantined.begin(), report.quarantined.end(),
              [](const QuarantinedCell &a, const QuarantinedCell &b) {
                  return a.cellIndex < b.cellIndex;
              });
    report.interrupted = interrupted.load();
    report.completedCells = completed.load();

    if (!journalStatus.isOk())
        return journalStatus;
    if (checkpointing) {
        if (Status finished = journal.finish(); !finished.isOk())
            return finished;
    }
    return report;
}

} // namespace mhp
