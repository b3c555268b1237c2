#include "analysis/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
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

/** A cell's profiler configuration, at the cell's interval length. */
ProfilerConfig
configOf(const SweepPlan &plan, const CellCoordinates &at)
{
    ProfilerConfig config = plan.configs[at.config].config;
    if (!plan.intervalLengths.empty())
        config.intervalLength = plan.intervalLengths[at.intervalLength];
    return config;
}

/**
 * True when a failpoint fails or slows the cell's first attempt. Such
 * a cell runs alone through runCellResilient(), so its failures,
 * retries and quarantine are exactly those of a per-cell sweep. The
 * check is pure in (spec, seed, site, cell, attempt): it uses up
 * nothing.
 */
bool
faultedAtFirstAttempt(uint64_t cell)
{
    return failpointFires("sweep.cell.compute", cell, 0) ||
           failpointDelayMs("sweep.cell.slow", cell, 0) > 0;
}

/**
 * One unit of runResilient() work: a single cell through its retry
 * loop, or a group slice — cells of one benchmark, interval length
 * and threshold count, in plan order, fed from one stream.
 */
struct SweepTask
{
    std::vector<uint64_t> cells;
    bool alone = false;
};

/**
 * Cut `members` into `slices` contiguous runs whose sizes differ by
 * at most one (fewer when there are fewer members).
 */
void
appendSlices(std::vector<SweepTask> &tasks,
             const std::vector<uint64_t> &members, size_t slices)
{
    slices = std::min(slices, members.size());
    size_t begin = 0;
    for (size_t s = 0; s < slices; ++s) {
        const size_t size = members.size() / slices +
                            (s < members.size() % slices ? 1 : 0);
        SweepTask task;
        task.cells.assign(members.begin() + begin,
                          members.begin() + begin + size);
        tasks.push_back(std::move(task));
        begin += size;
    }
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
SweepRunner::computeCells(std::span<const uint64_t> cells,
                          std::span<SweepCellResult> results,
                          const CancelToken *cancel,
                          uint64_t deadlineMs) const
{
    const SweepPlan &plan = sweepPlan;
    MHP_REQUIRE(!cells.empty() && cells.size() == results.size(),
                "one result slot per grouped cell");

    std::vector<std::unique_ptr<HardwareProfiler>> profilers;
    std::vector<HardwareProfiler *> members;
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellCoordinates at = coordinatesOf(plan, cells[i]);
        SweepCellResult &result = results[i];
        result.benchmarkIndex = at.benchmark;
        result.configIndex = at.config;
        result.intervalLengthIndex = at.intervalLength;
        result.benchmark = plan.benchmarks[at.benchmark];
        result.configLabel = plan.configs[at.config].label;

        const ProfilerConfig config = configOf(plan, at);
        result.intervalLength = config.intervalLength;
        result.thresholdCount = config.thresholdCount();
        MHP_REQUIRE(result.benchmarkIndex == results[0].benchmarkIndex &&
                        result.intervalLength ==
                            results[0].intervalLength &&
                        result.thresholdCount ==
                            results[0].thresholdCount,
                    "grouped cells share one stream and one truth");
        profilers.push_back(makeProfiler(config));
        members.push_back(profilers.back().get());
    }
    const SweepCellResult &shared = results[0];

    std::unique_ptr<EventSource> workload;
    std::unique_ptr<StreamCursor> cursor;
    if (plan.trace) {
        // Every group gets its own cursor over the one shared mapping:
        // zero-copy chunks, no per-group trace materialization.
        cursor = std::make_unique<TraceMapSource>(plan.trace);
    } else {
        switch (plan.kind) {
        case ProfileKind::Edge:
            workload =
                makeEdgeWorkload(shared.benchmark, plan.workloadSeed);
            break;
        case ProfileKind::Path:
            workload =
                makePathWorkload(shared.benchmark, plan.workloadSeed);
            break;
        default:
            workload =
                makeValueWorkload(shared.benchmark, plan.workloadSeed);
            break;
        }
        // Every take() asks for at most min(batchSize, interval
        // length) events, so this capacity never changes the chunking.
        cursor = std::make_unique<EventSourceCursor>(
            *workload,
            static_cast<size_t>(
                std::min(plan.batchSize, shared.intervalLength)));
    }

    StreamRunOptions options;
    options.batchSize = plan.batchSize;
    options.cancel = cancel;
    options.deadlineMs = deadlineMs;

    // One stream and one perfect profile feed every member: each
    // profiler sees exactly the chunks it would see alone.
    RunOutput run = runIntervalsStream(
        *cursor, members, shared.intervalLength, shared.thresholdCount,
        plan.intervals, options);

    for (size_t i = 0; i < results.size(); ++i) {
        results[i].run = std::move(run.results[i]);
        results[i].stream = run.stream;
        results[i].eventsConsumed = run.eventsConsumed;
        results[i].intervalsCompleted = run.intervalsCompleted;
    }
    return run.stopped;
}

CellOutcome
SweepRunner::runCellResilient(
    uint64_t cell, const SweepResilienceOptions &options) const
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
            const RunStopReason stop =
                computeCells({&cell, 1}, {&result, 1}, options.cancel,
                             deadlineMs);
            if (stop == RunStopReason::Cancelled) {
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
    q.intervalLength = configOf(plan, at).intervalLength;
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

    // Pending cells become tasks. A group is the cells of one
    // benchmark, interval length and threshold count: they read the
    // same stream and share one truth, so one generated stream and
    // one perfect profile feed all of their profilers. Cells with an
    // injected fault on their first attempt, and every cell under a
    // deadline, run alone through the per-cell retry loop.
    std::vector<SweepTask> tasks;
    std::map<std::tuple<size_t, uint64_t, uint64_t>, std::vector<uint64_t>>
        groups;
    uint64_t completedCells = 0;
    size_t pending = 0;
    for (uint64_t cell = 0; cell < cells; ++cell) {
        if (auto it = loaded.completed.find(cell);
            it != loaded.completed.end()) {
            report.results[cell] = it->second;
            ++completedCells;
            continue;
        }
        ++pending;
        if (options.cellDeadlineMs > 0 || faultedAtFirstAttempt(cell)) {
            tasks.push_back({{cell}, /*alone=*/true});
            continue;
        }
        const CellCoordinates at = coordinatesOf(sweepPlan, cell);
        const ProfilerConfig config = configOf(sweepPlan, at);
        groups[{at.benchmark, config.intervalLength,
                config.thresholdCount()}]
            .push_back(cell);
    }
    // With fewer groups than workers, each group is cut into
    // workers / groups contiguous config slices. Every extra slice
    // regenerates the stream and the truth, so group tasks never
    // outnumber the workers.
    const size_t workers = parallelWorkers(pending, options.threads);
    const size_t slices =
        groups.empty() ? 1 : std::max<size_t>(1, workers / groups.size());
    for (const auto &[key, members] : groups)
        appendSlices(tasks, members, slices);
    std::sort(tasks.begin(), tasks.end(),
              [](const SweepTask &a, const SweepTask &b) {
                  return a.cells[0] < b.cells[0];
              });

    std::mutex reportMutex; // guards quarantined + journalStatus
    Status journalStatus;
    std::atomic<bool> interrupted{false};
    std::atomic<uint64_t> completed{completedCells};

    const auto journalCell = [&](uint64_t cell) {
        if (!checkpointing)
            return;
        if (Status appended = journal.append(cell, report.results[cell]);
            !appended.isOk()) {
            std::lock_guard<std::mutex> lock(reportMutex);
            if (journalStatus.isOk())
                journalStatus = std::move(appended);
        }
    };

    parallelFor(
        tasks.size(),
        [&](size_t index) {
            const SweepTask &task = tasks[index];
            if (!task.alone) {
                // No deadline and no injected fault: the group either
                // completes or stops on cancel, which leaves every
                // member unpopulated and unjournaled.
                std::vector<SweepCellResult> results(task.cells.size());
                if (computeCells(task.cells, results, options.cancel,
                                 /*deadlineMs=*/0) ==
                    RunStopReason::Cancelled) {
                    interrupted.store(true, std::memory_order_relaxed);
                    return;
                }
                for (size_t i = 0; i < task.cells.size(); ++i) {
                    const uint64_t cell = task.cells[i];
                    report.results[cell] = std::move(results[i]);
                    completed.fetch_add(1, std::memory_order_relaxed);
                    journalCell(cell);
                }
                return;
            }

            const uint64_t cell = task.cells[0];
            CellOutcome outcome = runCellResilient(cell, options);
            if (outcome.cancelled) {
                interrupted.store(true, std::memory_order_relaxed);
                return;
            }
            if (outcome.status.isOk()) {
                report.results[cell] = std::move(outcome.result);
                completed.fetch_add(1, std::memory_order_relaxed);
                journalCell(cell);
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
