/**
 * @file
 * The sweep pipeline and the sweep_10k workload: the value suite x
 * {BSH, mh2, mh4, mh8} at 10K events / 1% through
 * SweepRunner::runResilient with the load thread count and no
 * checkpoint — the Fig 7/10/12 design-space sweeps.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "analysis/error_metrics.h"
#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "stages.h"
#include "workload/benchmarks.h"

namespace ledger {

namespace {

/** Intervals per sweep cell (10K events each). */
constexpr uint64_t kSweepIntervals = 40;

constexpr int kSetupReps = 5;

/** Run fn(worker, cell) over every cell on `threads` workers. */
template <typename Fn>
void
forEachCell(size_t cells, unsigned threads, Fn fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < threads; ++w) {
        pool.emplace_back([&, w] {
            for (size_t cell = next.fetch_add(1); cell < cells;
                 cell = next.fetch_add(1))
                fn(w, cell);
        });
    }
    for (std::thread &t : pool)
        t.join();
}

Lane *
laneOf(const std::vector<Lane *> &lanes, unsigned worker)
{
    return lanes.empty() ? nullptr : lanes[worker];
}

} // namespace

mhp::SweepPlan
suitePlan(const std::vector<std::string> &benchmarks,
          uint64_t intervalLength, double threshold, uint64_t intervals,
          uint64_t seed)
{
    mhp::SweepPlan plan;
    plan.benchmarks = benchmarks;
    plan.configs.push_back(
        {"BSH", mhp::bestSingleHashConfig(intervalLength, threshold)});
    for (unsigned tables : {2u, 4u, 8u}) {
        mhp::ProfilerConfig c =
            mhp::bestMultiHashConfig(intervalLength, threshold);
        c.numHashTables = tables;
        plan.configs.push_back({std::to_string(tables) + "t", c});
    }
    plan.intervalLengths = {intervalLength};
    plan.intervals = intervals;
    plan.workloadSeed = seed;
    return plan;
}

CellOutput
cellOutputOf(const mhp::SweepCellResult &result)
{
    CellOutput out;
    out.run = result.run;
    out.stream = result.stream;
    out.eventsConsumed = result.eventsConsumed;
    out.intervalsCompleted = result.intervalsCompleted;
    out.ok = true;
    return out;
}

SweepPass
decomposedSweep(const mhp::SweepRunner &runner, unsigned threads,
                const std::vector<Lane *> &lanes)
{
    const mhp::SweepPlan &plan = runner.plan();
    const size_t cells = runner.cellCount();
    const size_t lengths =
        plan.intervalLengths.empty() ? 1 : plan.intervalLengths.size();
    SweepPass pass;
    pass.cells.resize(cells);
    std::vector<uint64_t> ingested(cells), oracleEvents(cells);
    std::vector<double> busy(cells);
    const double start = nowS();

    forEachCell(cells, threads, [&](unsigned worker, size_t cell) {
        Lane *lane = laneOf(lanes, worker);
        const double cellStart = nowS();
        Span cellSpan(lane, "sweep.cell_layers", cell);
        // Cell -> (benchmark, config, length) exactly as SweepRunner
        // numbers them (benchmark-major).
        const size_t b = cell / (plan.configs.size() * lengths);
        const size_t rem = cell % (plan.configs.size() * lengths);
        mhp::ProfilerConfig config = plan.configs[rem / lengths].config;
        if (!plan.intervalLengths.empty())
            config.intervalLength = plan.intervalLengths[rem % lengths];
        const uint64_t length = config.intervalLength;
        const uint64_t threshold = config.thresholdCount();

        std::unique_ptr<mhp::EventSource> source =
            mhp::makeValueWorkload(plan.benchmarks[b], plan.workloadSeed);
        mhp::EventSourceCursor cursor(
            *source,
            static_cast<size_t>(std::min(plan.batchSize, length)));
        std::unique_ptr<mhp::HardwareProfiler> profiler =
            mhp::makeProfiler(config);
        mhp::PerfectProfiler oracle(threshold);
        CellOutput &out = pass.cells[cell];
        out.run.profilerName = profiler->name();
        for (uint64_t k = 0; k < plan.intervals; ++k) {
            uint64_t consumed = 0;
            while (consumed < length) {
                mhp::TupleSpan chunk;
                {
                    Span span(lane, "workload.gen", cell);
                    chunk = cursor.take(static_cast<size_t>(std::min(
                        plan.batchSize, length - consumed)));
                    span.setItems(chunk.size());
                }
                {
                    Span span(lane, "oracle.ingest", cell, chunk.size());
                    oracle.onEvents(chunk.data(), chunk.size());
                }
                {
                    Span span(lane, "core.ingest", cell, chunk.size());
                    profiler->onEvents(chunk.data(), chunk.size());
                }
                consumed += chunk.size();
            }
            ingested[cell] += consumed;
            oracleEvents[cell] += consumed;
            out.eventsConsumed += consumed;
            std::unordered_map<mhp::Tuple, uint64_t, mhp::TupleHash> truth;
            {
                Span span(lane, "oracle.take", cell);
                truth = oracle.takeCounts();
                span.setItems(truth.size());
            }
            mhp::IntervalSnapshot snap;
            {
                Span span(lane, "core.close", cell);
                snap = profiler->endInterval();
                span.setItems(snap.size());
            }
            {
                Span span(lane, "score.interval", cell);
                out.run.intervals.push_back(
                    mhp::scoreInterval(truth, snap, threshold));
            }
            out.stream.distinctTuples.push_back(truth.size());
            ++out.intervalsCompleted;
        }
        out.ok = true;
        busy[cell] = nowS() - cellStart;
    });

    pass.seconds = nowS() - start;
    for (size_t cell = 0; cell < cells; ++cell) {
        pass.events += pass.cells[cell].eventsConsumed;
        pass.intervals += pass.cells[cell].intervalsCompleted;
        pass.ingested += ingested[cell];
        pass.oracleEvents += oracleEvents[cell];
        pass.busySeconds += busy[cell];
    }
    return pass;
}

SweepPass
resilientCells(const mhp::SweepRunner &runner, unsigned threads,
               const std::vector<Lane *> &lanes)
{
    const size_t cells = runner.cellCount();
    SweepPass pass;
    pass.cells.resize(cells);
    std::vector<double> busy(cells);
    const mhp::SweepResilienceOptions options;
    const double start = nowS();
    forEachCell(cells, threads, [&](unsigned worker, size_t cell) {
        const double cellStart = nowS();
        Span span(laneOf(lanes, worker), "sweep.cell", cell);
        mhp::CellOutcome outcome = runner.runCellResilient(cell, options);
        span.setItems(outcome.attempts);
        if (outcome.status.isOk() && !outcome.cancelled)
            pass.cells[cell] = cellOutputOf(outcome.result);
        busy[cell] = nowS() - cellStart;
    });
    pass.seconds = nowS() - start;
    for (size_t cell = 0; cell < cells; ++cell) {
        pass.busySeconds += busy[cell];
        if (!pass.cells[cell].ok) {
            ++pass.quarantined;
            continue;
        }
        pass.events += pass.cells[cell].eventsConsumed;
        pass.intervals += pass.cells[cell].intervalsCompleted;
    }
    return pass;
}

Result
runSweep(const Options &options)
{
    Result result;
    const mhp::SweepPlan plan =
        suitePlan(mhp::benchmarkNames(), 10'000, 0.01, kSweepIntervals,
                  options.seed);

    // Set-up: the runner plus one construction of every benchmark's
    // workload model and every configuration's profiler, so that
    // construction cost moved out of the cells shows here.
    std::vector<double> setup;
    std::unique_ptr<mhp::SweepRunner> runner;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = nowS();
        runner = std::make_unique<mhp::SweepRunner>(plan);
        for (const std::string &name : plan.benchmarks)
            (void)mhp::makeValueWorkload(name, plan.workloadSeed)->next();
        for (const mhp::SweepConfig &config : plan.configs)
            (void)mhp::makeProfiler(config.config);
        setup.push_back(nowS() - t0);
    }

    mhp::SweepResilienceOptions sweepOptions;
    sweepOptions.threads = options.threads;
    const size_t cells = runner->cellCount();
    // One untimed sweep first: thread stacks, allocator arenas and
    // page faults of a cold process are not what a sweep costs.
    (void)runner->runResilient(sweepOptions);
    std::vector<double> rates, ms;
    std::vector<CellOutput> first;
    uint64_t wrongCells = 0, quarantined = 0, identityBreaks = 0;
    const double start = nowS();
    while ((nowS() - start < options.seconds || ms.size() < 3) &&
           ms.size() < 1000) {
        const double t0 = nowS();
        mhp::StatusOr<mhp::SweepReport> report =
            runner->runResilient(sweepOptions);
        const double wall = nowS() - t0;
        result.attempted += cells;
        if (!report.isOk()) {
            result.failOps(cells, report.status().toString());
            continue;
        }
        uint64_t events = 0;
        std::vector<CellOutput> outputs;
        for (const mhp::SweepCellResult &cell : report->results) {
            events += cell.eventsConsumed;
            outputs.push_back(cellOutputOf(cell));
        }
        for (const mhp::QuarantinedCell &q : report->quarantined)
            outputs[q.cellIndex].ok = false;
        quarantined += report->quarantined.size();
        if (report->completedCells + report->quarantined.size() != cells)
            ++identityBreaks;
        if (first.empty())
            first = outputs;
        for (size_t c = 0; c < cells; ++c)
            if (outputs[c].ok && !(outputs[c] == first[c]))
                ++wrongCells;
        rates.push_back(static_cast<double>(events) / wall);
        ms.push_back(wall * 1000.0);
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    // Output check: every sweep's cells must equal the decomposed
    // per-layer pipeline over the same plan.
    const SweepPass ref = decomposedSweep(*runner, options.threads, {});
    for (size_t c = 0; c < cells && !first.empty(); ++c)
        if (first[c].ok && !(first[c] == ref.cells[c]))
            wrongCells += ms.size();
    result.failOps(quarantined, "quarantined cells");
    result.failOps(wrongCells, "cells differing from the reference");
    if (identityBreaks > 0)
        result.mismatch("completed + quarantined != cells");

    double errorSum = 0;
    for (const CellOutput &cell : ref.cells)
        errorSum += cell.run.averageErrorPercent();
    result.set("setup_s", median(setup), "s");
    result.set("events_per_s", median(rates), "events/s");
    result.set("peak_rss_mb",
               static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    result.set("profile_accuracy_pct",
               100.0 - errorSum / static_cast<double>(cells), "%");
    result.set("latency_p50_ms", median(ms), "ms");
    result.set("latency_p99_ms", quantile(ms, 0.99), "ms");
    result.info["sweeps"] = std::to_string(ms.size());
    result.info["cells"] = std::to_string(cells);
    return result;
}

} // namespace ledger
