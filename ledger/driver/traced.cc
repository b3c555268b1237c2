/**
 * @file
 * The traced run: the per-layer ledger of one workload.
 *
 * Every traced run times every layer. The two pipelines the workload
 * does not use run first, one pass each, on inputs derived from the
 * same workload (same seed, same interval geometry), so each layer
 * metric exists on every workload. The workload's own path, the main
 * stage, then gets the rest of the run; a metric is read from the main
 * stage whenever the main stage calls that layer. The main stage
 * alternates untraced and traced passes of the identical code; their
 * rate ratio is tracing.overhead_pct.
 */

#include <cstdio>
#include <memory>

#include "core/factory.h"
#include "stages.h"
#include "workload/benchmarks.h"

namespace ledger {

namespace {

enum Stage : uint32_t
{
    kOffline = 0,
    kSweep = 1,
    kService = 2,
};

const std::vector<std::string> kStageNames = {"offline", "sweep",
                                              "service"};

/** The main stage's least share of the run, however long probes take. */
constexpr double kMinMainShare = 0.5;

/** Inputs of all three pipelines for one workload. */
struct LedgerInputs
{
    Stage main = kOffline;

    // offline
    std::string offlineBenchmark = "gcc";
    uint64_t offlineSeed = 1;
    uint64_t offlineEvents = 0;
    mhp::ProfilerConfig offlineConfig;

    // sweep
    mhp::SweepPlan plan;

    // service
    ServiceTenants tenants;
    uint64_t serviceRounds = 0;
};

LedgerInputs
inputsFor(const Options &options)
{
    LedgerInputs in;
    const uint64_t seed = options.seed;
    ServiceTenants &t = in.tenants;
    if (options.workload == "scored_1m") {
        in.main = kOffline;
        in.offlineSeed = seed;
        in.offlineEvents = 16'000'000;
        in.offlineConfig.intervalLength = 1'000'000;
        in.offlineConfig.candidateThreshold = 0.1 / 100.0;
        in.plan = suitePlan({"gcc"}, 1'000'000, 0.001, 2, seed);
        t.config = in.offlineConfig;
        for (size_t i = 0; i < 3; ++i) {
            t.benchmarks.push_back("gcc");
            t.seeds.push_back(seed * 3 + i + 1);
        }
        in.serviceRounds = 250;
    } else if (options.workload == "sweep_10k") {
        in.main = kSweep;
        in.offlineSeed = seed;
        in.offlineEvents = 1'000'000;
        in.offlineConfig = mhp::bestMultiHashConfig(10'000, 0.01);
        in.plan = suitePlan(mhp::benchmarkNames(), 10'000, 0.01, 40, seed);
        t.config = in.offlineConfig;
        for (size_t i = 0; i < 3; ++i) {
            t.benchmarks.push_back(mhp::benchmarkNames()[i]);
            t.seeds.push_back(seed);
        }
        in.serviceRounds = 250;
    } else {
        in.main = kService;
        in.offlineSeed = seed * 3 + 1;
        in.offlineEvents = 1'024'000;
        in.offlineConfig = mhp::bestMultiHashConfig(10'000, 0.01);
        in.plan = suitePlan({"gcc"}, 10'000, 0.01, 100, seed * 3 + 1);
        t.config = in.offlineConfig;
        for (size_t i = 0; i < 3; ++i) {
            t.benchmarks.push_back("gcc");
            t.seeds.push_back(seed * 3 + i + 1);
        }
        in.serviceRounds = 500;
    }
    for (size_t i = 0; i < t.benchmarks.size(); ++i)
        t.names.push_back("ledger" + std::to_string(i));
    return in;
}

/** Values that come from pass results rather than spans. */
struct Extras
{
    double untracedRate = 0; ///< main stage, median events/s
    double tracedRate = 0;
    double busySeconds = 0;  ///< resilient sweep cells
    double poolSeconds = 0;  ///< threads x pass wall
    double acceptedFrac = 0;
    double queuedMax = 0;
    uint64_t walBytes = 0;
    uint64_t commits = 0;
    uint64_t servicePasses = 0;
};

/**
 * Alternate untraced and traced passes (pass(false), pass(true), ...)
 * for `budget` seconds; each returns its events per second.
 */
template <typename PassFn>
void
alternate(double budget, Extras &extras, PassFn pass)
{
    std::vector<double> plain, traced;
    const double start = nowS();
    while (plain.size() < 2 || traced.size() < 2 ||
           nowS() - start < budget) {
        const bool trace = traced.size() < plain.size();
        const double rate = pass(trace);
        (trace ? traced : plain).push_back(rate);
        if (plain.size() + traced.size() >= 200)
            break;
    }
    extras.untracedRate = median(plain);
    extras.tracedRate = median(traced);
}

void
offlineStage(const Options &options, LedgerInputs &in, bool main,
             double budget, Tracer &tracer, Extras &extras,
             Result &result)
{
    Lane *lane = tracer.newLane(kOffline);
    const std::string trace = options.workDir + "/offline.mht";
    if (!recordTrace(in.offlineBenchmark, in.offlineSeed,
                     in.offlineEvents, trace, lane)) {
        result.mismatch("offline: trace recording failed");
        return;
    }
    const uint64_t intervals =
        in.offlineEvents / in.offlineConfig.intervalLength;
    const std::string out = options.workDir + "/offline.mhp";
    uint64_t expect = 0;
    bool haveExpect = false;
    if (main) {
        // The untraced entry point's output for the same input: the
        // traced passes must reproduce it byte for byte.
        const ChildResult run = runChild(
            {options.toolsDir + "/mhprof_run", "--trace=" + trace,
             "--interval-length=" +
                 std::to_string(in.offlineConfig.intervalLength),
             "--threshold=0.1", "--intervals=" + std::to_string(intervals),
             "--out=" + out},
            options.workDir + "/offline_run");
        haveExpect = run.exitCode == 0 && fileDigest(out, expect);
        if (!haveExpect)
            result.mismatch("offline: mhprof_run failed");
    }
    auto pass = [&](Lane *l) {
        const OfflinePass p =
            offlinePass(trace, in.offlineConfig, intervals, out, l);
        ++result.attempted;
        if (!haveExpect) {
            expect = p.digest;
            haveExpect = true;
        }
        if (!p.ok || p.digest != expect)
            result.failOps(1, "offline pass output differs");
        if (p.ingested != p.oracleEvents ||
            p.ingested != p.intervals * in.offlineConfig.intervalLength ||
            p.intervals != intervals)
            result.mismatch("offline: core events != oracle events != "
                            "intervals x length");
        return static_cast<double>(p.ingested) / p.seconds;
    };
    if (main) {
        alternate(budget, extras,
                  [&](bool traced) { return pass(traced ? lane : nullptr); });
        result.info["offline_digest"] = hex64(expect);
    } else {
        pass(lane);
    }
    std::remove(trace.c_str());
}

void
checkSweepPass(const SweepPass &pass, const mhp::SweepRunner &runner,
               const std::vector<CellOutput> &expect, Result &result)
{
    const mhp::SweepPlan &plan = runner.plan();
    ++result.attempted;
    if (pass.cells != expect)
        result.failOps(1, "sweep pass cells differ from runResilient");
    if (pass.ingested != pass.oracleEvents ||
        pass.ingested != pass.intervals * plan.intervalLengths[0])
        result.mismatch("sweep: core events != oracle events != "
                        "intervals x length");
}

void
sweepStage(const Options &options, LedgerInputs &in, bool main,
           double budget, Tracer &tracer, Extras &extras, Result &result)
{
    const mhp::SweepRunner runner(in.plan);
    std::vector<Lane *> lanes;
    for (unsigned w = 0; w < options.threads; ++w)
        lanes.push_back(tracer.newLane(kSweep));

    // The untraced entry point's cells are the expected output.
    mhp::SweepResilienceOptions sweepOptions;
    sweepOptions.threads = options.threads;
    std::vector<CellOutput> expect;
    auto report = runner.runResilient(sweepOptions);
    if (!report.isOk() || !report->quarantined.empty() ||
        report->completedCells != runner.cellCount()) {
        result.mismatch("sweep: runResilient failed or quarantined");
        return;
    }
    for (const mhp::SweepCellResult &cell : report->results)
        expect.push_back(cellOutputOf(cell));

    // Per-cell wall time through the resilient cell loop.
    const SweepPass cells = resilientCells(runner, options.threads, lanes);
    ++result.attempted;
    if (cells.cells != expect || cells.quarantined != 0)
        result.failOps(1, "resilient cells differ from runResilient");
    extras.busySeconds += cells.busySeconds;
    extras.poolSeconds += cells.seconds * options.threads;

    auto pass = [&](const std::vector<Lane *> &l) {
        const SweepPass p = decomposedSweep(runner, options.threads, l);
        checkSweepPass(p, runner, expect, result);
        return static_cast<double>(p.events) / p.seconds;
    };
    if (main) {
        alternate(budget, extras, [&](bool traced) {
            return pass(traced ? lanes : std::vector<Lane *>());
        });
    } else {
        pass(lanes);
    }
}

void
serviceStage(const Options &options, LedgerInputs &in, bool main,
             double budget, Tracer &tracer, Extras &extras,
             Result &result)
{
    Lane *lane = tracer.newLane(kService);
    ServiceTenants &tenants = in.tenants;
    tenants.generate(lane);
    const std::string state = options.workDir + "/state";
    const std::string snap = options.workDir + "/snap";
    auto pass = [&](Lane *l) {
        const ServicePass p =
            servicePass(tenants, in.serviceRounds, state, snap, l);
        ++result.attempted;
        if (!p.identityError.empty())
            result.mismatch("service: " + p.identityError);
        std::string wrong = p.ok ? "" : "pass errors; ";
        for (size_t i = 0; i < tenants.names.size() && p.ok; ++i) {
            const std::string ref =
                options.workDir + "/sref" + std::to_string(i) + ".mhp";
            uint64_t want = 0, got = 1;
            if (!tenantReference(tenants, i, p.framesSent[i], ref,
                                 nullptr) ||
                !fileDigest(ref, want) ||
                !fileDigest(snap + "/" + tenants.names[i] + ".mhp", got) ||
                want != got)
                wrong += tenants.names[i] + " drained snapshot differs; ";
        }
        if (!wrong.empty())
            result.failOps(1, "service pass: " + wrong);
        if (l != nullptr) {
            extras.acceptedFrac = p.acceptedFrac;
            extras.queuedMax =
                std::max(extras.queuedMax,
                         static_cast<double>(p.queuedMax));
            extras.walBytes += p.walBytes;
            extras.commits += p.commits;
            ++extras.servicePasses;
        }
        return static_cast<double>(p.accepted) / p.seconds;
    };
    if (main)
        alternate(budget, extras,
                  [&](bool traced) { return pass(traced ? lane : nullptr); });
    else
        pass(lane);
    // The oracle and scorer on the tenants' own streams (the service
    // itself never scores).
    for (size_t i = 0; i < tenants.names.size(); ++i)
        tenantErrorPct(tenants, i, lane);
}

/** Per-layer metrics from the spans (main stage first) and extras. */
void
layerMetrics(const Tracer &tracer, Stage main, const Extras &extras,
             Result &result)
{
    const auto mainTotals = tracer.totals(static_cast<int>(main));
    const auto allTotals = tracer.totals(-1);
    auto T = [&](const char *name) -> LayerTotals {
        if (auto it = mainTotals.find(name); it != mainTotals.end())
            return it->second;
        if (auto it = allTotals.find(name); it != allTotals.end())
            return it->second;
        return {};
    };
    auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    auto perItemNs = [&](const char *name) {
        const LayerTotals t = T(name);
        return ratio(t.selfNs, static_cast<double>(t.items));
    };
    auto perCall = [&](const char *name, double scale) {
        const LayerTotals t = T(name);
        return ratio(t.selfNs, static_cast<double>(t.calls)) / scale;
    };
    auto itemsPerCall = [&](const char *name) {
        const LayerTotals t = T(name);
        return ratio(static_cast<double>(t.items),
                     static_cast<double>(t.calls));
    };

    result.set("workload.gen_ns_per_event", perItemNs("workload.gen"),
               "ns/event");
    const LayerTotals open = T("trace.open"), take = T("trace.take");
    result.set("trace.map_ns_per_event",
               ratio(open.selfNs + take.selfNs,
                     static_cast<double>(take.items)),
               "ns/event");
    result.set("core.ingest_ns_per_event", perItemNs("core.ingest"),
               "ns/event");
    result.set("core.close_us_per_interval", perCall("core.close", 1e3),
               "us/interval");
    result.set("core.candidates_per_interval", itemsPerCall("core.close"),
               "count");
    result.set("oracle.ns_per_event", perItemNs("oracle.ingest"),
               "ns/event");
    result.set("oracle.take_us_per_interval", perCall("oracle.take", 1e3),
               "us/interval");
    result.set("oracle.distinct_per_interval",
               itemsPerCall("oracle.take"), "count");
    result.set("score.us_per_interval", perCall("score.interval", 1e3),
               "us/interval");
    const LayerTotals write = T("io.write"), close = T("io.close");
    result.set("io.write_ms",
               ratio(write.selfNs + close.selfNs,
                     static_cast<double>(close.calls)) /
                   1e6,
               "ms");
    result.set("io.bytes",
               ratio(static_cast<double>(write.items),
                     static_cast<double>(close.calls)),
               "bytes");

    const LayerTotals cell = T("sweep.cell");
    result.set("sweep.cell_p50_s", median(cell.durationsNs) / 1e9, "s");
    result.set("sweep.cell_max_s", quantile(cell.durationsNs, 1.0) / 1e9,
               "s");
    result.set("sweep.busy_frac",
               ratio(extras.busySeconds, extras.poolSeconds), "ratio");
    result.set("sweep.attempts_per_cell", itemsPerCall("sweep.cell"),
               "count");

    result.set("service.admit_ms", perCall("service.admit", 1e6), "ms");
    result.set("service.offer_us_per_batch",
               perCall("service.offer", 1e3), "us/batch");
    result.set("service.accepted_frac", extras.acceptedFrac, "ratio");
    result.set("service.queued_max_events", extras.queuedMax, "events");
    result.set("service.drain_ns_per_event", perItemNs("service.tick"),
               "ns/event");
    result.set("service.finish_ms", perCall("service.finish", 1e6), "ms");
    result.set("service.query_us", perCall("service.query", 1e3), "us");

    const LayerTotals commit = T("wal.commit");
    const double passes =
        static_cast<double>(std::max<uint64_t>(1, extras.servicePasses));
    result.set("wal.commit_p50_us", median(commit.durationsNs) / 1e3,
               "us");
    result.set("wal.commit_p99_us",
               quantile(commit.durationsNs, 0.99) / 1e3, "us");
    result.set("wal.commits", static_cast<double>(commit.calls) / passes,
               "count");
    result.set("wal.bytes_per_commit",
               ratio(static_cast<double>(extras.walBytes),
                     static_cast<double>(extras.commits)),
               "bytes");
    result.set("wal.checkpoint_ms", perCall("wal.checkpoint", 1e6), "ms");
    result.set("wal.checkpoints",
               static_cast<double>(T("wal.checkpoint").calls) / passes,
               "count");
    result.set("wire.encode_ns_per_event", perItemNs("wire.encode"),
               "ns/event");
    result.set("wire.decode_ns_per_event", perItemNs("wire.decode"),
               "ns/event");
    result.set("tracing.overhead_pct",
               (ratio(extras.untracedRate, extras.tracedRate) - 1.0) *
                   100.0,
               "%");
}

} // namespace

Result
runTraced(const Options &options)
{
    Result result;
    LedgerInputs in = inputsFor(options);
    Tracer tracer;
    Extras extras;
    using StageFn = void (*)(const Options &, LedgerInputs &, bool, double,
                             Tracer &, Extras &, Result &);
    const StageFn stages[] = {offlineStage, sweepStage, serviceStage};
    const double start = nowS();
    for (uint32_t stage = kOffline; stage <= kService; ++stage)
        if (stage != in.main)
            stages[stage](options, in, false, 0, tracer, extras, result);
    const double left = options.seconds - (nowS() - start);
    stages[in.main](options, in, true,
                    std::max(left, options.seconds * kMinMainShare), tracer,
                    extras, result);

    layerMetrics(tracer, in.main, extras, result);
    tracer.printSelfTimes(kStageNames);
    result.info["spans"] = std::to_string(tracer.spanCount());
    if (!options.spansPath.empty() &&
        !tracer.dump(options.spansPath, kStageNames))
        result.mismatch("cannot write " + options.spansPath);
    return result;
}

} // namespace ledger
