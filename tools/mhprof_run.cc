/**
 * @file
 * mhprof_run — profile a workload or trace file and write a .mhp
 * profile, or sweep one configuration across interval lengths.
 *
 * Input is one of:
 *   --benchmark <name>    a calibrated suite model (value, edge, or
 *                         path — pick with --kind);
 *   --trace <file.mht>    a recorded tuple trace.
 *
 * The profiler configuration mirrors the paper's knobs. Example:
 *
 *   mhprof_run --benchmark=gcc --intervals=20 --out=gcc.mhp
 *   mhprof_run --trace=run.mht --tables=1 --reset --out=bsh.mhp
 *
 * Sweep mode (--sweep-lengths=L1,L2,...) evaluates the configuration
 * at each interval length through the resilient sweep executor:
 * failed cells are retried and then quarantined (reported on stderr
 * and optionally to --quarantine-report), --checkpoint makes the
 * sweep resumable, and SIGINT/SIGTERM stop it at an interval boundary
 * with the checkpoint journal flushed, so a rerun resumes
 * bit-identically.
 *
 * Exit codes (see docs/ROBUSTNESS.md): 0 success; 1 usage error,
 * unreadable/corrupt input, or write failure; 3 sweep completed with
 * quarantined cells; 128+N interrupted by signal N (130 = SIGINT,
 * 143 = SIGTERM).
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/interval_runner.h"
#include "analysis/profile_io.h"
#include "analysis/sweep_distributed.h"
#include "analysis/sweep_runner.h"
#include "analysis/sweep_text.h"
#include "core/factory.h"
#include "support/cancel.h"
#include "support/cli.h"
#include "support/cpu.h"
#include "support/failpoint.h"
#include "trace/event_class.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "workload/benchmarks.h"

namespace {

mhp::CancelToken gCancel;
std::atomic<int> gSignal{0};

// Async-signal-safe: two lock-free atomic stores, nothing else.
extern "C" void
onSignal(int sig)
{
    gSignal.store(sig, std::memory_order_relaxed);
    gCancel.cancel();
}

/**
 * Parse a comma-separated list of positive interval lengths.
 * Duplicates are dropped (with a warning): a repeated length would
 * silently double its sweep cells, skewing checkpoints and the table.
 */
bool
parseLengths(const std::string &csv, std::vector<uint64_t> &lengths)
{
    size_t pos = 0;
    while (pos < csv.size()) {
        size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string item = csv.substr(pos, comma - pos);
        try {
            size_t used = 0;
            const unsigned long long v = std::stoull(item, &used);
            if (used != item.size() || v == 0)
                return false;
            if (std::find(lengths.begin(), lengths.end(), v) !=
                lengths.end()) {
                std::fprintf(stderr,
                             "mhprof_run: warning: duplicate sweep "
                             "length %llu ignored\n",
                             v);
            } else {
                lengths.push_back(v);
            }
        } catch (...) {
            return false;
        }
        pos = comma + 1;
    }
    return !lengths.empty();
}

/**
 * Resolve the requested event class: --kind wins; the legacy --edges
 * flag maps to the edge model. Only kinds with a calibrated workload
 * model are accepted.
 */
bool
resolveKind(const mhp::CliParser &cli, mhp::ProfileKind &kind)
{
    using namespace mhp;
    const std::string name = cli.getString("kind");
    if (name.empty()) {
        kind = cli.getBool("edges") ? ProfileKind::Edge
                                    : ProfileKind::Value;
        return true;
    }
    const std::optional<ProfileKind> parsed = parseProfileKind(name);
    if (!parsed || (*parsed != ProfileKind::Value &&
                    *parsed != ProfileKind::Edge &&
                    *parsed != ProfileKind::Path)) {
        std::fprintf(stderr,
                     "mhprof_run: --kind=%s not recognized "
                     "(value|edge|path)\n",
                     name.c_str());
        return false;
    }
    kind = *parsed;
    return true;
}

int
runSweep(const mhp::CliParser &cli, const mhp::ProfilerConfig &cfg,
         const std::vector<uint64_t> &lengths)
{
    using namespace mhp;

    SweepPlan plan;
    const std::string bench = cli.getString("benchmark");
    const std::string trace = cli.getString("trace");
    if (!trace.empty()) {
        auto mapped = TraceMap::open(trace);
        if (!mapped.isOk()) {
            std::fprintf(stderr, "mhprof_run: %s\n",
                         mapped.status().toString().c_str());
            return 1;
        }
        plan.trace = std::move(*mapped);
    } else if (isBenchmarkName(bench)) {
        plan.benchmarks.push_back(bench);
        if (!resolveKind(cli, plan.kind))
            return 1;
    } else {
        std::fprintf(stderr, "mhprof_run: sweep mode needs "
                             "--trace=<file> or a valid --benchmark\n");
        return 1;
    }
    plan.configs.push_back({cfg.describe(), cfg});
    plan.intervalLengths = lengths;
    plan.intervals = static_cast<uint64_t>(cli.getInt("intervals"));
    plan.workloadSeed = static_cast<uint64_t>(cli.getInt("seed"));

    SweepResilienceOptions options;
    options.threads = static_cast<unsigned>(cli.getInt("threads"));
    options.maxAttempts =
        static_cast<unsigned>(cli.getInt("retries")) + 1;
    options.cellDeadlineMs =
        static_cast<uint64_t>(cli.getInt("cell-deadline-ms"));
    options.backoffBaseMs =
        static_cast<uint64_t>(cli.getInt("backoff-ms"));
    options.backoffSeed =
        static_cast<uint64_t>(cli.getInt("failpoint-seed"));
    options.cancel = &gCancel;
    options.checkpointPath = cli.getString("checkpoint");
    options.watchdogPollMs = options.cellDeadlineMs > 0 ? 50 : 0;

    // A signal trips the token; the sweep stops at the next interval
    // boundary with every finished cell already journaled (appends
    // are flushed whole, and the journal is fsync'd on the way out).
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // --distributed=N delegates the same plan and resilience knobs to
    // the multi-process coordinator (spawning N mhprof_worker
    // binaries found next to this executable); stdout stays
    // bit-identical because both paths share the report renderer.
    const unsigned distributed =
        static_cast<unsigned>(cli.getInt("distributed"));
    StatusOr<SweepReport> swept = [&]() -> StatusOr<SweepReport> {
        if (distributed == 0) {
            SweepRunner runner(std::move(plan));
            return runner.runResilient(options);
        }
        DistributedSweepOptions dist;
        dist.workers = distributed;
        dist.resilience = options;
        dist.failpointSpec = cli.getString("failpoints");
        dist.failpointSeed =
            static_cast<uint64_t>(cli.getInt("failpoint-seed"));
        return runDistributedSweep(plan, dist);
    }();
    if (!swept.isOk()) {
        std::fprintf(stderr, "mhprof_run: %s\n",
                     swept.status().toString().c_str());
        return 1;
    }
    const SweepReport &report = *swept;

    // Quarantine lines are diagnostics (stderr) and, when asked for,
    // a machine-readable report file — never part of stdout, which
    // stays reserved for the result table.
    printQuarantineDiagnostics("mhprof_run", report);
    const std::string reportPath = cli.getString("quarantine-report");
    if (!reportPath.empty() &&
        !writeQuarantineReport(reportPath, report)) {
        std::fprintf(stderr, "mhprof_run: cannot write %s\n",
                     reportPath.c_str());
        return 1;
    }

    if (report.interrupted) {
        const int sig = gSignal.load(std::memory_order_relaxed);
        std::fprintf(stderr,
                     "mhprof_run: interrupted by signal %d after %llu "
                     "of %zu cells; checkpoint%s flushed — rerun the "
                     "same command to resume\n",
                     sig,
                     static_cast<unsigned long long>(
                         report.completedCells),
                     report.results.size(),
                     options.checkpointPath.empty() ? " (none)" : "");
        return sig > 0 ? 128 + sig : 130;
    }

    // The table is printed only from a finished report, so an
    // interrupted-and-resumed sweep emits stdout bit-identical to an
    // uninterrupted one.
    return printSweepTable(report) ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mhp;

    CliParser cli("profile a workload/trace with a hardware profiler "
                  "model and write a .mhp profile, or sweep interval "
                  "lengths (exit codes: 0 ok, 1 error, 3 quarantined "
                  "cells, 128+N signal)");
    cli.addString("benchmark", "", "suite benchmark to profile");
    cli.addBool("edges", false,
                "use the edge model (alias for --kind=edge)");
    cli.addString("kind", "",
                  "event class of the workload model "
                  "(value|edge|path; default value)");
    cli.addString("trace", "", "input .mht trace (instead of a model)");
    cli.addString("out", "profile.mhp", "output .mhp path");
    cli.addInt("intervals", 10, "profile intervals to run");
    cli.addInt("interval-length", 10'000, "events per interval");
    cli.addDouble("threshold", 1.0, "candidate threshold in percent");
    cli.addInt("tables", 4, "hash tables (1 = single-hash)");
    cli.addInt("entries", 2048, "total hash-table entries");
    cli.addBool("reset", false, "R1: reset counters on promotion");
    cli.addBool("no-retain", false, "P0: flush accumulator per interval");
    cli.addBool("no-conservative", false, "C0: plain counter update");
    cli.addInt("seed", 1, "workload seed");
    cli.addInt("threads", 0,
               "worker threads for scoring a mapped trace or running "
               "a sweep (0 = auto, 1 = serial streaming)");
    cli.addString("sweep-lengths", "",
                  "comma-separated interval lengths; non-empty "
                  "switches to resilient sweep mode");
    cli.addString("checkpoint", "",
                  "sweep checkpoint journal (resumable)");
    cli.addInt("retries", 2,
               "sweep: retries per failing cell before quarantine");
    cli.addInt("cell-deadline-ms", 0,
               "sweep: wall-clock budget per cell attempt (0 = none)");
    cli.addInt("backoff-ms", 0,
               "sweep: base retry backoff in ms (0 = immediate)");
    cli.addString("quarantine-report", "",
                  "sweep: write quarantined cells to this file");
    cli.addInt("distributed", 0,
               "sweep: run across this many mhprof_worker processes "
               "(0 = in-process)");
    cli.addString("failpoints", "",
                  "failpoint spec, e.g. profile.write.enospc=2 "
                  "(see docs/ROBUSTNESS.md)");
    cli.addInt("failpoint-seed", 0,
               "seed for probabilistic failpoints and retry jitter");
    cli.addString("isa", "",
                  "pin the ingest-kernel ISA tier "
                  "(scalar|sse42|avx2|avx512; default: auto-detect)");
    cli.parse(argc, argv);

    if (const std::string isa = cli.getString("isa"); !isa.empty()) {
        const std::optional<IsaTier> tier = parseIsaTier(isa);
        if (!tier) {
            std::fprintf(stderr,
                         "mhprof_run: --isa=%s not recognized "
                         "(scalar|sse42|avx2|avx512)\n",
                         isa.c_str());
            return 1;
        }
        if (!isaTierSupported(*tier)) {
            std::fprintf(stderr,
                         "mhprof_run: --isa=%s unsupported on this "
                         "CPU\n",
                         isa.c_str());
            return 2;
        }
        setIsaTierForTesting(*tier);
    }

    if (cli.getInt("intervals") < 0 || cli.getInt("threads") < 0 ||
        cli.getInt("retries") < 0 ||
        cli.getInt("cell-deadline-ms") < 0 ||
        cli.getInt("backoff-ms") < 0 || cli.getInt("distributed") < 0) {
        std::fprintf(stderr,
                     "--intervals, --threads, --retries, "
                     "--cell-deadline-ms, --backoff-ms and "
                     "--distributed must be >= 0\n");
        return 1;
    }

    if (cli.getInt("failpoint-seed") != 0) {
        setFailpointSeed(
            static_cast<uint64_t>(cli.getInt("failpoint-seed")));
    }
    if (const std::string spec = cli.getString("failpoints");
        !spec.empty()) {
        if (const Status bad = configureFailpoints(spec);
            !bad.isOk()) {
            std::fprintf(stderr, "mhprof_run: %s\n",
                         bad.toString().c_str());
            return 1;
        }
    }

    ProfilerConfig cfg;
    cfg.intervalLength =
        static_cast<uint64_t>(cli.getInt("interval-length"));
    cfg.candidateThreshold = cli.getDouble("threshold") / 100.0;
    cfg.numHashTables = static_cast<unsigned>(cli.getInt("tables"));
    cfg.totalHashEntries = static_cast<uint64_t>(cli.getInt("entries"));
    cfg.resetOnPromote = cli.getBool("reset");
    cfg.retaining = !cli.getBool("no-retain");
    cfg.conservativeUpdate = !cli.getBool("no-conservative");
    if (const Status bad = cfg.check(); !bad.isOk()) {
        std::fprintf(stderr, "mhprof_run: %s\n",
                     bad.toString().c_str());
        return 1;
    }

    if (const std::string csv = cli.getString("sweep-lengths");
        !csv.empty()) {
        std::vector<uint64_t> lengths;
        if (!parseLengths(csv, lengths)) {
            std::fprintf(stderr,
                         "mhprof_run: --sweep-lengths must be a "
                         "comma-separated list of positive lengths\n");
            return 1;
        }
        return runSweep(cli, cfg, lengths);
    }

    // Trace input prefers the zero-copy mapping; when mmap itself
    // fails (typically an address-space cap smaller than the trace)
    // fall back to the buffered reader, which replays the same bytes
    // in O(64 KiB) memory. Corrupt or missing traces fail either way.
    std::shared_ptr<const TraceMap> map;
    std::unique_ptr<EventSource> source;
    const std::string bench = cli.getString("benchmark");
    const std::string trace = cli.getString("trace");
    if (!trace.empty()) {
        auto mapped = TraceMap::open(trace);
        if (mapped.isOk()) {
            map = std::move(*mapped);
        } else if (mapped.status().code() != StatusCode::IoError) {
            std::fprintf(stderr, "mhprof_run: %s\n",
                         mapped.status().toString().c_str());
            return 1;
        } else {
            std::fprintf(stderr, "mhprof_run: note: %s\n",
                         mapped.status().toString().c_str());
            auto opened = TraceReader::open(trace);
            if (!opened.isOk()) {
                std::fprintf(stderr, "mhprof_run: %s\n",
                             opened.status().toString().c_str());
                return 1;
            }
            source = std::move(*opened);
        }
    } else if (isBenchmarkName(bench)) {
        ProfileKind kind;
        if (!resolveKind(cli, kind))
            return 1;
        const uint64_t seed =
            static_cast<uint64_t>(cli.getInt("seed"));
        switch (kind) {
        case ProfileKind::Edge:
            source = makeEdgeWorkload(bench, seed);
            break;
        case ProfileKind::Path:
            source = makePathWorkload(bench, seed);
            break;
        default:
            source = makeValueWorkload(bench, seed);
            break;
        }
    } else {
        std::fprintf(stderr,
                     "need --trace=<file> or --benchmark=<one of:");
        for (const auto &n : benchmarkNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, ">\n");
        return 1;
    }

    auto profiler = makeProfiler(cfg);
    ProfileWriter writer(cli.getString("out"),
                         map ? map->kind() : source->kind(),
                         cfg.intervalLength, cfg.thresholdCount());
    if (!writer.ok()) {
        std::fprintf(stderr, "cannot write %s\n",
                     cli.getString("out").c_str());
        return 1;
    }

    // Run against the perfect profiler so the summary includes error.
    // One streaming pass scores and captures the snapshots for the
    // file: a mapped trace is read zero-copy, everything else flows
    // through an O(batch) staging cursor. Bit-identical to the old
    // materialize-then-span and run-twice paths.
    const uint64_t numIntervals =
        static_cast<uint64_t>(cli.getInt("intervals"));
    const unsigned threads =
        static_cast<unsigned>(cli.getInt("threads"));
    RunOutput out;
    if (map && TraceMap::zeroCopy() && threads != 1) {
        // Mapped trace: the whole record region is already a span, so
        // the parallel runner can score intervals concurrently with
        // no copy at all.
        BatchedRunOptions options;
        options.threads = threads;
        options.keepSnapshots = true;
        out = runIntervalsSpan(*map->span(), {profiler.get()},
                               cfg.intervalLength, cfg.thresholdCount(),
                               numIntervals, options);
    } else {
        StreamRunOptions options;
        options.keepSnapshots = true;
        std::unique_ptr<TraceMapSource> mapCursor;
        std::unique_ptr<EventSourceCursor> eventCursor;
        StreamCursor *cursor;
        if (map) {
            mapCursor = std::make_unique<TraceMapSource>(map);
            cursor = mapCursor.get();
        } else {
            eventCursor = std::make_unique<EventSourceCursor>(
                *source, static_cast<size_t>(options.batchSize));
            cursor = eventCursor.get();
        }
        out = runIntervalsStream(*cursor, {profiler.get()},
                                 cfg.intervalLength,
                                 cfg.thresholdCount(), numIntervals,
                                 options);
    }
    for (const IntervalSnapshot &snap : out.snapshots[0]) {
        if (const Status bad = writer.writeInterval(snap);
            !bad.isOk()) {
            std::fprintf(stderr, "mhprof_run: %s\n",
                         bad.toString().c_str());
            return 1;
        }
    }

    if (const Status bad = writer.close(); !bad.isOk()) {
        std::fprintf(stderr, "mhprof_run: %s\n", bad.toString().c_str());
        return 1;
    }

    std::printf("%s: %llu intervals, %s, avg error %.2f%%, %.1f "
                "candidates/interval -> %s\n",
                profiler->name().c_str(),
                static_cast<unsigned long long>(out.intervalsCompleted),
                cfg.describe().c_str(),
                out.results[0].averageErrorPercent(),
                out.results[0].meanHardwareCandidates(),
                cli.getString("out").c_str());
    return 0;
}
