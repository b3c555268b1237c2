/**
 * @file
 * mhprof_coord — coordinator of a distributed elastic sweep.
 *
 * Takes the same workload/configuration/sweep flags as mhprof_run's
 * sweep mode, but executes the cells across worker processes: it
 * spawns --workers local mhprof_worker binaries (and/or accepts
 * externally started ones with --accept-external), shards the plan
 * into cell-range leases, steals work back from busy workers for
 * idle ones, declares silent workers dead and respawns them, and
 * journals every completed cell plus the lease trail to --checkpoint
 * so a kill -9 of the coordinator or any worker resumes
 * bit-identically. stdout is the same result table mhprof_run prints
 * (shared renderer), so
 *
 *   mhprof_coord --serial ...        # in-process reference
 *   mhprof_coord --workers=4 ...     # distributed
 *
 * produce byte-identical stdout for the same plan — the property the
 * chaos suite (tests/distributed_chaos_smoke.sh) kills processes to
 * try to break.
 *
 * Exit codes (see docs/DISTRIBUTED.md): 0 success; 1 usage error,
 * infrastructure failure (socket, spawn, journal), or corrupt
 * checkpoint; 3 sweep completed with quarantined cells; 128+N
 * interrupted by signal N.
 */

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sweep_distributed.h"
#include "analysis/sweep_text.h"
#include "core/factory.h"
#include "support/cancel.h"
#include "support/cli.h"
#include "support/failpoint.h"
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

/** Parse a comma-separated list of positive interval lengths. */
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
            lengths.push_back(v);
        } catch (...) {
            return false;
        }
        pos = comma + 1;
    }
    return !lengths.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mhp;

    CliParser cli("distributed-sweep coordinator: shard a sweep plan "
                  "across worker processes with work-stealing and "
                  "crash-resume (exit codes: 0 ok, 1 error, 3 "
                  "quarantined cells, 128+N signal)");
    cli.addString("benchmark", "", "suite benchmark to sweep");
    cli.addBool("edges", false, "use the edge model (with --benchmark)");
    cli.addString("trace", "", "input .mht trace (instead of a model)");
    cli.addString("sweep-lengths", "",
                  "comma-separated interval lengths (required)");
    cli.addInt("intervals", 10, "profile intervals per cell");
    cli.addInt("interval-length", 10'000, "events per interval");
    cli.addDouble("threshold", 1.0, "candidate threshold in percent");
    cli.addInt("tables", 4, "hash tables (1 = single-hash)");
    cli.addInt("entries", 2048, "total hash-table entries");
    cli.addBool("reset", false, "R1: reset counters on promotion");
    cli.addBool("no-retain", false, "P0: flush accumulator per interval");
    cli.addBool("no-conservative", false, "C0: plain counter update");
    cli.addInt("seed", 1, "workload seed");
    cli.addInt("workers", 2, "worker processes to spawn");
    cli.addBool("accept-external", false,
                "also accept externally started mhprof_worker "
                "processes on the socket");
    cli.addString("socket", "",
                  "listening Unix socket path (default: per-pid "
                  "under /tmp)");
    cli.addString("worker-bin", "",
                  "mhprof_worker binary to spawn (default: next to "
                  "this executable)");
    cli.addInt("chunk-cells", 0, "cells per lease (0 = auto)");
    cli.addInt("worker-timeout-ms", 15'000,
               "declare a silent worker dead after this long");
    cli.addInt("heartbeat-ms", 500, "heartbeat period for workers");
    cli.addInt("max-restarts", 8,
               "total respawn budget for dead spawned workers");
    cli.addBool("serial", false,
                "run in-process (single machine reference; same "
                "stdout, same checkpoint format)");
    cli.addInt("threads", 0, "worker threads in --serial mode");
    cli.addString("checkpoint", "",
                  "checkpoint journal (resumable; shared with "
                  "mhprof_run --checkpoint)");
    cli.addInt("retries", 2,
               "retries per failing cell before quarantine");
    cli.addInt("cell-deadline-ms", 0,
               "wall-clock budget per cell attempt (0 = none)");
    cli.addInt("backoff-ms", 0,
               "base retry backoff in ms (0 = immediate)");
    cli.addString("quarantine-report", "",
                  "write quarantined cells to this file");
    cli.addString("failpoints", "",
                  "failpoint spec, forwarded to every worker "
                  "(see docs/ROBUSTNESS.md)");
    cli.addInt("failpoint-seed", 0,
               "seed for probabilistic failpoints and retry jitter");
    cli.addBool("verbose", false,
                "log spawn/death/steal events to stderr");
    cli.parse(argc, argv);

    if (cli.getInt("intervals") <= 0 || cli.getInt("workers") < 0 ||
        cli.getInt("chunk-cells") < 0 ||
        cli.getInt("worker-timeout-ms") <= 0 ||
        cli.getInt("heartbeat-ms") <= 0 ||
        cli.getInt("max-restarts") < 0 || cli.getInt("threads") < 0 ||
        cli.getInt("retries") < 0 ||
        cli.getInt("cell-deadline-ms") < 0 ||
        cli.getInt("backoff-ms") < 0) {
        std::fprintf(stderr,
                     "mhprof_coord: numeric flags out of range (see "
                     "--help)\n");
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
            std::fprintf(stderr, "mhprof_coord: %s\n",
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
        std::fprintf(stderr, "mhprof_coord: %s\n",
                     bad.toString().c_str());
        return 1;
    }

    std::vector<uint64_t> lengths;
    if (!parseLengths(cli.getString("sweep-lengths"), lengths)) {
        std::fprintf(stderr,
                     "mhprof_coord: --sweep-lengths must be a "
                     "comma-separated list of positive lengths\n");
        return 1;
    }

    SweepPlan plan;
    const std::string bench = cli.getString("benchmark");
    const std::string trace = cli.getString("trace");
    if (!trace.empty()) {
        auto mapped = TraceMap::open(trace);
        if (!mapped.isOk()) {
            std::fprintf(stderr, "mhprof_coord: %s\n",
                         mapped.status().toString().c_str());
            return 1;
        }
        plan.trace = std::move(*mapped);
    } else if (isBenchmarkName(bench)) {
        plan.benchmarks.push_back(bench);
        plan.kind = cli.getBool("edges") ? ProfileKind::Edge
                                         : ProfileKind::Value;
    } else {
        std::fprintf(stderr,
                     "mhprof_coord: needs --trace=<file> or a valid "
                     "--benchmark\n");
        return 1;
    }
    plan.configs.push_back({cfg.describe(), cfg});
    plan.intervalLengths = lengths;
    plan.intervals = static_cast<uint64_t>(cli.getInt("intervals"));
    plan.workloadSeed = static_cast<uint64_t>(cli.getInt("seed"));

    SweepResilienceOptions resilience;
    resilience.maxAttempts =
        static_cast<unsigned>(cli.getInt("retries")) + 1;
    resilience.cellDeadlineMs =
        static_cast<uint64_t>(cli.getInt("cell-deadline-ms"));
    resilience.backoffBaseMs =
        static_cast<uint64_t>(cli.getInt("backoff-ms"));
    resilience.backoffSeed =
        static_cast<uint64_t>(cli.getInt("failpoint-seed"));
    resilience.cancel = &gCancel;
    resilience.checkpointPath = cli.getString("checkpoint");

    // A signal trips the token; the coordinator tells workers to shut
    // down and flushes the journal, so a rerun resumes bit-identically.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    StatusOr<SweepReport> swept = [&]() -> StatusOr<SweepReport> {
        if (cli.getBool("serial")) {
            resilience.threads =
                static_cast<unsigned>(cli.getInt("threads"));
            resilience.watchdogPollMs =
                resilience.cellDeadlineMs > 0 ? 50 : 0;
            SweepRunner runner(std::move(plan));
            return runner.runResilient(resilience);
        }
        DistributedSweepOptions options;
        options.workers = static_cast<unsigned>(cli.getInt("workers"));
        options.acceptExternal = cli.getBool("accept-external");
        options.socketPath = cli.getString("socket");
        options.workerBinary = cli.getString("worker-bin");
        options.chunkCells =
            static_cast<uint64_t>(cli.getInt("chunk-cells"));
        options.workerTimeoutMs =
            static_cast<uint64_t>(cli.getInt("worker-timeout-ms"));
        options.heartbeatMs =
            static_cast<uint64_t>(cli.getInt("heartbeat-ms"));
        options.maxWorkerRestarts =
            static_cast<unsigned>(cli.getInt("max-restarts"));
        options.resilience = resilience;
        options.failpointSpec = cli.getString("failpoints");
        options.failpointSeed =
            static_cast<uint64_t>(cli.getInt("failpoint-seed"));
        options.verbose = cli.getBool("verbose");
        return runDistributedSweep(plan, options);
    }();

    if (!swept.isOk()) {
        std::fprintf(stderr, "mhprof_coord: %s\n",
                     swept.status().toString().c_str());
        return 1;
    }
    const SweepReport &report = *swept;

    printQuarantineDiagnostics("mhprof_coord", report);
    const std::string reportPath = cli.getString("quarantine-report");
    if (!reportPath.empty() &&
        !writeQuarantineReport(reportPath, report)) {
        std::fprintf(stderr, "mhprof_coord: cannot write %s\n",
                     reportPath.c_str());
        return 1;
    }

    if (report.interrupted) {
        const int sig = gSignal.load(std::memory_order_relaxed);
        std::fprintf(stderr,
                     "mhprof_coord: interrupted by signal %d after "
                     "%llu cells; checkpoint%s flushed — rerun the "
                     "same command to resume\n",
                     sig,
                     static_cast<unsigned long long>(
                         report.completedCells),
                     resilience.checkpointPath.empty() ? " (none)"
                                                       : "");
        return sig > 0 ? 128 + sig : 130;
    }

    // Printed only from a finished report, so a killed-and-resumed
    // sweep emits stdout bit-identical to an uninterrupted one.
    return printSweepTable(report) ? 3 : 0;
}
