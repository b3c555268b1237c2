/**
 * @file
 * mhprof_coord — the sweep command: evaluates one profiler
 * configuration at each of --sweep-lengths through the resilient
 * sweep executor. Failed cells are retried and then quarantined
 * (reported on stderr and optionally to --quarantine-report),
 * --checkpoint makes the sweep resumable, and SIGINT/SIGTERM stop it
 * with the journal flushed, so a rerun resumes bit-identically.
 *
 * --serial runs the cells in-process. Otherwise they run across
 * worker processes: the coordinator spawns --workers local
 * mhprof_worker binaries (and/or accepts externally started ones
 * with --accept-external), shards the plan into cell-range leases,
 * steals work back from busy workers for idle ones, declares silent
 * workers dead and respawns them, and journals every completed cell
 * plus the lease trail to --checkpoint so a kill -9 of the
 * coordinator or any worker resumes bit-identically. stdout is the
 * result table only, rendered by one printer for both engines, so
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

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sweep_distributed.h"
#include "profiler_flags.h"
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
                             "mhprof_coord: warning: duplicate sweep "
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

/** "mhprof_coord: quarantined cell N (...) after K attempts: ..." */
void
printQuarantineDiagnostics(const mhp::SweepReport &report)
{
    for (const mhp::QuarantinedCell &q : report.quarantined) {
        std::fprintf(stderr,
                     "mhprof_coord: quarantined cell %llu (%s %s "
                     "len=%llu) after %u attempts: %s\n",
                     static_cast<unsigned long long>(q.cellIndex),
                     q.benchmark.c_str(), q.configLabel.c_str(),
                     static_cast<unsigned long long>(q.intervalLength),
                     q.attempts, q.status.toString().c_str());
    }
}

/**
 * The tab-separated quarantine report, one line per cell: index,
 * benchmark, config, length, attempts, status.
 */
bool
writeQuarantineReport(const std::string &path,
                      const mhp::SweepReport &report)
{
    std::ofstream rep(path, std::ios::trunc);
    for (const mhp::QuarantinedCell &q : report.quarantined) {
        rep << q.cellIndex << '\t' << q.benchmark << '\t'
            << q.configLabel << '\t' << q.intervalLength << '\t'
            << q.attempts << '\t' << q.status.toString() << '\n';
    }
    return static_cast<bool>(rep);
}

/**
 * The result table, one line per populated cell in cell order —
 * bit-identical for any execution schedule, --serial or distributed.
 * Returns true when a cell is missing (quarantined), i.e. exit 3.
 */
bool
printSweepTable(const mhp::SweepReport &report)
{
    bool missing = false;
    for (const mhp::SweepCellResult &r : report.results) {
        if (r.run.profilerName.empty()) {
            missing = true;
            continue;
        }
        std::printf("%s %s len=%llu: %llu intervals, avg error "
                    "%.4f%%, %.1f candidates/interval\n",
                    r.benchmark.c_str(), r.configLabel.c_str(),
                    static_cast<unsigned long long>(r.intervalLength),
                    static_cast<unsigned long long>(
                        r.intervalsCompleted),
                    r.run.averageErrorPercent(),
                    r.run.meanHardwareCandidates());
    }
    return missing;
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
    addKindFlags(cli);
    cli.addString("trace", "", "input .mht trace (instead of a model)");
    cli.addString("sweep-lengths", "",
                  "comma-separated interval lengths (required)");
    cli.addInt("intervals", 10, "profile intervals per cell");
    addProfilerFlags(cli);
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
                  "checkpoint journal (resumable; --serial and "
                  "distributed runs share it)");
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

    const StatusOr<ProfilerConfig> cfg = profilerConfigFromFlags(cli);
    if (!cfg.isOk()) {
        std::fprintf(stderr, "mhprof_coord: %s\n",
                     cfg.status().toString().c_str());
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
        const StatusOr<ProfileKind> kind = workloadKindFromFlags(cli);
        if (!kind.isOk()) {
            std::fprintf(stderr, "mhprof_coord: %s\n",
                         kind.status().toString().c_str());
            return 1;
        }
        plan.kind = *kind;
    } else {
        std::fprintf(stderr,
                     "mhprof_coord: needs --trace=<file> or a valid "
                     "--benchmark\n");
        return 1;
    }
    plan.configs.push_back({cfg->describe(), *cfg});
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

    printQuarantineDiagnostics(report);
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
                     "%llu of %zu cells; checkpoint%s flushed — rerun "
                     "the same command to resume\n",
                     sig,
                     static_cast<unsigned long long>(
                         report.completedCells),
                     report.results.size(),
                     resilience.checkpointPath.empty() ? " (none)"
                                                       : "");
        return sig > 0 ? 128 + sig : 130;
    }

    // Printed only from a finished report, so a killed-and-resumed
    // sweep emits stdout bit-identical to an uninterrupted one.
    return printSweepTable(report) ? 3 : 0;
}
