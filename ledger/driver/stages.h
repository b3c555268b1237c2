/**
 * @file
 * The three layer pipelines the ledger times, each usable untraced
 * (as an in-process reference for output checks) and traced (one span
 * per call into a layer's public function):
 *
 *  - offline: trace map -> oracle + profiler ingest -> interval close
 *    -> scoring -> profile writer, the serial form of a scored
 *    `mhprof_run`;
 *  - sweep: sweep cells, both through SweepRunner::runCellResilient
 *    and decomposed into workload generation, ingest, oracle, scoring;
 *  - service: ServiceCore + ServiceState in process, replaying the
 *    daemon's per-round calls (wire decode, ingest, commit, tick,
 *    query).
 */

#ifndef LEDGER_STAGES_H
#define LEDGER_STAGES_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/interval_runner.h"
#include "analysis/sweep_runner.h"
#include "core/config.h"
#include "ledger.h"
#include "spans.h"

namespace ledger {

// ---- offline -------------------------------------------------------

/** Result of one serial scored pass over a trace. */
struct OfflinePass
{
    uint64_t intervals = 0;
    uint64_t ingested = 0;     ///< events into the profiler
    uint64_t oracleEvents = 0; ///< events into the oracle
    double seconds = 0;
    double errorPct = 0; ///< RunResult::averageErrorPercent()
    uint64_t digest = 0; ///< of the written .mhp
    bool ok = false;
};

/**
 * Record `events` events of a suite benchmark's value stream to a
 * .mht trace, exactly as `mhprof_trace --benchmark` does. Generation
 * is timed as workload.gen spans.
 */
bool recordTrace(const std::string &benchmark, uint64_t seed,
                 uint64_t events, const std::string &path, Lane *lane);

/**
 * One scored pass: map the trace, stream it in 4096-event chunks
 * through the oracle and the profiler, close, score, and write every
 * interval to `outPath`. The same calls in the same order as
 * runIntervalsStream(); the .mhp must equal `mhprof_run`'s.
 */
OfflinePass offlinePass(const std::string &tracePath,
                        const mhp::ProfilerConfig &config,
                        uint64_t intervals, const std::string &outPath,
                        Lane *lane);

// ---- sweep ---------------------------------------------------------

/** The suite x {BSH, 2t, 4t, 8t} plan at one interval length. */
mhp::SweepPlan suitePlan(const std::vector<std::string> &benchmarks,
                         uint64_t intervalLength, double threshold,
                         uint64_t intervals, uint64_t seed);

/** Per-cell outputs the sweep checks compare. */
struct CellOutput
{
    mhp::RunResult run;
    mhp::StreamStats stream;
    uint64_t eventsConsumed = 0;
    uint64_t intervalsCompleted = 0;
    bool ok = false;

    friend bool operator==(const CellOutput &,
                           const CellOutput &) = default;
};

CellOutput cellOutputOf(const mhp::SweepCellResult &result);

/** A pass over every cell of a plan. */
struct SweepPass
{
    std::vector<CellOutput> cells;
    uint64_t events = 0;
    uint64_t ingested = 0;
    uint64_t oracleEvents = 0;
    uint64_t intervals = 0;
    uint64_t quarantined = 0;
    double seconds = 0;
    double busySeconds = 0; ///< summed per-cell wall time
};

/**
 * Every cell decomposed into its layer calls (workload generation,
 * oracle and profiler ingest, interval close, scoring), `threads`
 * workers pulling cells in order. `lanes` holds one Lane per worker,
 * or is empty for an untraced pass.
 */
SweepPass decomposedSweep(const mhp::SweepRunner &runner,
                          unsigned threads,
                          const std::vector<Lane *> &lanes);

/** Every cell through SweepRunner::runCellResilient, timed per cell. */
SweepPass resilientCells(const mhp::SweepRunner &runner,
                         unsigned threads,
                         const std::vector<Lane *> &lanes);

// ---- service -------------------------------------------------------

/**
 * Tenants of a service run: each streams its own event pool (the
 * first poolFrames * frameEvents events of a suite benchmark's value
 * stream), frame after frame, cycling back to the pool's start.
 */
struct ServiceTenants
{
    std::vector<std::string> names;
    std::vector<std::string> benchmarks;
    std::vector<uint64_t> seeds;
    mhp::ProfilerConfig config;
    uint64_t frameEvents = 4096;
    uint64_t poolFrames = 250;
    std::vector<std::vector<mhp::Tuple>> pools;

    /** Generate every pool (timed as workload.gen spans). */
    void generate(Lane *lane);

    /** Frame `k` (0-based, cycling) of tenant i's stream. */
    mhp::TupleSpan frame(size_t i, uint64_t k) const;
};

/** What one in-process service pass did. */
struct ServicePass
{
    uint64_t frames = 0;
    uint64_t acked = 0;
    uint64_t pushbacks = 0;
    uint64_t errors = 0;
    uint64_t accepted = 0;
    uint64_t queuedMax = 0;
    uint64_t walBytes = 0;
    uint64_t commits = 0;
    double seconds = 0;
    double acceptedFrac = 0;
    std::vector<uint64_t> framesSent; ///< per tenant
    std::string identityError;        ///< empty: identities held
    bool ok = false;
};

/**
 * Replay `rounds` daemon loop rounds in process on a fresh state
 * directory: admit every tenant, then per round encode + decode one
 * frame per tenant, ingest it, take stats, commit, checkpoint when the
 * WAL asks, tick, and answer one snapshot query; finally finish every
 * tenant and drain the snapshots to `snapDir`.
 */
ServicePass servicePass(const ServiceTenants &tenants, uint64_t rounds,
                        const std::string &stateDir,
                        const std::string &snapDir, Lane *lane);

/**
 * The reference profile of a tenant that was sent `frames` frames
 * (cycling its pool): the profiler fed those events, each closed
 * interval written to `outPath` — what `mhprof_run` writes for the
 * same events. Also returns every interval snapshot when asked.
 */
bool tenantReference(const ServiceTenants &tenants, size_t tenant,
                     uint64_t frames, const std::string &outPath,
                     std::vector<mhp::IntervalSnapshot> *snapshots);

/**
 * Profile error of tenant i's first pool pass against the oracle,
 * scored like mhprof_run; oracle and scoring calls are traced.
 */
double tenantErrorPct(const ServiceTenants &tenants, size_t tenant,
                      Lane *lane);

} // namespace ledger

#endif // LEDGER_STAGES_H
