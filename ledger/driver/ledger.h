/**
 * @file
 * Shared types of the ledger driver: run options, the result record
 * every workload fills, statistics helpers, and child-process and
 * file utilities.
 */

#ifndef LEDGER_LEDGER_H
#define LEDGER_LEDGER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace ledger {

/** Command-line options of one driver invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string toolsDir; ///< directory holding mhprof_run & co.
    std::string workDir;  ///< scratch directory of this run
    std::string spansPath;
    unsigned threads = 4; ///< load threads (at most nproc)
};

/** One reported metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** What a workload run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;

    /** Provenance and output digests, printed as one JSON object. */
    std::map<std::string, std::string> info;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Record a number in the provenance line rather than as a metric. */
    void note(const std::string &name, double value);

    /** Record an output or accounting mismatch (fails the run). */
    void mismatch(const std::string &what);

    /** Count `n` failed operations (also fails the run). */
    void failOps(uint64_t n, const std::string &what);
};

double median(std::vector<double> values);

/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> values, double q);

/** Seconds on the monotonic clock. */
double nowS();

/** FNV-1a digest of a whole file; false when unreadable. */
bool fileDigest(const std::string &path, uint64_t &digest);

std::string hex64(uint64_t v);

/** Outcome of one child process. */
struct ChildResult
{
    int exitCode = -1; ///< 128+N when killed by signal N
    double wallS = 0;
    double maxRssMb = 0;
    std::string out; ///< captured stdout
};

/**
 * Run argv[0] (a path) to completion with stdout and stderr in
 * `logBase`.out / .err; stdout is returned too. Wall time spans spawn
 * to reap; peak RSS comes from the child's rusage.
 */
ChildResult runChild(const std::vector<std::string> &argv,
                     const std::string &logBase);

/** Spawn a long-running child with stdout/stderr to files. */
int spawnChild(const std::vector<std::string> &argv,
               const std::string &cwd, const std::string &outPath,
               const std::string &errPath);

/** Reap `pid` (blocking); fills exit code and peak RSS. */
void reapChild(int pid, ChildResult &result);

/** Remove a directory tree (ignores errors). */
void removeTree(const std::string &path);

/** Create a directory and its parents; false on failure. */
bool makeDirs(const std::string &path);

// Workload entry points (untraced end-to-end runs).
Result runScored(const Options &options);
Result runSweep(const Options &options);
Result runService(const Options &options);

// The traced run: every layer, with the workload's own path as the
// main stage.
Result runTraced(const Options &options);

} // namespace ledger

#endif // LEDGER_LEDGER_H
