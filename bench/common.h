/**
 * @file
 * Shared plumbing for the figure-reproduction bench binaries.
 *
 * Every bench prints: a header naming the paper figure it regenerates,
 * the experiment parameters (after MHP_SCALE), and its result table.
 * runSuiteConfigs() is the common "one stream, many profiler
 * configurations" driver used by Figures 7 and 10-14 and the
 * ablations.
 */

#ifndef MHPROF_BENCH_COMMON_H
#define MHPROF_BENCH_COMMON_H

#include <memory>
#include <string>
#include <vector>

#include "analysis/interval_runner.h"
#include "core/config.h"
#include "core/profiler.h"
#include "support/table_printer.h"
#include "trace/source.h"

namespace mhp {
namespace bench {

/** Print the standard bench banner. */
void banner(const std::string &figure, const std::string &what);

/**
 * The kernel's current wall-clock source (e.g. "tsc", "hpet",
 * "arch_sys_counter"), read from sysfs; "unknown" when unreadable.
 * A non-TSC clocksource makes fine-grained timings untrustworthy, so
 * the ledger records this next to its timings.
 */
std::string clockSource();

/**
 * The cpufreq scaling governor of cpu0 ("performance", "powersave",
 * ...), or "none" when the platform exposes no cpufreq (fixed-clock
 * VMs); "unknown" when unreadable. Anything other than
 * "performance"/"none" means results can wobble with clock scaling.
 */
std::string cpuScalingGovernor();

/** Intervals to run after MHP_SCALE (default baseIntervals). */
uint64_t scaledIntervals(uint64_t baseIntervals);

/** A labelled profiler configuration in a sweep. */
struct LabelledConfig
{
    std::string label;
    ProfilerConfig config;
};

/** One row of a sweep result. */
struct SweepRow
{
    std::string benchmark;
    std::string label;
    ErrorBreakdown error; ///< averaged over intervals, as fractions
    double hardwareCandidates = 0.0;
    double perfectCandidates = 0.0;
};

/**
 * Run every config against every named benchmark's value (or edge)
 * stream through the sweep engine, which generates each benchmark's
 * stream once for all configs that share its interval length and
 * threshold. Output order is fixed, so the result is identical to
 * the serial loop. Returns one row vector per benchmark, in input
 * order, one row per config.
 */
std::vector<std::vector<SweepRow>> runSuiteConfigs(
    const std::vector<std::string> &benchmarks, bool edges,
    const std::vector<LabelledConfig> &configs, uint64_t intervals);

/** Append sweep rows to a table with the standard error columns. */
void addErrorRows(TablePrinter &table,
                  const std::vector<SweepRow> &rows);

/** The standard error-table header. */
std::vector<std::string> errorHeader();

/**
 * If MHP_CSV_DIR is set, also dump a table as CSV into that directory
 * (file <name>.csv); otherwise do nothing. Lets users replot figures
 * without parsing the text tables.
 */
void maybeWriteCsv(const std::string &name, const TablePrinter &table);

/** The four P/R single-hash configurations of Figure 7. */
std::vector<LabelledConfig>
singleHashPrSweep(uint64_t intervalLength, double threshold);

/** The C/R multi-hash design space of Figures 10/11. */
std::vector<LabelledConfig>
multiHashCrSweep(uint64_t intervalLength, double threshold,
                 const std::vector<unsigned> &tableCounts);

/** BSH + multi-hash table-count sweep of Figures 12/14. */
std::vector<LabelledConfig>
bestConfigSweep(uint64_t intervalLength, double threshold,
                const std::vector<unsigned> &tableCounts);

} // namespace bench
} // namespace mhp

#endif // MHPROF_BENCH_COMMON_H
