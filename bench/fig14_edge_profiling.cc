/**
 * @file
 * Figure 14: the best multi-hash profiler applied to EDGE profiling —
 * BSH vs 1/2/4/8 tables (C1, R0), 2K entries, for both paper interval
 * configurations. Shape claim: the value-profiling conclusions carry
 * over; 4 tables significantly outperforms the alternatives.
 *
 * An extra "cfg-walk" row repeats the sweep on a correlated CFG
 * random-walk stream (edges arrive in loop runs, not i.i.d. draws) as
 * a structural realism check.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "analysis/interval_runner.h"
#include "common.h"
#include "core/factory.h"
#include "support/table_printer.h"
#include "workload/benchmarks.h"
#include "workload/cfg_walk_workload.h"

namespace {

/** The same sweep on a correlated CFG-random-walk edge stream. */
std::vector<mhp::bench::SweepRow>
runCfgWalk(const std::vector<mhp::bench::LabelledConfig> &configs,
           uint64_t intervalLength, uint64_t threshold,
           uint64_t intervals)
{
    using namespace mhp;
    CfgWalkConfig wcfg;
    wcfg.seed = 17;
    wcfg.nodes = 1500;
    CfgWalkWorkload workload(wcfg);

    std::vector<std::unique_ptr<HardwareProfiler>> profilers;
    std::vector<HardwareProfiler *> raw;
    for (const auto &lc : configs) {
        profilers.push_back(makeProfiler(lc.config));
        raw.push_back(profilers.back().get());
    }
    EventSourceCursor cursor(workload);
    const RunOutput out = runIntervalsStream(cursor, raw, intervalLength,
                                             threshold, intervals);
    std::vector<bench::SweepRow> rows;
    for (size_t i = 0; i < configs.size(); ++i) {
        bench::SweepRow row;
        row.benchmark = "cfg-walk";
        row.label = configs[i].label;
        row.error = out.results[i].averageError();
        row.hardwareCandidates =
            out.results[i].meanHardwareCandidates();
        row.perfectCandidates =
            out.results[i].meanPerfectCandidates();
        rows.push_back(row);
    }
    return rows;
}

void
runSetting(uint64_t intervalLength, double threshold,
           uint64_t intervals, const char *label)
{
    using namespace mhp;
    std::printf("--- interval %s ---\n", label);
    const auto configs = bench::bestConfigSweep(intervalLength,
                                                threshold, {1, 2, 4, 8});
    TablePrinter table(bench::errorHeader());
    for (const auto &rows : bench::runSuiteConfigs(
             benchmarkNames(), /*edges=*/true, configs, intervals))
        bench::addErrorRows(table, rows);
    const auto threshold_count = static_cast<uint64_t>(
        static_cast<double>(intervalLength) * threshold);
    bench::addErrorRows(
        table, runCfgWalk(configs, intervalLength,
                          threshold_count == 0 ? 1 : threshold_count,
                          intervals));
    table.print(std::cout);
    mhp::bench::maybeWriteCsv(
        std::string("fig14_edges_") +
            (intervalLength == 10'000 ? "10k" : "1m"),
        table);
    std::printf("\n");
}

} // namespace

int
main()
{
    using namespace mhp;
    bench::banner("Figure 14", "best multi-hash for edge profiling");
    runSetting(10'000, 0.01, bench::scaledIntervals(30), "10K @ 1%");
    runSetting(1'000'000, 0.001, bench::scaledIntervals(4),
               "1M @ 0.1%");
    std::printf("Shape check: same conclusions as value profiling; "
                "edge streams have\nfewer distinct tuples, so errors "
                "are smaller overall.\n");
    return 0;
}
