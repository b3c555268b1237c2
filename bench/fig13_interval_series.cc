/**
 * @file
 * Figure 13: per-interval error across execution, 1M interval @ 0.1%,
 * 2K entries, retaining on: best single-hash with resetting (left
 * panel) versus the best multi-hash (4 tables, C1, R0; right panel).
 *
 * Shape claims: the multi-hash profiler removes most error spikes
 * (especially gcc's early-execution spikes); a burg-style spike can
 * remain under conservative update without resetting.
 */

#include <cstdio>
#include <iostream>

#include "analysis/interval_runner.h"
#include "common.h"
#include "core/factory.h"
#include "support/parallel.h"
#include "support/table_printer.h"
#include "workload/benchmarks.h"

namespace {

void
runPanel(const mhp::ProfilerConfig &cfg, uint64_t intervals,
         const char *label)
{
    using namespace mhp;
    std::printf("--- %s ---\n", label);
    TablePrinter table([&] {
        std::vector<std::string> header{"cycle"};
        for (const auto &name : benchmarkNames())
            header.push_back(name);
        return header;
    }());

    // One column per benchmark: collect each series (benchmarks are
    // independent, so they run on worker threads).
    const auto &names = benchmarkNames();
    std::vector<std::vector<double>> series(names.size());
    parallelFor(names.size(), [&](size_t i) {
        auto workload = makeValueWorkload(names[i]);
        auto profiler = makeProfiler(cfg);
        const RunOutput out =
            runIntervals(*workload, {profiler.get()}, cfg.intervalLength,
                         cfg.thresholdCount(), intervals);
        std::vector<double> errs;
        for (const auto &score : out.results[0].intervals)
            errs.push_back(score.breakdown.total() * 100.0);
        series[i] = std::move(errs);
    });

    for (uint64_t iv = 0; iv < intervals; ++iv) {
        std::vector<std::string> row{std::to_string(iv)};
        for (const auto &s : series) {
            row.push_back(iv < s.size() ? TablePrinter::num(s[iv], 1)
                                        : "-");
        }
        table.addRow(row);
    }
    table.print(std::cout);
    mhp::bench::maybeWriteCsv(
        std::string("fig13_series_") +
            (cfg.numHashTables == 1 ? "bsh" : "mh4"),
        table);
    std::printf("\n");
}

} // namespace

int
main()
{
    using namespace mhp;
    bench::banner("Figure 13",
                  "per-interval error, 1M @ 0.1% (profile cycles)");
    const uint64_t intervals = bench::scaledIntervals(12);

    runPanel(bestSingleHashConfig(1'000'000, 0.001), intervals,
             "left panel: best single hash (R1,P1)");
    runPanel(bestMultiHashConfig(1'000'000, 0.001), intervals,
             "right panel: best multi-hash (4 tables, C1,R0,P1)");

    std::printf("Shape check: the multi-hash panel has far fewer and "
                "smaller spikes\n(gcc's early intervals especially); "
                "a rare burg spike may remain.\n");
    return 0;
}
