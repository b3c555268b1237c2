/**
 * @file
 * Ablation: hash-seed sensitivity.
 *
 * The multi-hash design's guarantees are probabilistic over the choice
 * of random tables. A hardware implementation hardwires ONE choice, so
 * the error must be stable across seeds — a design whose accuracy
 * depends on a lucky seed would be unshippable. This sweep runs the
 * best single-hash and multi-hash profilers under 8 different
 * hash-function seeds against identical streams.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "common.h"
#include "core/factory.h"
#include "support/stats.h"
#include "support/table_printer.h"

int
main()
{
    using namespace mhp;
    bench::banner("Ablation: hash-seed sensitivity",
                  "error across 8 random-table seeds, 10K @ 1%");

    const uint64_t intervals = bench::scaledIntervals(20);
    const size_t num_seeds = 8;

    TablePrinter table({"benchmark", "profiler", "mean-err%",
                        "min-err%", "max-err%", "stddev"});

    // Every seed of both designs profiles one shared stream per
    // benchmark: configs [0, 8) are BSH, [8, 16) mh4.
    std::vector<bench::LabelledConfig> configs;
    for (const bool multi : {false, true}) {
        for (size_t s = 0; s < num_seeds; ++s) {
            ProfilerConfig c = multi ? bestMultiHashConfig(10'000, 0.01)
                                     : bestSingleHashConfig(10'000, 0.01);
            c.seed = 0x1000 + s * 7919;
            configs.push_back({multi ? "mh4" : "bsh", c});
        }
    }

    for (const auto &rows : bench::runSuiteConfigs(
             {"gcc", "go", "vortex"}, false, configs, intervals)) {
        for (const bool multi : {false, true}) {
            RunningStats errs;
            for (size_t s = 0; s < num_seeds; ++s)
                errs.add(rows[(multi ? num_seeds : 0) + s]
                             .error.total() *
                         100.0);
            table.addRow({rows[0].benchmark,
                          multi ? "mh4-C1R0" : "BSH(R1P1)",
                          TablePrinter::num(errs.mean(), 3),
                          TablePrinter::num(errs.min(), 3),
                          TablePrinter::num(errs.max(), 3),
                          TablePrinter::num(errs.stddev(), 3)});
        }
    }
    table.print(std::cout);
    mhp::bench::maybeWriteCsv("ablation_seeds", table);
    std::printf("\nClaim check: the multi-hash error is both lower and "
                "tighter across\nseeds than the single-hash error — no "
                "lucky-seed dependence.\n");
    return 0;
}
