/**
 * @file
 * Section 4.2 baseline: the Stratified Sampler (Sastry et al.) versus
 * the paper's hardware-only profilers. Reports, per benchmark:
 *
 *  - the baseline's interval error (plain and tagged variants);
 *  - its software cost: messages and OS interrupts per 1M events
 *    (the overhead the paper's design eliminates — Sastry et al.
 *    report ~5% run-time overhead from this path);
 *  - the best multi-hash profiler's error at the same area budget,
 *    with zero software interaction.
 */

#include <cstdio>
#include <iostream>

#include "analysis/interval_runner.h"
#include "common.h"
#include "core/factory.h"
#include "core/hotspot_detector.h"
#include "core/query_coprocessor.h"
#include "core/sampling_profiler.h"
#include "core/stratified_sampler.h"
#include "core/value_table_profiler.h"
#include "support/table_printer.h"
#include "workload/benchmarks.h"

int
main()
{
    using namespace mhp;
    bench::banner("Baseline",
                  "stratified sampler vs hardware-only multi-hash");

    const uint64_t interval_length = 10'000;
    const uint64_t threshold = 100; // 1%
    const uint64_t intervals = bench::scaledIntervals(30);

    TablePrinter table({"benchmark", "profiler", "total-err%",
                        "area-KB", "msgs/1M-events",
                        "interrupts/1M-events"});

    for (const auto &name : benchmarkNames()) {
        StratifiedSamplerConfig plain_cfg;
        plain_cfg.entries = 2048;
        plain_cfg.samplingThreshold = 32;
        auto tagged_cfg = plain_cfg;
        tagged_cfg.tagged = true;

        StratifiedSampler plain(plain_cfg, threshold);
        StratifiedSampler tagged(tagged_cfg, threshold);
        // DCPI-class periodic sampler (Section 4.1.2).
        SamplingProfiler sampler(32, threshold);
        // Merten-class tagged table profiler (Section 4.1.3).
        HotSpotConfig hs_cfg;
        hs_cfg.entries = 1024; // ~same area ballpark as 2K counters
        HotSpotDetector hotspot(hs_cfg, threshold);
        // Calder-class per-PC value table (Section 4.1.1),
        // area-equalized with mh4 (~7 KB): 128 PCs x 55 B. Note the
        // TVPT stores full tags AND full 64-bit values per slot, and
        // only answers value-profiling queries; the multi-hash gets
        // the same area out of untagged 3-byte counters and is
        // event-type agnostic.
        ValueTableConfig vt_cfg;
        vt_cfg.pcEntries = 128;
        vt_cfg.valuesPerPc = 4;
        ValueTableProfiler tvpt(vt_cfg, threshold);
        // Zilles-class programmable co-processor (Section 4.1.4):
        // count-all query, half the event bandwidth.
        CoprocessorConfig cp_cfg;
        cp_cfg.queueEntries = 64;
        cp_cfg.processRate = 0.5;
        QueryCoprocessor coproc(cp_cfg, threshold);
        auto multihash =
            makeProfiler(bestMultiHashConfig(interval_length, 0.01));

        auto workload = makeValueWorkload(name);
        EventSourceCursor cursor(*workload);
        const RunOutput out = runIntervalsStream(
            cursor,
            {&plain, &tagged, &sampler, &hotspot, &tvpt, &coproc,
             multihash.get()},
            interval_length, threshold, intervals);

        const double events =
            static_cast<double>(out.eventsConsumed) / 1e6;
        auto addRow = [&](const char *label, size_t idx,
                          const HardwareProfiler &hw, double msgs,
                          double irqs) {
            table.addRow(
                {name, label,
                 TablePrinter::num(
                     out.results[idx].averageErrorPercent(), 2),
                 TablePrinter::num(
                     static_cast<double>(hw.areaBytes()) / 1024.0, 1),
                 TablePrinter::num(msgs / events, 0),
                 TablePrinter::num(irqs / events, 1)});
        };
        addRow("stratified", 0, plain,
               static_cast<double>(plain.messagesSent()),
               static_cast<double>(plain.interrupts()));
        addRow("stratified-tagged", 1, tagged,
               static_cast<double>(tagged.messagesSent()),
               static_cast<double>(tagged.interrupts()));
        // Every periodic sample interrupts-or-buffers to software;
        // charge one message per sample.
        addRow("periodic-sampler", 2, sampler,
               static_cast<double>(sampler.samplesTaken()),
               static_cast<double>(sampler.samplesTaken()) / 100.0);
        addRow("merten-hotspot", 3, hotspot, 0.0, 0.0);
        addRow("calder-tvpt", 4, tvpt, 0.0, 0.0);
        // The co-processor's per-event processing is software-like
        // work; charge its processed events as messages.
        addRow("zilles-coproc", 5, coproc,
               static_cast<double>(coproc.processed()), 0.0);
        addRow("mh4-C1R0 (hw only)", 6, *multihash, 0.0, 0.0);
    }
    table.print(std::cout);
    mhp::bench::maybeWriteCsv("baseline_stratified", table);
    std::printf("\nClaim check: the multi-hash profiler needs zero "
                "messages/interrupts\nwhile matching or beating the "
                "baseline's accuracy.\n");
    return 0;
}
