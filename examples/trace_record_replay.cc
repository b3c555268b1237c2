/**
 * @file
 * Tooling demo: record a workload to a .mht trace file, then replay it
 * through two different profiler configurations and compare them on
 * exactly the same input — the workflow for tuning profiler
 * parameters offline (the role ATOM trace files played for the paper).
 */

#include <cstdio>
#include <string>

#include "analysis/interval_runner.h"
#include "core/factory.h"
#include "support/cli.h"
#include "trace/trace_io.h"
#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace mhp;

    CliParser cli("record a trace, replay through two configurations");
    cli.addString("benchmark", "gcc", "workload model to record");
    cli.addString("trace", "/tmp/mhprof_example.mht", "trace path");
    cli.addInt("intervals", 5, "intervals of 10K events to record");
    cli.parse(argc, argv);

    const std::string path = cli.getString("trace");
    const auto intervals =
        static_cast<uint64_t>(cli.getInt("intervals"));
    const uint64_t interval_length = 10'000;

    // Record.
    {
        auto workload = makeValueWorkload(cli.getString("benchmark"));
        TraceWriter writer(path, ProfileKind::Value);
        if (!writer.ok()) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        pump(*workload, writer, intervals * interval_length);
        if (const Status bad = writer.close(); !bad.isOk()) {
            std::fprintf(stderr, "%s\n", bad.toString().c_str());
            return 1;
        }
        std::printf("recorded %llu events to %s\n",
                    static_cast<unsigned long long>(
                        writer.eventsWritten()),
                    path.c_str());
    }

    // Replay through two configurations on the identical stream.
    auto replay = [&](const ProfilerConfig &cfg) {
        auto reader = TraceReader::open(path);
        if (!reader.isOk()) {
            std::fprintf(stderr, "%s\n",
                         reader.status().toString().c_str());
            std::exit(1);
        }
        auto profiler = makeProfiler(cfg);
        EventSourceCursor cursor(**reader);
        const RunOutput out =
            runIntervalsStream(cursor, {profiler.get()}, interval_length,
                               cfg.thresholdCount(), intervals);
        std::printf("  %-10s error %.2f%% (FP %.2f%%, FN %.2f%%), "
                    "%.1f candidates/interval\n",
                    profiler->name().c_str(),
                    out.results[0].averageErrorPercent(),
                    100.0 * out.results[0].averageError().falsePositive,
                    100.0 * out.results[0].averageError().falseNegative,
                    out.results[0].meanHardwareCandidates());
    };

    std::printf("\nreplaying the same trace through both designs:\n");
    replay(bestSingleHashConfig(interval_length, 0.01));
    replay(bestMultiHashConfig(interval_length, 0.01));

    std::printf("\nSame input, different hardware: the multi-hash "
                "design's advantage is\nisolated from workload "
                "variance because both replays saw every event.\n");
    return 0;
}
