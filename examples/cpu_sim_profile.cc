/**
 * @file
 * End-to-end demo: profile an actually-executing program.
 *
 * A random structured program is generated for the mini-CPU, executed
 * by the interpreter, and its instrumentation hooks (ATOM-style) feed
 * the Multi-Hash profiler — the full pipeline the paper's methodology
 * used, with the mini-CPU standing in for an Alpha under ATOM.
 */

#include <cstdio>

#include "analysis/interval_runner.h"
#include "core/factory.h"
#include "sim/codegen.h"
#include "sim/machine.h"
#include "sim/probes.h"
#include "support/cli.h"
#include "trace/event_class.h"

int
main(int argc, char **argv)
{
    using namespace mhp;

    CliParser cli("profile a program running on the mini-CPU");
    cli.addInt("seed", 2023, "program-generator seed");
    cli.addInt("intervals", 5, "profile intervals (10K events each)");
    cli.addBool("edges", false, "edge-profile instead of value-profile");
    cli.parse(argc, argv);

    // Generate and load a program.
    CodegenConfig gen;
    gen.seed = static_cast<uint64_t>(cli.getInt("seed"));
    gen.numFunctions = 10;
    gen.numArrays = 6;
    gen.arrayLen = 512;
    const Program program = generateProgram(gen);
    Machine machine(program, 1 << 16);
    std::printf("generated program: %zu instructions, %zu data words\n",
                program.code.size(), program.dataInit.size());

    // Attach the requested probe and the profiler.
    const ProfilerConfig config = bestMultiHashConfig(10'000, 0.01);
    auto profiler = makeProfiler(config);
    const auto intervals =
        static_cast<uint64_t>(cli.getInt("intervals"));

    std::unique_ptr<EventSource> probe;
    if (cli.getBool("edges"))
        probe = std::make_unique<EdgeProbe>(machine);
    else
        probe = std::make_unique<ValueProbe>(machine);
    std::printf("profiling %s events through %s (%llu bytes of "
                "hardware)\n\n",
                profileKindName(probe->kind()),
                profiler->name().c_str(),
                static_cast<unsigned long long>(profiler->areaBytes()));

    // Score against the perfect profiler as the paper does.
    EventSourceCursor cursor(*probe);
    const RunOutput out =
        runIntervalsStream(cursor, {profiler.get()}, config.intervalLength,
                           config.thresholdCount(), intervals);

    for (size_t iv = 0; iv < out.results[0].intervals.size(); ++iv) {
        const IntervalScore &s = out.results[0].intervals[iv];
        std::printf("interval %zu: %llu true candidates, %llu "
                    "captured, error %.2f%%\n",
                    iv,
                    static_cast<unsigned long long>(
                        s.perfectCandidates),
                    static_cast<unsigned long long>(
                        s.hardwareCandidates),
                    100.0 * s.breakdown.total());
    }
    std::printf("\nmachine executed %llu instructions; average error "
                "%.2f%%\n",
                static_cast<unsigned long long>(
                    machine.instructionsExecuted()),
                out.results[0].averageErrorPercent());
    return 0;
}
