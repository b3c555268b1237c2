/**
 * @file
 * mhprof_run — profile a workload or trace file and write a .mhp
 * profile.
 *
 * Input is one of:
 *   --benchmark <name>    a calibrated suite model (value, edge, or
 *                         path — pick with --kind);
 *   --trace <file.mht>    a recorded tuple trace.
 *
 * The profiler configuration mirrors the paper's knobs. Example:
 *
 *   mhprof_run --benchmark=gcc --intervals=20 --out=gcc.mhp
 *   mhprof_run --trace=run.mht --tables=1 --reset --out=bsh.mhp
 *
 * To sweep a configuration across interval lengths, use
 * mhprof_coord (--serial for the in-process sweep).
 *
 * Exit codes (see docs/ROBUSTNESS.md): 0 success; 1 usage error,
 * invalid profiler config, unreadable/corrupt input, or write
 * failure.
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "analysis/interval_runner.h"
#include "analysis/profile_io.h"
#include "core/factory.h"
#include "profiler_flags.h"
#include "support/cli.h"
#include "support/cpu.h"
#include "support/failpoint.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "workload/benchmarks.h"

int
main(int argc, char **argv)
{
    using namespace mhp;

    CliParser cli("profile a workload/trace with a hardware profiler "
                  "model and write a .mhp profile (exit codes: 0 ok, "
                  "1 error)");
    cli.addString("benchmark", "", "suite benchmark to profile");
    addKindFlags(cli);
    cli.addString("trace", "", "input .mht trace (instead of a model)");
    cli.addString("out", "profile.mhp", "output .mhp path");
    cli.addInt("intervals", 10, "profile intervals to run");
    addProfilerFlags(cli);
    cli.addInt("seed", 1, "workload seed");
    cli.addInt("threads", 0,
               "worker threads for ingest and scoring of a mapped "
               "trace (0 = auto); same output for every value");
    cli.addString("failpoints", "",
                  "failpoint spec, e.g. profile.write.enospc=2 "
                  "(see docs/ROBUSTNESS.md)");
    cli.addInt("failpoint-seed", 0, "seed for probabilistic failpoints");
    cli.addString("isa", "",
                  "pin the ingest-kernel ISA tier "
                  "(scalar|avx512; default: auto-detect)");
    cli.parse(argc, argv);

    if (const std::string isa = cli.getString("isa"); !isa.empty()) {
        const std::optional<IsaTier> tier = parseIsaTier(isa);
        if (!tier) {
            std::fprintf(stderr,
                         "mhprof_run: --isa=%s not recognized "
                         "(scalar|avx512)\n",
                         isa.c_str());
            return 1;
        }
        if (!isaTierSupported(*tier)) {
            std::fprintf(stderr,
                         "mhprof_run: --isa=%s unsupported on this "
                         "CPU\n",
                         isa.c_str());
            return 2;
        }
        setIsaTierForTesting(*tier);
    }

    if (cli.getInt("intervals") < 0 || cli.getInt("threads") < 0) {
        std::fprintf(stderr, "--intervals and --threads must be >= 0\n");
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
            std::fprintf(stderr, "mhprof_run: %s\n",
                         bad.toString().c_str());
            return 1;
        }
    }

    const StatusOr<ProfilerConfig> flags = profilerConfigFromFlags(cli);
    if (!flags.isOk()) {
        std::fprintf(stderr, "mhprof_run: %s\n",
                     flags.status().toString().c_str());
        return 1;
    }
    const ProfilerConfig &cfg = *flags;

    // Trace input prefers the zero-copy mapping; when mmap itself
    // fails (typically an address-space cap smaller than the trace)
    // fall back to the buffered reader, which replays the same bytes
    // in O(64 KiB) memory. Corrupt or missing traces fail either way.
    std::shared_ptr<const TraceMap> map;
    std::unique_ptr<EventSource> source;
    const std::string bench = cli.getString("benchmark");
    const std::string trace = cli.getString("trace");
    if (!trace.empty()) {
        auto mapped = TraceMap::open(trace);
        if (mapped.isOk()) {
            map = std::move(*mapped);
        } else if (mapped.status().code() != StatusCode::IoError) {
            std::fprintf(stderr, "mhprof_run: %s\n",
                         mapped.status().toString().c_str());
            return 1;
        } else {
            std::fprintf(stderr, "mhprof_run: note: %s\n",
                         mapped.status().toString().c_str());
            auto opened = TraceReader::open(trace);
            if (!opened.isOk()) {
                std::fprintf(stderr, "mhprof_run: %s\n",
                             opened.status().toString().c_str());
                return 1;
            }
            source = std::move(*opened);
        }
    } else if (isBenchmarkName(bench)) {
        const StatusOr<ProfileKind> kind = workloadKindFromFlags(cli);
        if (!kind.isOk()) {
            std::fprintf(stderr, "mhprof_run: %s\n",
                         kind.status().toString().c_str());
            return 1;
        }
        const uint64_t seed =
            static_cast<uint64_t>(cli.getInt("seed"));
        switch (*kind) {
        case ProfileKind::Edge:
            source = makeEdgeWorkload(bench, seed);
            break;
        case ProfileKind::Path:
            source = makePathWorkload(bench, seed);
            break;
        default:
            source = makeValueWorkload(bench, seed);
            break;
        }
    } else {
        std::fprintf(stderr,
                     "need --trace=<file> or --benchmark=<one of:");
        for (const auto &n : benchmarkNames())
            std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, ">\n");
        return 1;
    }

    auto profiler = makeProfiler(cfg);
    ProfileWriter writer(cli.getString("out"),
                         map ? map->kind() : source->kind(),
                         cfg.intervalLength, cfg.thresholdCount());
    if (!writer.ok()) {
        std::fprintf(stderr, "cannot write %s\n",
                     cli.getString("out").c_str());
        return 1;
    }

    // Run against the perfect profiler so the summary includes error.
    // The input picks the runner: a trace mapped zero-copy is already
    // one span, so the span runner ingests and scores it on --threads
    // workers with no copy; workload models, the buffered-reader
    // fallback and byte-swapping maps stream through an O(batch)
    // cursor. Both runners write the same bytes.
    const uint64_t numIntervals =
        static_cast<uint64_t>(cli.getInt("intervals"));
    RunOutput out;
    if (map && TraceMap::zeroCopy()) {
        BatchedRunOptions options;
        options.threads = static_cast<unsigned>(cli.getInt("threads"));
        options.keepSnapshots = true;
        out = runIntervalsSpan(*map->span(), {profiler.get()},
                               cfg.intervalLength, cfg.thresholdCount(),
                               numIntervals, options);
    } else {
        StreamRunOptions options;
        options.keepSnapshots = true;
        std::unique_ptr<StreamCursor> cursor;
        if (map)
            cursor = std::make_unique<TraceMapSource>(map);
        else
            cursor = std::make_unique<EventSourceCursor>(
                *source, static_cast<size_t>(options.batchSize));
        out = runIntervalsStream(*cursor, {profiler.get()},
                                 cfg.intervalLength,
                                 cfg.thresholdCount(), numIntervals,
                                 options);
    }
    for (const IntervalSnapshot &snap : out.snapshots[0]) {
        if (const Status bad = writer.writeInterval(snap);
            !bad.isOk()) {
            std::fprintf(stderr, "mhprof_run: %s\n",
                         bad.toString().c_str());
            return 1;
        }
    }

    if (const Status bad = writer.close(); !bad.isOk()) {
        std::fprintf(stderr, "mhprof_run: %s\n", bad.toString().c_str());
        return 1;
    }

    std::printf("%s: %llu intervals, %s, avg error %.2f%%, %.1f "
                "candidates/interval -> %s\n",
                profiler->name().c_str(),
                static_cast<unsigned long long>(out.intervalsCompleted),
                cfg.describe().c_str(),
                out.results[0].averageErrorPercent(),
                out.results[0].meanHardwareCandidates(),
                cli.getString("out").c_str());
    return 0;
}
