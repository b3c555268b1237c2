/**
 * @file
 * mhprof_faults — sweep soft-error rates through profiler hardware.
 *
 * For each requested fault rate, the tool profiles the same workload
 * with the paper's best single-hash (sh) and best multi-hash (mh4, C1)
 * configurations while a FaultInjector flips bits in their counter and
 * accumulator state, then reports how the weighted error (formula (1),
 * Section 5.5) degrades. The conservative-update multi-hash design
 * spreads each tuple over several counters, so a single flipped bit
 * perturbs a minimum-of-four rather than the only copy — this tool
 * quantifies that robustness edge. Examples:
 *
 *   mhprof_faults --benchmark=gcc --rates=0,1e-5,1e-4,1e-3
 *   mhprof_faults --trace=run.mht --rates=0,1e-4
 *
 * Every configuration x rate cell pulls chunks from its own
 * StreamCursor: workloads stage through one reused O(chunk) buffer,
 * and a recorded trace is mapped once and shared zero-copy by every
 * cell — no cell materializes its own copy of the trace.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/error_metrics.h"
#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "sim/fault_injector.h"
#include "support/cli.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "workload/benchmarks.h"

namespace {

using namespace mhp;

/** Parse a comma-separated rate list ("0,1e-5,1e-4"). */
Status
parseRates(const std::string &spec, std::vector<double> &rates)
{
    size_t pos = 0;
    while (pos <= spec.size()) {
        const size_t comma = spec.find(',', pos);
        const std::string item =
            spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        char *end = nullptr;
        const double rate = std::strtod(item.c_str(), &end);
        if (item.empty() || end == nullptr || *end != '\0')
            return Status::invalidArgument(
                "--rates entry \"" + item + "\" is not a number");
        if (rate < 0.0 || rate > 1.0)
            return Status::invalidArgument(
                "--rates entry \"" + item + "\" outside [0, 1]");
        rates.push_back(rate);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return Status::ok();
}

/**
 * Profile one stream under fault injection at one rate and return the
 * average weighted error (percent) over the completed intervals. The
 * cursor is pulled chunk by chunk — a mapped trace serves views, a
 * workload stages into the cursor's one reused buffer — so the cell
 * never holds more than O(chunk) of events. A trailing partial
 * interval (finite trace) is discarded, like every interval runner.
 */
double
faultedErrorPercent(StreamCursor &stream, const ProfilerConfig &cfg,
                    uint64_t intervals, double rate, uint64_t faultSeed,
                    uint64_t chunk)
{
    auto hardware = makeProfiler(cfg);
    PerfectProfiler perfect(cfg.thresholdCount(), cfg.intervalLength);
    FaultInjector injector({.faultsPerEvent = rate, .seed = faultSeed});
    injector.attach(*hardware);

    double errorSum = 0.0;
    uint64_t completed = 0;
    for (uint64_t iv = 0; iv < intervals; ++iv) {
        uint64_t remaining = cfg.intervalLength;
        while (remaining > 0) {
            const TupleSpan batch = stream.take(
                static_cast<size_t>(std::min(remaining, chunk)));
            if (batch.empty())
                break; // stream ran dry
            hardware->onEvents(batch.data(), batch.size());
            perfect.onEvents(batch.data(), batch.size());
            // Faults accrue with event flow, interleaved at chunk
            // granularity (the injector's stream is split-invariant).
            injector.advance(batch.size());
            remaining -= batch.size();
        }
        if (remaining > 0)
            break; // discard the partial interval
        const IntervalSnapshot snap = hardware->endInterval();
        errorSum += scoreInterval(perfect, snap).breakdown.total();
        perfect.reset();
        ++completed;
    }
    return completed > 0 ? 100.0 * errorSum / double(completed) : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mhp;

    CliParser cli("sweep soft-error rates through single- and "
                  "multi-hash profilers and report error degradation "
                  "(exit codes: 0 ok, 1 error)");
    cli.addString("benchmark", "gcc", "suite benchmark to profile");
    cli.addBool("edges", false, "use the edge model");
    cli.addString("trace", "",
                  "input .mht trace (instead of a benchmark model)");
    cli.addInt("intervals", 10, "profile intervals per cell");
    cli.addInt("interval-length", 10'000, "events per interval");
    cli.addDouble("threshold", 1.0, "candidate threshold in percent");
    cli.addInt("entries", 2048, "total hash-table entries");
    cli.addString("rates", "0,1e-6,1e-5,1e-4,1e-3",
                  "comma-separated faults-per-event rates");
    cli.addInt("seed", 1, "workload seed");
    cli.addInt("fault-seed", 99, "fault stream seed");
    cli.addInt("chunk", 256, "events between fault-injection points");
    cli.parse(argc, argv);

    if (cli.getInt("intervals") < 1 || cli.getInt("chunk") < 1) {
        std::fprintf(stderr,
                     "mhprof_faults: --intervals and --chunk must be "
                     ">= 1\n");
        return 1;
    }
    const std::string benchmark = cli.getString("benchmark");
    const std::string tracePath = cli.getString("trace");
    if (tracePath.empty() && !isBenchmarkName(benchmark)) {
        std::fprintf(stderr,
                     "mhprof_faults: unknown benchmark \"%s\"\n",
                     benchmark.c_str());
        return 1;
    }
    std::vector<double> rates;
    if (const Status bad = parseRates(cli.getString("rates"), rates);
        !bad.isOk()) {
        std::fprintf(stderr, "mhprof_faults: %s\n",
                     bad.toString().c_str());
        return 1;
    }

    const uint64_t intervalLength =
        static_cast<uint64_t>(cli.getInt("interval-length"));
    const double threshold = cli.getDouble("threshold") / 100.0;
    ProfilerConfig single =
        bestSingleHashConfig(intervalLength, threshold);
    ProfilerConfig multi = bestMultiHashConfig(intervalLength, threshold);
    single.totalHashEntries = multi.totalHashEntries =
        static_cast<uint64_t>(cli.getInt("entries"));
    for (const ProfilerConfig *cfg : {&single, &multi}) {
        if (const Status bad = cfg->checkAtEdge(); !bad.isOk()) {
            std::fprintf(stderr, "mhprof_faults: %s\n",
                         bad.toString().c_str());
            return 1;
        }
    }

    const uint64_t intervals =
        static_cast<uint64_t>(cli.getInt("intervals"));
    const bool edges = cli.getBool("edges");
    const uint64_t workloadSeed =
        static_cast<uint64_t>(cli.getInt("seed"));
    const uint64_t faultSeed =
        static_cast<uint64_t>(cli.getInt("fault-seed"));
    const uint64_t chunk = static_cast<uint64_t>(cli.getInt("chunk"));

    // A recorded trace is mapped once, up front; every cell then
    // replays the same immutable mapping through its own cursor. If
    // the mapping itself fails (address-space cap), cells fall back to
    // reopening the buffered reader — still O(chunk) per cell.
    std::shared_ptr<const TraceMap> map;
    bool bufferedTrace = false;
    if (!tracePath.empty()) {
        auto mapped = TraceMap::open(tracePath);
        if (mapped.isOk()) {
            map = std::move(*mapped);
        } else if (mapped.status().code() == StatusCode::IoError) {
            bufferedTrace = true;
        } else {
            std::fprintf(stderr, "mhprof_faults: %s\n",
                         mapped.status().toString().c_str());
            return 1;
        }
    }

    // Evaluate one configuration x rate cell over a fresh cursor.
    auto cellError = [&](const ProfilerConfig &cfg,
                         double rate) -> StatusOr<double> {
        std::unique_ptr<EventSource> source;
        std::unique_ptr<StreamCursor> cursor;
        if (map) {
            cursor = std::make_unique<TraceMapSource>(map);
        } else if (bufferedTrace) {
            auto opened = TraceReader::open(tracePath);
            if (!opened.isOk())
                return opened.status();
            source = std::move(*opened);
            cursor = std::make_unique<EventSourceCursor>(
                *source, static_cast<size_t>(chunk));
        } else {
            if (edges)
                source = makeEdgeWorkload(benchmark, workloadSeed);
            else
                source = makeValueWorkload(benchmark, workloadSeed);
            cursor = std::make_unique<EventSourceCursor>(
                *source, static_cast<size_t>(chunk));
        }
        return faultedErrorPercent(*cursor, cfg, intervals, rate,
                                   faultSeed, chunk);
    };

    std::printf("# %s %s, %llu intervals x %llu events, threshold "
                "%.2f%%, %llu entries\n",
                tracePath.empty() ? benchmark.c_str()
                                  : tracePath.c_str(),
                tracePath.empty() ? (edges ? "edges" : "values")
                                  : "trace",
                static_cast<unsigned long long>(intervals),
                static_cast<unsigned long long>(intervalLength),
                100.0 * threshold,
                static_cast<unsigned long long>(
                    multi.totalHashEntries));
    std::printf("%-12s %14s %14s\n", "faults/event", "sh error %",
                "mh4-C1 error %");
    for (const double rate : rates) {
        const StatusOr<double> shError = cellError(single, rate);
        if (!shError.isOk()) {
            std::fprintf(stderr, "mhprof_faults: %s\n",
                         shError.status().toString().c_str());
            return 1;
        }
        const StatusOr<double> mhError = cellError(multi, rate);
        if (!mhError.isOk()) {
            std::fprintf(stderr, "mhprof_faults: %s\n",
                         mhError.status().toString().c_str());
            return 1;
        }
        std::printf("%-12g %14.3f %14.3f\n", rate, *shError, *mhError);
    }
    return 0;
}
