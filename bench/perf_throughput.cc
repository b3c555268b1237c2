/**
 * @file
 * google-benchmark microbenchmarks: event throughput of each profiler
 * architecture (events/second a software implementation sustains),
 * per-event vs. batched ingestion, and the cost of the hash function
 * itself. Not a paper figure — the paper's profiler is hardware with
 * zero run-time overhead — but essential for anyone using this library
 * for trace analysis.
 *
 * Unless --benchmark_out is given, results are also written as JSON to
 * BENCH_throughput.json (override the path with MHP_BENCH_JSON) so CI
 * can archive the throughput trajectory. Debug builds refuse that
 * default dump and tag any explicit output "invalid": a debug-build
 * number must never become a comparison baseline (docs/PERF.md). The
 * honest-measurement context keys (mhp_build_type, clock source,
 * scaling governor) are embedded in the JSON so tools/bench_check.py
 * can verify a file's provenance before trusting it.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/interval_runner.h"
#include "common.h"
#include "core/factory.h"
#include "core/hash_function.h"
#include "core/ingest_kernels.h"
#include "core/perfect_profiler.h"
#include "core/stratified_sampler.h"
#include "support/cpu.h"
#include "support/panic.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "trace/transforms.h"
#include "trace/tuple_span.h"
#include "workload/benchmarks.h"

namespace {

using namespace mhp;

/** A reusable pre-generated stream (generation excluded from timing). */
const std::vector<Tuple> &
stream()
{
    static const std::vector<Tuple> tuples = [] {
        auto workload = makeValueWorkload("gcc");
        return collect(*workload, 200'000);
    }();
    return tuples;
}

void
BM_HashFunction(benchmark::State &state)
{
    TupleHasher hasher(1, 2048);
    const auto &tuples = stream();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hasher.index(tuples[i]));
        i = (i + 1) % tuples.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashFunction);

void
BM_Profiler(benchmark::State &state, unsigned numTables,
            uint64_t intervalLength)
{
    ProfilerConfig cfg = bestMultiHashConfig(intervalLength, 0.01);
    cfg.numHashTables = numTables;
    if (numTables == 1) {
        cfg = bestSingleHashConfig(intervalLength, 0.01);
    }
    auto profiler = makeProfiler(cfg);
    const auto &tuples = stream();
    size_t i = 0;
    uint64_t in_interval = 0;
    for (auto _ : state) {
        profiler->onEvent(tuples[i]);
        i = (i + 1) % tuples.size();
        if (++in_interval == cfg.intervalLength) {
            benchmark::DoNotOptimize(profiler->endInterval());
            in_interval = 0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Profiler, single_hash, 1u, 10'000);
BENCHMARK_CAPTURE(BM_Profiler, multi_hash_2, 2u, 10'000);
BENCHMARK_CAPTURE(BM_Profiler, multi_hash_4, 4u, 10'000);
BENCHMARK_CAPTURE(BM_Profiler, multi_hash_8, 8u, 10'000);
// Figure 11's regime: 1M-event intervals. The 10'000-count threshold
// makes promotions rare, so nearly every event runs the full hash
// pipeline — the regime where batched ingest helps most.
BENCHMARK_CAPTURE(BM_Profiler, multi_hash_4_1m, 4u, 1'000'000);

/**
 * The batched ingest path: same stream, same interval cadence, but
 * events are delivered through onEvents() in blocks so the profiler
 * pays one virtual dispatch per block and runs its flag-specialized
 * kernel. One benchmark iteration processes one block.
 */
void
BM_ProfilerBatched(benchmark::State &state, unsigned numTables,
                   size_t batchSize, uint64_t intervalLength)
{
    ProfilerConfig cfg = bestMultiHashConfig(intervalLength, 0.01);
    cfg.numHashTables = numTables;
    if (numTables == 1) {
        cfg = bestSingleHashConfig(intervalLength, 0.01);
    }
    auto profiler = makeProfiler(cfg);
    const auto &tuples = stream();
    size_t pos = 0;
    uint64_t in_interval = 0;
    int64_t events = 0;
    for (auto _ : state) {
        // One block, clipped to the stream end and interval boundary.
        size_t n = std::min(batchSize, tuples.size() - pos);
        n = std::min<size_t>(n, cfg.intervalLength - in_interval);
        profiler->onEvents(tuples.data() + pos, n);
        pos += n;
        if (pos == tuples.size())
            pos = 0;
        in_interval += n;
        if (in_interval == cfg.intervalLength) {
            benchmark::DoNotOptimize(profiler->endInterval());
            in_interval = 0;
        }
        events += static_cast<int64_t>(n);
    }
    state.SetItemsProcessed(events);
}
BENCHMARK_CAPTURE(BM_ProfilerBatched, single_hash, 1u, 4096, 10'000);
BENCHMARK_CAPTURE(BM_ProfilerBatched, multi_hash_2, 2u, 4096, 10'000);
BENCHMARK_CAPTURE(BM_ProfilerBatched, multi_hash_4, 4u, 4096, 10'000);
BENCHMARK_CAPTURE(BM_ProfilerBatched, multi_hash_8, 8u, 4096, 10'000);
BENCHMARK_CAPTURE(BM_ProfilerBatched, multi_hash_4_b256, 4u, 256,
                  10'000);
BENCHMARK_CAPTURE(BM_ProfilerBatched, multi_hash_4_1m, 4u, 4096,
                  1'000'000);

void
BM_PerfectProfiler(benchmark::State &state)
{
    PerfectProfiler profiler(100);
    const auto &tuples = stream();
    size_t i = 0;
    uint64_t in_interval = 0;
    for (auto _ : state) {
        profiler.onEvent(tuples[i]);
        i = (i + 1) % tuples.size();
        if (++in_interval == 10'000) {
            benchmark::DoNotOptimize(profiler.endInterval());
            in_interval = 0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerfectProfiler);

void
BM_StratifiedSampler(benchmark::State &state)
{
    StratifiedSamplerConfig cfg;
    cfg.entries = 2048;
    cfg.samplingThreshold = 32;
    StratifiedSampler sampler(cfg, 100);
    const auto &tuples = stream();
    size_t i = 0;
    uint64_t in_interval = 0;
    for (auto _ : state) {
        sampler.onEvent(tuples[i]);
        i = (i + 1) % tuples.size();
        if (++in_interval == 10'000) {
            benchmark::DoNotOptimize(sampler.endInterval());
            in_interval = 0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StratifiedSampler);

void
BM_PerfectProfilerBatched(benchmark::State &state)
{
    PerfectProfiler profiler(100);
    const auto &tuples = stream();
    constexpr size_t kBatch = 4096;
    constexpr uint64_t kInterval = 10'000;
    size_t pos = 0;
    uint64_t in_interval = 0;
    int64_t events = 0;
    for (auto _ : state) {
        size_t n = std::min(kBatch, tuples.size() - pos);
        n = std::min<size_t>(n, kInterval - in_interval);
        profiler.onEvents(tuples.data() + pos, n);
        pos += n;
        if (pos == tuples.size())
            pos = 0;
        in_interval += n;
        if (in_interval == kInterval) {
            benchmark::DoNotOptimize(profiler.endInterval());
            in_interval = 0;
        }
        events += static_cast<int64_t>(n);
    }
    state.SetItemsProcessed(events);
}
BENCHMARK(BM_PerfectProfilerBatched);

/** A temp .mht trace recorded once for the ingest benches. */
const std::string &
tracePath()
{
    static const std::string path = [] {
        const std::string p =
            (std::filesystem::temp_directory_path() /
             "mhp_bench_ingest.mht")
                .string();
        TraceWriter writer(p, ProfileKind::Value);
        auto workload = makeValueWorkload("gcc");
        pump(*workload, writer, 200'000);
        const Status closed = writer.close();
        MHP_REQUIRE(closed.isOk(), "cannot record ingest bench trace");
        return p;
    }();
    return path;
}

/**
 * End-to-end trace ingest through the streaming interval pipeline:
 * open the trace, deliver every record to an mh4 profiler at 10K
 * intervals. The vector leg materializes the whole file through the
 * buffered reader first (the pre-streaming data plane); the mmap leg
 * serves zero-copy chunks straight from the mapping. One benchmark
 * iteration replays the whole trace.
 */
void
BM_TraceIngest(benchmark::State &state, bool mapped)
{
    constexpr uint64_t kIntervalLength = 10'000;
    const ProfilerConfig cfg =
        bestMultiHashConfig(kIntervalLength, 0.01);
    const std::string &path = tracePath();
    int64_t events = 0;
    for (auto _ : state) {
        auto profiler = makeProfiler(cfg);
        const std::vector<HardwareProfiler *> one{profiler.get()};
        RunOutput out;
        if (mapped) {
            auto map = TraceMap::open(path);
            MHP_REQUIRE(map.isOk(), "cannot map ingest bench trace");
            TraceMapSource cursor(*map);
            out = runIntervalsStream(cursor, one, kIntervalLength,
                                     cfg.thresholdCount(),
                                     cursor.size() / kIntervalLength);
        } else {
            auto reader = TraceReader::open(path);
            MHP_REQUIRE(reader.isOk(),
                        "cannot open ingest bench trace");
            std::vector<Tuple> all;
            all.reserve((*reader)->totalEvents());
            while (!(*reader)->done())
                all.push_back((*reader)->next());
            TupleSpanSource cursor(TupleSpan(all.data(), all.size()));
            out = runIntervalsStream(cursor, one, kIntervalLength,
                                     cfg.thresholdCount(),
                                     all.size() / kIntervalLength);
        }
        benchmark::DoNotOptimize(out.intervalsCompleted);
        events += static_cast<int64_t>(out.eventsConsumed);
    }
    state.SetItemsProcessed(events);
}
BENCHMARK_CAPTURE(BM_TraceIngest, vector, false);
BENCHMARK_CAPTURE(BM_TraceIngest, mmap, true);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto workload = makeValueWorkload("go");
    for (auto _ : state)
        benchmark::DoNotOptimize(workload->next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration);

/** A pre-generated Ball–Larus path-tuple stream. */
const std::vector<Tuple> &
pathStream()
{
    static const std::vector<Tuple> tuples = [] {
        auto workload = makePathWorkload("gcc");
        return collect(*workload, 200'000);
    }();
    return tuples;
}

/**
 * The mh4 profiler over path tuples: the same ingest pipeline as
 * BM_Profiler but a different key distribution (dense small path ids
 * against sparse 64-bit PCs), so the path event class gets its own
 * throughput series in BENCH_throughput.json.
 */
void
BM_ProfilerPathTuples(benchmark::State &state)
{
    const ProfilerConfig cfg = bestMultiHashConfig(10'000, 0.01);
    auto profiler = makeProfiler(cfg);
    const auto &tuples = pathStream();
    size_t i = 0;
    uint64_t in_interval = 0;
    for (auto _ : state) {
        profiler->onEvent(tuples[i]);
        i = (i + 1) % tuples.size();
        if (++in_interval == cfg.intervalLength) {
            benchmark::DoNotOptimize(profiler->endInterval());
            in_interval = 0;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerPathTuples);

void
BM_PathWorkloadGeneration(benchmark::State &state)
{
    auto workload = makePathWorkload("go");
    for (auto _ : state)
        benchmark::DoNotOptimize(workload->next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathWorkloadGeneration);

/**
 * Per-ISA-tier batched ingest: the mh4 profiler driven through
 * onEvents() with its kernel table pinned to one tier. Registered at
 * runtime for every tier this binary + CPU can run, so one JSON file
 * carries e.g. BM_IsaBatchedIngest/mh4/scalar next to .../avx2 —
 * CI's tools/bench_check.py gate asserts a SIMD ≥ 2.5× scalar speedup
 * on exactly these series. Profilers capture their kernel table at
 * construction, so the pin wraps construction only.
 */
void
BM_IsaBatchedIngest(benchmark::State &state, IsaTier tier)
{
    constexpr size_t kBatch = 4096;
    ProfilerConfig cfg = bestMultiHashConfig(10'000, 0.01);
    cfg.numHashTables = 4;
    setIsaTierForTesting(tier);
    auto profiler = makeProfiler(cfg);
    setIsaTierForTesting(std::nullopt);
    const auto &tuples = stream();
    size_t pos = 0;
    uint64_t in_interval = 0;
    int64_t events = 0;
    for (auto _ : state) {
        size_t n = std::min(kBatch, tuples.size() - pos);
        n = std::min<size_t>(n, cfg.intervalLength - in_interval);
        profiler->onEvents(tuples.data() + pos, n);
        pos += n;
        if (pos == tuples.size())
            pos = 0;
        in_interval += n;
        if (in_interval == cfg.intervalLength) {
            benchmark::DoNotOptimize(profiler->endInterval());
            in_interval = 0;
        }
        events += static_cast<int64_t>(n);
    }
    state.SetItemsProcessed(events);
}

/**
 * The hash kernel alone: ContributionTable::indexBlock over 256-tuple
 * blocks for an n-member family at the paper's 2048 total entries
 * (n = 1, 4, 8, 16: one word per entry up to mh8, two for mh16). The
 * kernel is portable, so there is one series, not one per ISA tier.
 */
void
BM_HashBlockMulti(benchmark::State &state)
{
    constexpr size_t kBlock = 256;
    const auto n = static_cast<unsigned>(state.range(0));
    const TupleHasherFamily family(1, n, 2048 / n);
    const auto &tuples = stream();
    std::vector<uint32_t> out(kBlock * n);
    size_t pos = 0;
    int64_t events = 0;
    for (auto _ : state) {
        const size_t m = std::min(kBlock, tuples.size() - pos);
        family.contributions().indexBlock(tuples.data() + pos, m,
                                          out.data(), 2048 / n);
        benchmark::DoNotOptimize(out.data());
        pos += m;
        if (pos == tuples.size())
            pos = 0;
        events += static_cast<int64_t>(m);
    }
    state.SetItemsProcessed(events);
}
BENCHMARK(BM_HashBlockMulti)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

/** Register the per-tier series for every runnable tier. */
void
registerIsaTierBenches()
{
    const IsaTier tiers[] = {IsaTier::Scalar, IsaTier::Sse42,
                             IsaTier::Avx2, IsaTier::Avx512};
    for (const IsaTier tier : tiers) {
        if (ingestKernelsFor(tier) == nullptr)
            continue;
        const std::string name = isaTierName(tier);
        benchmark::RegisterBenchmark(
            ("BM_IsaBatchedIngest/mh4/" + name).c_str(),
            [tier](benchmark::State &s) { BM_IsaBatchedIngest(s, tier); });
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // This binary's own build type is what decides whether its numbers
    // may become a baseline. (The installed benchmark *library* build
    // type — the library_build_type context key — says nothing about
    // how our hot loops were compiled.)
#ifdef NDEBUG
    const bool releaseBuild = true;
#else
    const bool releaseBuild = false;
#endif

    std::vector<char *> args(argv, argv + argc);
    bool haveOut = false;
    bool haveReps = false;
    std::string outPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg.rfind("--benchmark_out=", 0) == 0) {
            haveOut = true;
            outPath = arg.substr(16);
        }
        if (arg.rfind("--benchmark_repetitions=", 0) == 0)
            haveReps = true;
    }

    // MHP_BENCH_REPS pass-through: an explicit --benchmark_repetitions
    // flag wins, otherwise the environment can request repetitions
    // (CI sets it without touching the command line).
    std::string repsFlag;
    unsigned repetitions = 1;
    if (haveReps) {
        for (int i = 1; i < argc; ++i) {
            const std::string arg(argv[i]);
            if (arg.rfind("--benchmark_repetitions=", 0) == 0)
                repetitions = static_cast<unsigned>(std::max(
                    1L, std::strtol(arg.c_str() + 24, nullptr, 10)));
        }
    } else if (const char *reps = std::getenv("MHP_BENCH_REPS");
               reps != nullptr && *reps != '\0') {
        repetitions = static_cast<unsigned>(
            std::max(1L, std::strtol(reps, nullptr, 10)));
        repsFlag = "--benchmark_repetitions=" +
                   std::to_string(repetitions);
        args.push_back(repsFlag.data());
    }

    // Default a JSON dump to BENCH_throughput.json (or MHP_BENCH_JSON)
    // so every Release run leaves a machine-readable record; explicit
    // --benchmark_out flags win. Debug builds REFUSE the default dump:
    // a debug number silently landing in BENCH_throughput.json is how
    // the repo's baseline went stale once already.
    std::string outFlag;
    std::string formatFlag = "--benchmark_out_format=json";
    if (!haveOut) {
        if (releaseBuild) {
            const char *path = std::getenv("MHP_BENCH_JSON");
            outPath = (path != nullptr && *path != '\0')
                          ? path
                          : "BENCH_throughput.json";
            outFlag = std::string("--benchmark_out=") + outPath;
            args.push_back(outFlag.data());
            args.push_back(formatFlag.data());
        } else {
            std::fprintf(
                stderr,
                "perf_throughput: debug build — refusing the default "
                "BENCH_throughput.json dump (results are not a valid "
                "baseline; pass --benchmark_out=... to keep them, "
                "tagged \"invalid\").\n");
        }
    }

    // Provenance + timing-environment context, embedded in the JSON so
    // tools/bench_check.py can verify a file before trusting it.
    benchmark::AddCustomContext("mhp_build_type",
                                releaseBuild ? "release" : "debug");
    benchmark::AddCustomContext("invalid",
                                releaseBuild ? "false" : "true");
    benchmark::AddCustomContext("mhp_clock_source",
                                mhp::bench::clockSource());
    benchmark::AddCustomContext("mhp_cpu_governor",
                                mhp::bench::cpuScalingGovernor());
    benchmark::AddCustomContext(
        "mhp_cpu_scaling_active",
        mhp::bench::cpuScalingActive() ? "true" : "false");
    benchmark::AddCustomContext("mhp_repetitions",
                                std::to_string(repetitions));
    benchmark::AddCustomContext("mhp_isa_active",
                                isaTierName(activeIsaTier()));
    benchmark::AddCustomContext("mhp_isa_best",
                                isaTierName(bestIsaTier()));

    mhp::bench::reportTimingEnvironment(repetitions);
    registerIsaTierBenches();

    int argcEff = static_cast<int>(args.size());
    benchmark::Initialize(&argcEff, args.data());
    if (benchmark::ReportUnrecognizedArguments(argcEff, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // benchmark::AddCustomContext can only carry strings, which used
    // to leave "invalid" in the JSON as the *string* "false" — easy
    // for a consumer to mis-read as truthy. Rewrite the validity flag
    // as a real JSON boolean after the library has written the file
    // (tools/bench_check.py rejects the stringly form outright).
    if (!outPath.empty()) {
        if (std::FILE *f = std::fopen(outPath.c_str(), "rb")) {
            std::string text;
            char buf[1 << 16];
            size_t got;
            while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
                text.append(buf, got);
            std::fclose(f);
            bool changed = false;
            for (const char *boolean : {"false", "true"}) {
                const std::string from =
                    std::string("\"invalid\": \"") + boolean + "\"";
                const std::string to =
                    std::string("\"invalid\": ") + boolean;
                for (size_t at = text.find(from);
                     at != std::string::npos; at = text.find(from, at)) {
                    text.replace(at, from.size(), to);
                    changed = true;
                }
            }
            if (changed) {
                if (std::FILE *out = std::fopen(outPath.c_str(), "wb")) {
                    std::fwrite(text.data(), 1, text.size(), out);
                    std::fclose(out);
                }
            }
        }
    }
    return 0;
}
