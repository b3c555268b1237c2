/**
 * @file
 * The offline pipeline and the scored_1m workload: a recorded gcc
 * value trace scored at 1M events / 0.1% by the default `mhprof_run`
 * (mh4 C1R0P1, default threads: the parallel span runner).
 */

#include <cstdio>
#include <cstring>
#include <memory>

#include "analysis/error_metrics.h"
#include "analysis/profile_io.h"
#include "core/factory.h"
#include "core/perfect_profiler.h"
#include "stages.h"
#include "trace/trace_io.h"
#include "trace/trace_map.h"
#include "workload/benchmarks.h"

namespace ledger {

namespace {

constexpr uint64_t kChunk = 4096;

/** Scored trace length: 16 intervals of 1M events. */
constexpr uint64_t kScoredEvents = 16'000'000;
constexpr uint64_t kScoredLength = 1'000'000;

/** Repetitions of the set-up; setup_s is their median. */
constexpr int kSetupReps = 3;

} // namespace

bool
recordTrace(const std::string &benchmark, uint64_t seed, uint64_t events,
            const std::string &path, Lane *lane)
{
    std::unique_ptr<mhp::EventSource> source =
        mhp::makeValueWorkload(benchmark, seed);
    mhp::EventSourceCursor cursor(*source, kChunk);
    mhp::TraceWriter writer(path, source->kind());
    if (!writer.ok())
        return false;
    uint64_t moved = 0;
    while (moved < events) {
        mhp::TupleSpan chunk;
        {
            Span span(lane, "workload.gen", seed);
            chunk = cursor.take(static_cast<size_t>(
                std::min<uint64_t>(kChunk, events - moved)));
            span.setItems(chunk.size());
        }
        if (chunk.empty())
            break;
        Span span(lane, "trace.write", seed, chunk.size());
        for (const mhp::Tuple &t : chunk)
            writer.accept(t);
        moved += chunk.size();
    }
    Span span(lane, "trace.close", seed);
    return writer.close().isOk() && moved == events;
}

OfflinePass
offlinePass(const std::string &tracePath,
            const mhp::ProfilerConfig &config, uint64_t intervals,
            const std::string &outPath, Lane *lane)
{
    OfflinePass out;
    const double start = nowS();
    Span pass(lane, "offline.pass");

    std::shared_ptr<const mhp::TraceMap> map;
    {
        Span span(lane, "trace.open");
        auto mapped = mhp::TraceMap::open(tracePath);
        if (!mapped.isOk()) {
            std::fprintf(stderr, "ledger: %s\n",
                         mapped.status().toString().c_str());
            return out;
        }
        map = std::move(*mapped);
    }
    mhp::TraceMapSource cursor(map);
    std::unique_ptr<mhp::HardwareProfiler> profiler =
        mhp::makeProfiler(config);
    const uint64_t length = config.intervalLength;
    const uint64_t threshold = config.thresholdCount();
    mhp::PerfectProfiler oracle(threshold);
    mhp::RunResult run;
    bool writeOk = true;
    {
        mhp::ProfileWriter writer(outPath, map->kind(), length, threshold);
        writeOk = writer.ok();
        for (uint64_t k = 0; k < intervals && writeOk; ++k) {
            Span interval(lane, "offline.interval", k);
            uint64_t consumed = 0;
            while (consumed < length) {
                mhp::TupleSpan chunk;
                {
                    Span span(lane, "trace.take", k);
                    chunk = cursor.take(static_cast<size_t>(
                        std::min<uint64_t>(kChunk, length - consumed)));
                    span.setItems(chunk.size());
                }
                if (chunk.empty())
                    break;
                {
                    Span span(lane, "oracle.ingest", k, chunk.size());
                    oracle.onEvents(chunk.data(), chunk.size());
                }
                {
                    Span span(lane, "core.ingest", k, chunk.size());
                    profiler->onEvents(chunk.data(), chunk.size());
                }
                consumed += chunk.size();
                out.ingested += chunk.size();
                out.oracleEvents += chunk.size();
            }
            if (consumed < length)
                break; // partial trailing interval: discarded
            std::unordered_map<mhp::Tuple, uint64_t, mhp::TupleHash> truth;
            {
                Span span(lane, "oracle.take", k);
                truth = oracle.takeCounts();
                span.setItems(truth.size());
            }
            mhp::IntervalSnapshot snap;
            {
                Span span(lane, "core.close", k);
                snap = profiler->endInterval();
                span.setItems(snap.size());
            }
            {
                Span span(lane, "score.interval", k);
                run.intervals.push_back(
                    mhp::scoreInterval(truth, snap, threshold));
            }
            {
                Span span(lane, "io.write", k, 8 + 24 * snap.size() + 4);
                writeOk = writer.writeInterval(snap).isOk();
            }
            ++out.intervals;
        }
        Span span(lane, "io.close");
        writeOk = writer.close().isOk() && writeOk;
    }
    out.seconds = nowS() - start;
    out.errorPct = run.averageErrorPercent();
    out.ok = writeOk && fileDigest(outPath, out.digest);
    return out;
}

Result
runScored(const Options &options)
{
    Result result;
    const std::string trace = options.workDir + "/gcc.mht";
    const uint64_t intervals = kScoredEvents / kScoredLength;

    // Set-up: record the trace (what a user does once per input).
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        std::remove(trace.c_str());
        const ChildResult rec = runChild(
            {options.toolsDir + "/mhprof_trace", "--benchmark=gcc",
             "--seed=" + std::to_string(options.seed),
             "--events=" + std::to_string(kScoredEvents),
             "--out=" + trace},
            options.workDir + "/trace");
        if (rec.exitCode != 0) {
            result.mismatch("mhprof_trace exited " +
                            std::to_string(rec.exitCode));
            return result;
        }
        setup.push_back(rec.wallS);
    }

    // Timed: the default scored mhprof_run, back to back.
    const std::string out = options.workDir + "/run.mhp";
    const std::vector<std::string> argv = {
        options.toolsDir + "/mhprof_run", "--trace=" + trace,
        "--interval-length=" + std::to_string(kScoredLength),
        "--threshold=0.1", "--intervals=" + std::to_string(intervals),
        "--out=" + out};
    std::vector<double> walls, rss;
    std::vector<uint64_t> digests;
    std::vector<std::string> errors;
    uint64_t badExits = 0;
    // One untimed run first: the first mapping of a just-written trace
    // is not what a scored run costs.
    (void)runChild(argv, options.workDir + "/run");
    const double start = nowS();
    while ((nowS() - start < options.seconds || walls.size() < 3) &&
           walls.size() < 1000) {
        std::remove(out.c_str());
        const ChildResult run =
            runChild(argv, options.workDir + "/run");
        ++result.attempted;
        if (run.exitCode != 0) {
            ++badExits;
            continue;
        }
        walls.push_back(run.wallS);
        rss.push_back(run.maxRssMb);
        uint64_t digest = 0;
        if (!fileDigest(out, digest))
            ++badExits;
        digests.push_back(digest);
        const char *at = std::strstr(run.out.c_str(), "avg error ");
        const char *pct = at == nullptr ? nullptr : std::strchr(at, '%');
        errors.push_back(pct == nullptr ? "" : std::string(at + 10, pct));
    }
    result.failOps(badExits, "mhprof_run runs exited non-zero");

    // Output check: every run's .mhp and printed error must equal the
    // serial in-process pipeline's over the same trace.
    mhp::ProfilerConfig config;
    config.intervalLength = kScoredLength;
    config.candidateThreshold = 0.1 / 100.0; // as mhprof_run parses it
    const OfflinePass ref = offlinePass(
        trace, config, intervals, options.workDir + "/ref.mhp", nullptr);
    if (!ref.ok || ref.intervals != intervals)
        result.mismatch("reference pass failed");
    char refError[32];
    std::snprintf(refError, sizeof(refError), "%.2f", ref.errorPct);
    uint64_t wrong = 0;
    for (size_t i = 0; i < digests.size(); ++i)
        if (digests[i] != ref.digest || errors[i] != refError)
            ++wrong;
    result.failOps(wrong, "runs whose .mhp or error differ from the "
                          "reference");

    std::vector<double> rates, ms;
    for (double w : walls) {
        rates.push_back(static_cast<double>(kScoredEvents) / w);
        ms.push_back(w * 1000.0);
    }
    result.set("setup_s", median(setup), "s");
    result.set("events_per_s", median(rates), "events/s");
    result.set("peak_rss_mb", median(rss), "MB");
    result.set("profile_accuracy_pct", 100.0 - ref.errorPct, "%");
    result.set("latency_p50_ms", median(ms), "ms");
    result.set("latency_p99_ms", quantile(ms, 0.99), "ms");
    result.info["mhp_digest"] = hex64(ref.digest);
    result.info["runs"] = std::to_string(walls.size());
    std::remove(trace.c_str());
    return result;
}

} // namespace ledger
