/**
 * @file
 * mhprof_pgo — the closed profile→optimize→re-execute loop as a tool.
 *
 * Generates a seeded mini-CPU program, profiles its Ball–Larus path
 * stream with one or more hardware-profiler configurations, lowers
 * each configuration's captured hot paths into formed traces, and
 * replays the same stream under a trace-cache cost model. The output
 * is a deterministic JSON report pairing each configuration's profile
 * accuracy (weighted error) with the speedup its selection actually
 * realizes — byte-identical across same-seed reruns.
 *
 *   mhprof_pgo --seed=7 --functions=6 --configs=sh1,mh4 --out=pgo.json
 *
 * Config presets: sh1 (the paper's best single-hash profiler) and
 * mh4 (the best 4-table multi-hash profiler); --entries scales both.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/pgo_pipeline.h"
#include "core/factory.h"
#include "support/cli.h"

namespace {

bool
addPreset(const std::string &name, uint64_t intervalLength,
          double threshold, uint64_t entries,
          std::vector<mhp::SweepConfig> &configs)
{
    using namespace mhp;
    ProfilerConfig cfg;
    if (name == "sh1") {
        cfg = bestSingleHashConfig(intervalLength, threshold);
    } else if (name == "mh4") {
        cfg = bestMultiHashConfig(intervalLength, threshold);
    } else {
        return false;
    }
    cfg.totalHashEntries = entries;
    configs.push_back({name, cfg});
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mhp;

    CliParser cli("run the closed profile->optimize->re-execute loop "
                  "on a generated program and write a JSON report of "
                  "profile error vs. realized speedup");
    cli.addInt("seed", 42, "program-generation seed");
    cli.addInt("functions", 8, "generated leaf functions");
    cli.addInt("k", 1, "Ball-Larus iteration depth (k-iteration paths)");
    cli.addInt("intervals", 8, "profile intervals to run");
    cli.addInt("interval-length", 10'000,
               "completed paths per interval");
    cli.addDouble("threshold", 1.0, "candidate threshold in percent");
    cli.addDouble("penalty", 3.0,
                  "cost-model cycles per off-trace control transfer");
    cli.addInt("entries", 2048, "total hash-table entries per config");
    cli.addString("configs", "sh1,mh4",
                  "comma-separated profiler presets (sh1|mh4)");
    cli.addString("out", "", "write the JSON report here (default "
                             "stdout)");
    cli.parse(argc, argv);

    if (cli.getInt("intervals") <= 0 ||
        cli.getInt("interval-length") <= 0 || cli.getInt("k") <= 0 ||
        cli.getInt("functions") <= 0 || cli.getInt("entries") <= 0) {
        std::fprintf(stderr,
                     "mhprof_pgo: --intervals, --interval-length, "
                     "--k, --functions and --entries must be > 0\n");
        return 1;
    }
    if (cli.getDouble("penalty") < 1.0) {
        std::fprintf(stderr, "mhprof_pgo: --penalty must be >= 1\n");
        return 1;
    }

    PgoOptions options;
    options.program.seed = static_cast<uint64_t>(cli.getInt("seed"));
    options.program.numFunctions =
        static_cast<unsigned>(cli.getInt("functions"));
    options.kIterations = static_cast<unsigned>(cli.getInt("k"));
    options.intervals = static_cast<uint64_t>(cli.getInt("intervals"));
    options.intervalLength =
        static_cast<uint64_t>(cli.getInt("interval-length"));
    options.branchPenalty = cli.getDouble("penalty");

    const double threshold = cli.getDouble("threshold") / 100.0;
    const uint64_t entries =
        static_cast<uint64_t>(cli.getInt("entries"));
    const std::string csv = cli.getString("configs");
    size_t pos = 0;
    while (pos < csv.size()) {
        size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string name = csv.substr(pos, comma - pos);
        if (!addPreset(name, options.intervalLength, threshold, entries,
                       options.configs)) {
            std::fprintf(stderr,
                         "mhprof_pgo: unknown config preset \"%s\" "
                         "(sh1|mh4)\n",
                         name.c_str());
            return 1;
        }
        pos = comma + 1;
    }
    if (options.configs.empty()) {
        std::fprintf(stderr, "mhprof_pgo: --configs is empty\n");
        return 1;
    }
    for (const SweepConfig &config : options.configs) {
        if (const Status bad = config.config.checkAtEdge(); !bad.isOk()) {
            std::fprintf(stderr, "mhprof_pgo: %s: %s\n",
                         config.label.c_str(), bad.toString().c_str());
            return 1;
        }
    }

    const PgoPipeline pipeline(options);
    const PgoReport report = pipeline.run();
    const std::string json = renderPgoJson(report);

    const std::string out = cli.getString("out");
    if (out.empty()) {
        std::fputs(json.c_str(), stdout);
    } else {
        std::ofstream file(out, std::ios::binary | std::ios::trunc);
        file << json;
        if (!file.good()) {
            std::fprintf(stderr, "mhprof_pgo: cannot write %s\n",
                         out.c_str());
            return 1;
        }
    }

    // One human-readable line per config on stderr so sweep wrappers
    // can keep stdout purely machine-readable.
    for (const PgoConfigReport &c : report.configs) {
        std::fprintf(stderr,
                     "mhprof_pgo: %s error %.2f%% speedup %.3fx "
                     "(oracle %.3fx, coverage %.2f)\n",
                     c.label.c_str(), c.avgErrorPercent, c.speedup,
                     c.oracleSpeedup, c.traceCoverage);
    }
    return 0;
}
