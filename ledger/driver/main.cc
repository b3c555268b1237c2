/**
 * @file
 * ledger_driver — one run of one ledger workload.
 *
 *   ledger_driver --workload=scored_1m --seed=3 --seconds=20 --trace=0 \
 *       --tools=<dir with mhprof_run, mhprof_trace, mhprofd> \
 *       --work=<scratch dir> [--spans=<file>]
 *
 * Untraced (--trace=0) runs drive the real entry points and report the
 * end-to-end metrics; traced (--trace=1) runs replay the same layer
 * calls with one span per call and report the per-layer metrics. The
 * last two stdout lines are a provenance object and the result object
 * {"correct", "attempted", "failed", "metrics"}. Exit status 0 means
 * the run completed (its outputs may still be incorrect: see
 * "correct"); 2 means it refused to run.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common.h"
#include "ledger.h"
#include "support/cli.h"
#include "support/cpu.h"

extern char **environ;

namespace {

using namespace ledger;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

/** A build that must not be timed, or "" when this one is fine. */
std::string
refusedBuild()
{
    const std::string type = LEDGER_BUILD_TYPE;
    if (type == "Debug" || type.empty())
        return "build type '" + type + "' (use Release)";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
    return "";
}

/** The first MHP_* override in the environment, or "". */
std::string
setOverride()
{
    for (char **env = environ; *env != nullptr; ++env)
        if (std::strncmp(*env, "MHP_", 4) == 0)
            return std::string(*env).substr(0, std::strcspn(*env, "="));
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    mhp::CliParser cli("run one ledger workload and print its metrics");
    cli.addString("workload", "", "scored_1m | sweep_10k | service_wal");
    cli.addInt("seed", 1, "input seed");
    cli.addDouble("seconds", 10, "measured time per run");
    cli.addInt("trace", 0, "1 = traced per-layer run");
    cli.addString("tools", "", "directory holding the mhprof tools");
    cli.addString("work", "", "scratch directory for this run");
    cli.addString("spans", "", "traced runs: write the spans here");
    cli.parse(argc, argv);

    Options options;
    options.workload = cli.getString("workload");
    options.seed = static_cast<uint64_t>(cli.getInt("seed"));
    options.seconds = cli.getDouble("seconds");
    options.trace = cli.getInt("trace") != 0;
    options.toolsDir = cli.getString("tools");
    options.workDir = cli.getString("work");
    options.spansPath = cli.getString("spans");
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    options.threads = std::min(4u, nproc);

    if (const std::string why = refusedBuild(); !why.empty()) {
        std::fprintf(stderr, "ledger_driver: refusing to time a %s\n",
                     why.c_str());
        return 2;
    }
    if (const std::string var = setOverride(); !var.empty()) {
        std::fprintf(stderr,
                     "ledger_driver: %s is set; the ledger measures the "
                     "shipped defaults\n",
                     var.c_str());
        return 2;
    }
    if (options.toolsDir.empty() || options.workDir.empty() ||
        options.seconds <= 0 || !makeDirs(options.workDir)) {
        std::fprintf(stderr, "ledger_driver: need --tools, --work and "
                             "positive --seconds\n");
        return 2;
    }

    Result result;
    if (options.trace) {
        if (options.workload != "scored_1m" &&
            options.workload != "sweep_10k" &&
            options.workload != "service_wal") {
            std::fprintf(stderr, "ledger_driver: unknown workload '%s'\n",
                         options.workload.c_str());
            return 2;
        }
        result = runTraced(options);
    } else if (options.workload == "scored_1m") {
        result = runScored(options);
    } else if (options.workload == "sweep_10k") {
        result = runSweep(options);
    } else if (options.workload == "service_wal") {
        result = runService(options);
    } else {
        std::fprintf(stderr, "ledger_driver: unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }

    result.info["workload"] = options.workload;
    result.info["seed"] = std::to_string(options.seed);
    result.info["trace"] = options.trace ? "1" : "0";
    result.info["build_type"] = LEDGER_BUILD_TYPE;
    result.info["isa_tier"] = mhp::isaTierName(mhp::activeIsaTier());
    result.info["nproc"] = std::to_string(nproc);
    result.info["load_threads"] = std::to_string(options.threads);
    result.info["clocksource"] = mhp::bench::clockSource();
    result.info["governor"] = mhp::bench::cpuScalingGovernor();

    std::string line = "{";
    for (const auto &[key, value] : result.info)
        line += (line.size() > 1 ? ", \"" : "\"") + key + "\": \"" +
                jsonEscape(value) + "\"";
    std::printf("%s}\n", line.c_str());

    line = "{\"correct\": " + std::string(result.correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(result.attempted) +
           ", \"failed\": " + std::to_string(result.failed) +
           ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : result.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metric.value);
        line += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metric.unit + "\"}";
        first = false;
    }
    std::printf("%s}}\n", line.c_str());
    std::fflush(stdout);
    removeTree(options.workDir);
    return 0;
}
