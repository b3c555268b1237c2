#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "analysis/sweep_runner.h"
#include "core/factory.h"
#include "support/env.h"
#include "support/panic.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace bench {

void
banner(const std::string &figure, const std::string &what)
{
    std::printf("=== %s: %s ===\n", figure.c_str(), what.c_str());
    std::printf("(synthetic workloads; MHP_SCALE=%.3g; shapes, not "
                "absolute numbers, are the reproduction target)\n\n",
                experimentScale());
}

uint64_t
scaledIntervals(uint64_t baseIntervals)
{
    return scaledCount(baseIntervals, 2);
}

namespace {

/** First line of a sysfs file, or empty when unreadable. */
std::string
readSysfsLine(const char *path)
{
    std::ifstream in(path);
    if (!in)
        return "";
    std::string line;
    std::getline(in, line);
    return line;
}

} // namespace

std::string
clockSource()
{
    const std::string source = readSysfsLine(
        "/sys/devices/system/clocksource/clocksource0/"
        "current_clocksource");
    return source.empty() ? "unknown" : source;
}

std::string
cpuScalingGovernor()
{
    // No cpufreq directory at all (fixed-clock VMs, many containers)
    // means no scaling; distinguish that from an unreadable governor.
    const char *dir = "/sys/devices/system/cpu/cpu0/cpufreq";
    std::error_code ec;
    if (!std::filesystem::exists(dir, ec))
        return "none";
    const std::string governor = readSysfsLine(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    return governor.empty() ? "unknown" : governor;
}

bool
cpuScalingActive()
{
    const std::string governor = cpuScalingGovernor();
    return governor != "none" && governor != "performance";
}

void
reportTimingEnvironment(unsigned repetitions)
{
    std::printf("timing environment: clocksource=%s governor=%s "
                "scaling=%s repetitions=%u\n",
                clockSource().c_str(), cpuScalingGovernor().c_str(),
                cpuScalingActive() ? "ACTIVE (results may wobble)"
                                   : "inactive",
                repetitions);
}

std::vector<SweepRow>
runBenchmarkConfigs(const std::string &benchmark, bool edges,
                    const std::vector<LabelledConfig> &configs,
                    uint64_t intervals)
{
    MHP_REQUIRE(!configs.empty(), "no configurations");
    const uint64_t interval_length = configs[0].config.intervalLength;
    const uint64_t threshold = configs[0].config.thresholdCount();
    for (const auto &lc : configs) {
        MHP_REQUIRE(lc.config.intervalLength == interval_length,
                    "sweep configs must share the interval length");
        MHP_REQUIRE(lc.config.thresholdCount() == threshold,
                    "sweep configs must share the threshold");
    }

    std::vector<std::unique_ptr<HardwareProfiler>> profilers;
    std::vector<HardwareProfiler *> raw;
    profilers.reserve(configs.size());
    for (const auto &lc : configs) {
        profilers.push_back(makeProfiler(lc.config));
        raw.push_back(profilers.back().get());
    }

    std::unique_ptr<EventSource> source;
    if (edges)
        source = makeEdgeWorkload(benchmark);
    else
        source = makeValueWorkload(benchmark);

    // Batched adapter of the streaming core: one virtual dispatch per
    // block instead of per event, scores bit-identical to the
    // per-event run (the onEvents == onEvent contract).
    const RunOutput out =
        runIntervals(*source, raw, interval_length, threshold, intervals);

    std::vector<SweepRow> rows;
    rows.reserve(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        SweepRow row;
        row.benchmark = benchmark;
        row.label = configs[i].label;
        row.error = out.results[i].averageError();
        row.hardwareCandidates =
            out.results[i].meanHardwareCandidates();
        row.perfectCandidates =
            out.results[i].meanPerfectCandidates();
        rows.push_back(row);
    }
    return rows;
}

std::vector<std::vector<SweepRow>>
runSuiteConfigs(const std::vector<std::string> &benchmarks, bool edges,
                const std::vector<LabelledConfig> &configs,
                uint64_t intervals)
{
    // Shard at (benchmark x config) granularity through the sweep
    // engine. Every cell regenerates the same seeded stream the shared
    // pump used to produce, so the rows are identical to the old
    // one-thread-per-benchmark driver — there are just more,
    // better-balanced cells to schedule.
    SweepPlan plan;
    plan.benchmarks = benchmarks;
    plan.kind = edges ? ProfileKind::Edge : ProfileKind::Value;
    plan.configs.reserve(configs.size());
    for (const auto &lc : configs)
        plan.configs.push_back({lc.label, lc.config});
    plan.intervals = intervals;

    const SweepRunner runner(std::move(plan));
    const StatusOr<SweepReport> report = runner.runResilient();
    MHP_REQUIRE(report.isOk() && report->quarantined.empty() &&
                    report->completedCells == runner.cellCount(),
                "suite sweep did not complete every cell");

    std::vector<std::vector<SweepRow>> out(benchmarks.size());
    for (auto &rows : out)
        rows.reserve(configs.size());
    for (const auto &cell : report->results) {
        SweepRow row;
        row.benchmark = cell.benchmark;
        row.label = cell.configLabel;
        row.error = cell.run.averageError();
        row.hardwareCandidates = cell.run.meanHardwareCandidates();
        row.perfectCandidates = cell.run.meanPerfectCandidates();
        out[cell.benchmarkIndex].push_back(std::move(row));
    }
    return out;
}

std::vector<std::string>
errorHeader()
{
    return {"benchmark", "config",  "total%", "FP%",
            "FN%",       "NP%",     "NN%",    "hwCand"};
}

void
addErrorRows(TablePrinter &table, const std::vector<SweepRow> &rows)
{
    for (const auto &row : rows) {
        table.addRow({
            row.benchmark,
            row.label,
            TablePrinter::num(row.error.total() * 100.0, 2),
            TablePrinter::num(row.error.falsePositive * 100.0, 2),
            TablePrinter::num(row.error.falseNegative * 100.0, 2),
            TablePrinter::num(row.error.neutralPositive * 100.0, 2),
            TablePrinter::num(row.error.neutralNegative * 100.0, 2),
            TablePrinter::num(row.hardwareCandidates, 1),
        });
    }
}

void
maybeWriteCsv(const std::string &name, const TablePrinter &table)
{
    const char *dir = std::getenv("MHP_CSV_DIR");
    if (dir == nullptr || *dir == '\0')
        return;
    const std::string path = std::string(dir) + "/" + name + ".csv";
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    table.printCsv(out);
    std::printf("(csv written to %s)\n", path.c_str());
}

std::vector<LabelledConfig>
singleHashPrSweep(uint64_t intervalLength, double threshold)
{
    std::vector<LabelledConfig> out;
    for (const bool retain : {false, true}) {
        for (const bool reset : {false, true}) {
            ProfilerConfig c;
            c.intervalLength = intervalLength;
            c.candidateThreshold = threshold;
            c.totalHashEntries = 2048;
            c.numHashTables = 1;
            c.conservativeUpdate = false;
            c.resetOnPromote = reset;
            c.retaining = retain;
            out.push_back({std::string("P") + (retain ? "1" : "0") +
                               ",R" + (reset ? "1" : "0"),
                           c});
        }
    }
    return out;
}

std::vector<LabelledConfig>
multiHashCrSweep(uint64_t intervalLength, double threshold,
                 const std::vector<unsigned> &tableCounts)
{
    std::vector<LabelledConfig> out;
    for (const unsigned n : tableCounts) {
        for (const bool conservative : {false, true}) {
            for (const bool reset : {false, true}) {
                ProfilerConfig c;
                c.intervalLength = intervalLength;
                c.candidateThreshold = threshold;
                c.totalHashEntries = 2048;
                c.numHashTables = n;
                c.conservativeUpdate = conservative;
                c.resetOnPromote = reset;
                c.retaining = true; // paper: retaining on throughout 6.3
                out.push_back({std::to_string(n) + "t,C" +
                                   (conservative ? "1" : "0") + ",R" +
                                   (reset ? "1" : "0"),
                               c});
            }
        }
    }
    return out;
}

std::vector<LabelledConfig>
bestConfigSweep(uint64_t intervalLength, double threshold,
                const std::vector<unsigned> &tableCounts)
{
    std::vector<LabelledConfig> out;
    {
        ProfilerConfig bsh =
            bestSingleHashConfig(intervalLength, threshold);
        out.push_back({"BSH", bsh});
    }
    for (const unsigned n : tableCounts) {
        ProfilerConfig c = bestMultiHashConfig(intervalLength, threshold);
        c.numHashTables = n;
        out.push_back({std::to_string(n) + "t", c});
    }
    return out;
}

} // namespace bench
} // namespace mhp
