#include "profiler_flags.h"

#include <cstdint>
#include <string>

namespace mhp {

void
addProfilerFlags(CliParser &cli)
{
    cli.addInt("interval-length", 10'000, "events per interval");
    cli.addDouble("threshold", 1.0, "candidate threshold in percent");
    cli.addInt("tables", 4, "hash tables (1 = single-hash)");
    cli.addInt("entries", 2048, "total hash-table entries");
    cli.addBool("reset", false, "R1: reset counters on promotion");
    cli.addBool("no-retain", false, "P0: flush accumulator per interval");
    cli.addBool("no-conservative", false, "C0: plain counter update");
}

StatusOr<ProfilerConfig>
profilerConfigFromFlags(const CliParser &cli)
{
    for (const char *name : {"interval-length", "tables", "entries"}) {
        if (cli.getInt(name) < 0)
            return Status::invalidArgument(std::string("--") + name +
                                           " must be >= 0");
    }
    if (cli.getInt("interval-length") == 0)
        return Status::invalidArgument("--interval-length must be > 0");
    if (cli.getInt("tables") > UINT32_MAX)
        return Status::invalidArgument("--tables is out of range");

    ProfilerConfig cfg;
    cfg.intervalLength =
        static_cast<uint64_t>(cli.getInt("interval-length"));
    cfg.candidateThreshold = cli.getDouble("threshold") / 100.0;
    cfg.numHashTables = static_cast<unsigned>(cli.getInt("tables"));
    cfg.totalHashEntries = static_cast<uint64_t>(cli.getInt("entries"));
    cfg.resetOnPromote = cli.getBool("reset");
    cfg.retaining = !cli.getBool("no-retain");
    cfg.conservativeUpdate = !cli.getBool("no-conservative");
    MHP_RETURN_IF_ERROR(cfg.checkAtEdge());
    return cfg;
}

void
addKindFlags(CliParser &cli)
{
    cli.addString("kind", "",
                  "event class of the workload model "
                  "(value|edge|path; default value)");
    cli.addBool("edges", false,
                "use the edge model (alias for --kind=edge)");
}

StatusOr<ProfileKind>
workloadKindFromFlags(const CliParser &cli)
{
    const std::string name = cli.getString("kind");
    if (name.empty())
        return cli.getBool("edges") ? ProfileKind::Edge
                                    : ProfileKind::Value;
    const std::optional<ProfileKind> kind = parseProfileKind(name);
    if (!kind || (*kind != ProfileKind::Value &&
                  *kind != ProfileKind::Edge &&
                  *kind != ProfileKind::Path))
        return Status::invalidArgument("--kind=" + name +
                                       " not recognized "
                                       "(value|edge|path)");
    return *kind;
}

} // namespace mhp
