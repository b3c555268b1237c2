#include "core/factory.h"

#include "core/multi_hash_profiler.h"

namespace mhp {

std::unique_ptr<HardwareProfiler>
makeProfiler(const ProfilerConfig &config)
{
    config.validate();
    return std::make_unique<MultiHashProfiler>(config);
}

ProfilerConfig
bestMultiHashConfig(uint64_t intervalLength, double candidateThreshold)
{
    ProfilerConfig c;
    c.intervalLength = intervalLength;
    c.candidateThreshold = candidateThreshold;
    c.totalHashEntries = 2048;
    c.numHashTables = 4;
    c.conservativeUpdate = true;
    c.resetOnPromote = false;
    c.retaining = true;
    c.shielding = true;
    return c;
}

ProfilerConfig
bestSingleHashConfig(uint64_t intervalLength, double candidateThreshold)
{
    ProfilerConfig c;
    c.intervalLength = intervalLength;
    c.candidateThreshold = candidateThreshold;
    c.totalHashEntries = 2048;
    c.numHashTables = 1;
    c.conservativeUpdate = false;
    c.resetOnPromote = true;
    c.retaining = true;
    c.shielding = true;
    return c;
}

} // namespace mhp
