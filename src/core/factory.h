/**
 * @file
 * Construction of profilers from a ProfilerConfig.
 *
 * Every table count yields a MultiHashProfiler (numHashTables == 1
 * is the paper's single-hash design); benches sweep configurations
 * through this one entry point.
 */

#ifndef MHP_CORE_FACTORY_H
#define MHP_CORE_FACTORY_H

#include <memory>

#include "core/config.h"
#include "core/profiler.h"

namespace mhp {

/** Build the profiler a config describes. */
std::unique_ptr<HardwareProfiler>
makeProfiler(const ProfilerConfig &config);

/** The paper's best configuration: 4 tables, C1, R0, P1 (Section 6.4). */
ProfilerConfig bestMultiHashConfig(uint64_t intervalLength,
                                   double candidateThreshold);

/** The paper's best single-hash configuration: R1, P1 (Section 5.6.2). */
ProfilerConfig bestSingleHashConfig(uint64_t intervalLength,
                                    double candidateThreshold);

} // namespace mhp

#endif // MHP_CORE_FACTORY_H
