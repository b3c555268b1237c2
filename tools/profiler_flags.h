/**
 * @file
 * Flags the profiling tools share: the paper's profiler knobs (bound
 * once for mhprof_run, mhprof_coord and mhprof_client) and the event
 * class of the suite workload models (mhprof_run, mhprof_coord).
 */

#ifndef MHP_TOOLS_PROFILER_FLAGS_H
#define MHP_TOOLS_PROFILER_FLAGS_H

#include "core/config.h"
#include "support/cli.h"
#include "support/status.h"
#include "trace/event_class.h"

namespace mhp {

/**
 * Register --interval-length, --threshold, --tables, --entries,
 * --reset, --no-retain and --no-conservative.
 */
void addProfilerFlags(CliParser &cli);

/**
 * The config those flags describe, or InvalidArgument when it cannot
 * produce a profile: a negative integer flag or a zero interval
 * length (caught before the unsigned cast), then
 * ProfilerConfig::checkAtEdge().
 */
StatusOr<ProfilerConfig> profilerConfigFromFlags(const CliParser &cli);

/** Register --kind and its legacy alias --edges. */
void addKindFlags(CliParser &cli);

/**
 * The event class of the workload model: --kind wins, --edges maps to
 * the edge model, the default is value. Only kinds with a calibrated
 * workload model (value|edge|path) are accepted.
 */
StatusOr<ProfileKind> workloadKindFromFlags(const CliParser &cli);

} // namespace mhp

#endif // MHP_TOOLS_PROFILER_FLAGS_H
