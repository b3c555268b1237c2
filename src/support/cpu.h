/**
 * @file
 * Runtime CPU-feature detection and ISA-tier selection for the SIMD
 * ingest kernels (docs/PERF.md).
 *
 * The library ships one kernel implementation per *ISA tier* — scalar
 * and avx512; at startup the dispatcher picks avx512 when the running
 * CPU supports it and scalar otherwise. MHP_FORCE_ISA overrides the
 * choice (forcing a tier the CPU cannot run is clamped, with a
 * one-time stderr note), which is how the equivalence test matrix
 * re-runs every kernel on one machine.
 *
 * Every tier is bit-identical by contract: the choice affects
 * throughput only, never a single byte of profiler output.
 */

#ifndef MHP_SUPPORT_CPU_H
#define MHP_SUPPORT_CPU_H

#include <optional>
#include <string>

namespace mhp {

/**
 * The kernel dispatch tiers. Scalar is the build's baseline target;
 * no runtime feature check (the only tier of a non-x86 build). Avx512
 * is the one x86 SIMD tier. The enumerator values are fixed; values
 * 1, 2 and 3 are retired.
 */
enum class IsaTier : unsigned char
{
    Scalar = 0,
    Avx512 = 4,
};

/** The tier's MHP_FORCE_ISA spelling ("scalar" or "avx512"). */
const char *isaTierName(IsaTier tier);

/** Parse an MHP_FORCE_ISA spelling; nullopt if unrecognized. */
std::optional<IsaTier> parseIsaTier(const std::string &name);

/**
 * True when the running CPU can execute the tier's instructions *and*
 * this binary was compiled for an architecture that has the tier
 * (x86: both tiers; elsewhere: Scalar only). Scalar is always
 * supported.
 */
bool isaTierSupported(IsaTier tier);

/** The strongest supported tier on this machine. */
IsaTier bestIsaTier();

/**
 * The tier requested through MHP_FORCE_ISA, if the variable is set to
 * a recognized spelling (an unrecognized value is ignored with a
 * one-time stderr note). The request is NOT clamped to what the CPU
 * supports — tests use this to detect "forced but unavailable" and
 * skip instead of silently re-testing a weaker tier.
 */
std::optional<IsaTier> forcedIsaTier();

/**
 * The tier the dispatcher resolves to: forcedIsaTier() when supported,
 * otherwise bestIsaTier() (clamping a forced-but-unsupported tier
 * notes it once on stderr). The result is computed once and cached;
 * setIsaTierForTesting() invalidates the cache.
 */
IsaTier activeIsaTier();

/**
 * Test hook: pin activeIsaTier() to a specific tier, or pass nullopt
 * to drop the pin and re-resolve from the environment. Only affects
 * dispatch decisions made after the call (profilers capture their
 * kernels at construction).
 */
void setIsaTierForTesting(std::optional<IsaTier> tier);

} // namespace mhp

#endif // MHP_SUPPORT_CPU_H
