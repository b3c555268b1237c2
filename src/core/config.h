/**
 * @file
 * Configuration of the interval-based hardware profilers.
 *
 * The paper's architecture knobs, all in one aggregate:
 *
 *  - interval length and candidate threshold (Section 5.1);
 *  - total hash-table entries and how many tables they are split
 *    across (Section 6: n tables of totalHashEntries / n each);
 *  - the P/R/C optimizations — retaining, resetting, conservative
 *    update (Sections 5.4 and 6.1);
 *  - counter width (the paper uses 3-byte counters) and the derived
 *    accumulator-table size bound of Section 5.1.
 */

#ifndef MHP_CORE_CONFIG_H
#define MHP_CORE_CONFIG_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "support/bit_util.h"
#include "support/panic.h"
#include "support/status.h"

namespace mhp {

class ByteBuffer;
class ByteCursor;

/**
 * Largest accumulator a config may ask for: 2^20 entries, 1000x the
 * paper's largest (1000 entries at a 0.1% threshold). A smaller
 * threshold derives a bigger accumulator, and ProfilerConfig::check()
 * refuses it before anything allocates.
 */
inline constexpr uint64_t kMaxAccumulatorEntries = uint64_t{1} << 20;

/** All knobs of a single- or multi-hash profiler instance. */
struct ProfilerConfig
{
    /** Profile interval length in events (paper: 10K and 1M). */
    uint64_t intervalLength = 10'000;

    /**
     * Candidate threshold as a fraction of the interval length
     * (paper: 0.01 and 0.001). An event is a candidate when it occurs
     * at least thresholdCount() times within one interval.
     */
    double candidateThreshold = 0.01;

    /** Total counters across all hash tables (paper: 2K). */
    uint64_t totalHashEntries = 2048;

    /** Number of hash tables the entries are split across (1 = single). */
    unsigned numHashTables = 4;

    /** Width of each hash-table counter (paper: 3 bytes). */
    unsigned counterBits = 24;

    /** P: retain above-threshold candidates across intervals (5.4.1). */
    bool retaining = true;

    /** R: zero the hash counter(s) when a tuple is promoted (5.4.2). */
    bool resetOnPromote = false;

    /** C: conservative update — bump only the minimum counters (6.1). */
    bool conservativeUpdate = true;

    /** Shielding: accumulated tuples bypass the hash tables (5.2). */
    bool shielding = true;

    /**
     * Flush (zero) the hash tables at every interval end, as the
     * paper specifies ("At the end of an interval, the hash table is
     * flushed"). Disabling this is an ablation: stale counts from
     * prior intervals leak across the boundary and inflate false
     * positives (see bench/ablation_interval_flush).
     */
    bool flushHashTables = true;

    /**
     * Accumulator capacity; 0 derives the paper's worst-case bound of
     * ceil(1 / candidateThreshold) entries.
     */
    uint64_t accumulatorEntries = 0;

    /** Seed for the hash-function family's random tables. */
    uint64_t seed = 0xcafef00dULL;

    /** Occurrences needed within an interval to become a candidate. */
    uint64_t
    thresholdCount() const
    {
        const double t =
            static_cast<double>(intervalLength) * candidateThreshold;
        const auto count = static_cast<uint64_t>(std::ceil(t));
        return count == 0 ? 1 : count;
    }

    /**
     * Effective accumulator capacity (the Section 5.1 bound); saturates
     * at UINT64_MAX when ceil(1 / candidateThreshold) does not fit.
     */
    uint64_t
    accumulatorSize() const
    {
        if (accumulatorEntries != 0)
            return accumulatorEntries;
        const double derived = std::ceil(1.0 / candidateThreshold);
        if (!(derived < 0x1p64))
            return UINT64_MAX;
        const auto bound = static_cast<uint64_t>(derived);
        return bound == 0 ? 1 : bound;
    }

    /** Entries in each individual hash table. */
    uint64_t
    entriesPerTable() const
    {
        return totalHashEntries / numHashTables;
    }

    /**
     * Validate the configuration; an InvalidArgument Status names the
     * offending knob. Refuses what constructing a profiler would
     * abort on and accumulators above kMaxAccumulatorEntries, so a
     * config that passes always builds in bounded memory. This is
     * the path for untrusted configs (decoded plans, journals);
     * internal callers with trusted configs can keep using
     * validate().
     */
    Status
    check() const
    {
        if (intervalLength == 0)
            return Status::invalidArgument(
                "intervalLength must be positive");
        if (!(candidateThreshold > 0.0 && candidateThreshold <= 1.0))
            return Status::invalidArgument(
                "candidateThreshold must be in (0, 1]");
        if (numHashTables < 1)
            return Status::invalidArgument(
                "need at least one hash table");
        if (entriesPerTable() < 2 || !isPowerOfTwo(entriesPerTable()))
            return Status::invalidArgument(
                "entries per hash table (" +
                std::to_string(totalHashEntries) + " over " +
                std::to_string(numHashTables) +
                " tables) must be a power of two, at least 2");
        if (entriesPerTable() * numHashTables > UINT32_MAX)
            return Status::invalidArgument(
                "hash-table entries exceed 32-bit indexing");
        if (counterBits < 1 || counterBits > 64)
            return Status::invalidArgument("counterBits out of range");
        if (accumulatorSize() > kMaxAccumulatorEntries)
            return Status::invalidArgument(
                "a " + std::to_string(accumulatorSize()) +
                "-entry accumulator exceeds the " +
                std::to_string(kMaxAccumulatorEntries) +
                "-entry bound (raise candidateThreshold)");
        return Status::ok();
    }

    /**
     * check() plus two rules for configs arriving from outside (tool
     * flags, tenant Hellos). An interval holds at most UINT32_MAX
     * events, because the perfect profiler that scores it counts each
     * tuple in 32 bits. And a counter must be able to count up to
     * thresholdCount(): one that saturates below it never promotes
     * anything, and the profile comes back silently empty. Ablations
     * that build such configs on purpose go through check() alone.
     */
    Status
    checkAtEdge() const
    {
        MHP_RETURN_IF_ERROR(check());
        if (intervalLength > UINT32_MAX)
            return Status::invalidArgument(
                "intervalLength " + std::to_string(intervalLength) +
                " exceeds the " + std::to_string(UINT32_MAX) +
                " events an exact 32-bit count can score");
        const uint64_t saturation =
            counterBits >= 64 ? ~0ULL : (1ULL << counterBits) - 1;
        if (saturation < thresholdCount())
            return Status::invalidArgument(
                std::to_string(counterBits) + "-bit counters saturate "
                "at " + std::to_string(saturation) +
                ", below the threshold count " +
                std::to_string(thresholdCount()) +
                ": nothing could ever be promoted");
        return Status::ok();
    }

    /** Abort on nonsensical parameter combinations. */
    void
    validate() const
    {
        const Status status = check();
        MHP_REQUIRE(status.isOk(), status.message().c_str());
    }

    /** Compact description, e.g. "mh4 C1R0P1 2048e 1M/0.1%". */
    std::string
    describe() const
    {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%s%u C%dR%dP%d %llue %llu/%.4g%%",
                      numHashTables == 1 ? "sh" : "mh", numHashTables,
                      conservativeUpdate ? 1 : 0, resetOnPromote ? 1 : 0,
                      retaining ? 1 : 0,
                      static_cast<unsigned long long>(totalHashEntries),
                      static_cast<unsigned long long>(intervalLength),
                      candidateThreshold * 100.0);
        return buf;
    }
};

/**
 * The one wire encoding of a ProfilerConfig, shared by the service
 * Hello, the service journal (service/wal.h) and the sweep Plan
 * (analysis/sweep_wire.h): every field in declaration order at a
 * fixed width. SweepRunner::planFingerprint() keeps its own, older
 * encoding so existing checkpoints still resume.
 */
void encodeProfilerConfig(ByteBuffer &out, const ProfilerConfig &c);
bool decodeProfilerConfig(ByteCursor &cursor, ProfilerConfig &c);

} // namespace mhp

#endif // MHP_CORE_CONFIG_H
