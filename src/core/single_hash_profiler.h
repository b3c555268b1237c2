/**
 * @file
 * The Single-Hash interval profiler (paper Section 5, Figure 2).
 *
 * One untagged counter table feeds a fully-associative accumulator
 * table. An incoming tuple is first checked in the accumulator
 * (shielding); on a miss it hashes into the counter table and
 * increments its counter. A counter reaching the candidate threshold
 * promotes the tuple into the accumulator. Optional behaviours:
 *
 *  - retaining (P1): carry the interval's candidates into the next
 *    interval as replaceable entries (Section 5.4.1);
 *  - resetting (R1): zero the hash counter on promotion so aliased
 *    tuples are not dragged in as false positives (Section 5.4.2).
 */

#ifndef MHP_CORE_SINGLE_HASH_PROFILER_H
#define MHP_CORE_SINGLE_HASH_PROFILER_H

#include <string>
#include <vector>

#include "core/accumulator_table.h"
#include "core/config.h"
#include "core/counter_table.h"
#include "core/hash_function.h"
#include "core/ingest_kernels.h"
#include "core/profiler.h"

namespace mhp {

/** Single hash-table hardware profiler. */
class SingleHashProfiler : public HardwareProfiler
{
  public:
    /**
     * Build from a config; numHashTables must be 1 (use
     * MultiHashProfiler otherwise).
     */
    explicit SingleHashProfiler(const ProfilerConfig &config);

    void onEvent(const Tuple &t) override { onEvents(&t, 1); }
    void onEvents(const Tuple *events, size_t count) override;
    IntervalSnapshot endInterval() override;
    void reset() override;
    std::string name() const override;
    uint64_t areaBytes() const override;

    const ProfilerConfig &configuration() const { return config; }

    /** Raw counter value a tuple currently hashes to (tests). */
    uint64_t counterValueFor(const Tuple &t) const;

    /** Promotions rejected because the accumulator was full. */
    uint64_t droppedPromotions() const
    {
        return accumulator.droppedInsertions();
    }

    /** The hash table and accumulator, for soft-error injection. */
    FaultTargets
    faultTargets() override
    {
        return {{&table}, &accumulator};
    }

    /**
     * Mid-stream state capture/restore for daemon crash recovery:
     * the hash counters and the accumulator (the hasher and kernels
     * are pure functions of the config). See HardwareProfiler.
     */
    Status saveState(ByteBuffer &out) const override;
    Status loadState(ByteCursor &in) override;

  private:
    /** Events per batched-ingest precompute block. */
    static constexpr size_t kIngestBlock = 256;

    /** The onEvents() kernel with the config flags baked in. */
    template <bool Shielding, bool Reset>
    void ingestBatch(const Tuple *events, size_t count);

    ProfilerConfig config;
    TupleHasher hasher;
    CounterTable table;
    AccumulatorTable accumulator;
    uint64_t thresholdCount;
    /** The active ISA tier's kernels, resolved at construction. */
    const IngestKernels *kernels;
    /** kIngestBlock precomputed indexes. */
    std::vector<uint32_t> blockIndexScratch;
    /** kIngestBlock precomputed accumulator slots. */
    std::vector<uint32_t> blockSlotScratch;
    /** Positions of non-shielded events in a block. */
    std::vector<uint32_t> blockAbsentScratch;
    /** kIngestBlock precomputed TupleHash values. */
    std::vector<uint64_t> blockTupleHashScratch;
    /**
     * The absent events of a block compacted densely in stream order
     * for the hash kernel (shielded path).
     */
    std::vector<Tuple> blockDenseScratch;
    /** Hit-position list the probe kernel emits (unused here). */
    std::vector<uint32_t> blockHitScratch;
};

} // namespace mhp

#endif // MHP_CORE_SINGLE_HASH_PROFILER_H
