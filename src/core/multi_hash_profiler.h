/**
 * @file
 * The Multi-Hash interval profiler (paper Section 6, Figure 8).
 *
 * n untagged counter tables, each with an independent hash function,
 * front-end the accumulator table. A tuple is promoted only when the
 * counters in *all* n tables reach the candidate threshold — two
 * tuples that alias in one table almost surely separate in another,
 * which is what collapses the false-positive rate (the Estan-Varghese
 * multistage-filter insight applied to profiling).
 *
 * Optional behaviours:
 *  - conservative update (C1): increment only the counter(s) holding
 *    the minimum value among the tuple's n counters (Section 6.1);
 *  - resetting (R1): zero all n counters on promotion;
 *  - retaining (P1): as in the single-hash design.
 */

#ifndef MHP_CORE_MULTI_HASH_PROFILER_H
#define MHP_CORE_MULTI_HASH_PROFILER_H

#include <string>
#include <vector>

#include "core/accumulator_table.h"
#include "core/config.h"
#include "core/counter_table.h"
#include "core/hash_function.h"
#include "core/ingest_kernels.h"
#include "core/profiler.h"

namespace mhp {

/** Multiple hash-table hardware profiler. */
class MultiHashProfiler : public HardwareProfiler
{
  public:
    explicit MultiHashProfiler(const ProfilerConfig &config);

    void onEvent(const Tuple &t) override;
    void onEvents(const Tuple *events, size_t count) override;
    IntervalSnapshot endInterval() override;
    void reset() override;
    std::string name() const override;
    uint64_t areaBytes() const override;

    const ProfilerConfig &configuration() const { return config; }

    /**
     * Point estimate of a tuple's occurrences so far this interval
     * (Estan-Varghese style): the exact accumulator count if the tuple
     * was promoted, otherwise the minimum of its hash counters (an
     * upper bound under conservative update). Usable mid-interval by
     * hardware that wants a "how hot is this?" answer on demand.
     */
    uint64_t estimateCount(const Tuple &t) const;

    /** Minimum counter value across tables for a tuple (tests). */
    uint64_t minCounterFor(const Tuple &t) const;

    /** Counter value a tuple hashes to in one specific table (tests). */
    uint64_t counterValueIn(unsigned table, const Tuple &t) const;

    /** Promotions rejected because the accumulator was full. */
    uint64_t droppedPromotions() const
    {
        return accumulator.droppedInsertions();
    }

    /** All n hash tables and the accumulator, for fault injection. */
    FaultTargets
    faultTargets() override
    {
        FaultTargets targets;
        for (CounterTable &table : tables)
            targets.counterTables.push_back(&table);
        targets.accumulator = &accumulator;
        return targets;
    }

    /**
     * Mid-stream state capture/restore for daemon crash recovery:
     * all n counter tables (the CounterBank) and the accumulator.
     * See HardwareProfiler.
     */
    Status saveState(ByteBuffer &out) const override;
    Status loadState(ByteCursor &in) override;

  private:
    /** Events per batched-ingest precompute block. */
    static constexpr size_t kIngestBlock = 256;

    /** The onEvents() kernel with the config flags baked in. */
    template <bool Conservative, bool Reset, bool Shielding>
    void ingestBatch(const Tuple *events, size_t count);

    ProfilerConfig config;
    TupleHasherFamily hashers;
    /**
     * The CounterBank (docs/PERF.md): all n tables' counters in one
     * structure-of-arrays block, table i at offset i*entriesPerTable.
     * Hash indexes are produced pre-offset into this block, so the
     * counter kernels update all of a tuple's counters from one base
     * pointer. `tables` are views into the bank.
     */
    std::vector<uint64_t> counterBank;
    std::vector<CounterTable> tables;
    AccumulatorTable accumulator;
    uint64_t thresholdCount;
    /** The active ISA tier's kernels, resolved at construction. */
    const IngestKernels *kernels;
    std::vector<uint64_t> indexScratch;
    /** kIngestBlock x numTables precomputed indexes (batched only). */
    std::vector<uint32_t> blockIndexScratch;
    /** kIngestBlock precomputed accumulator slots (batched only). */
    std::vector<uint32_t> blockSlotScratch;
    /** Positions of non-shielded events in a block (batched only). */
    std::vector<uint32_t> blockAbsentScratch;
    /** Positions of accumulator-hit events in a block (batched only). */
    std::vector<uint32_t> blockHitScratch;
    /** kIngestBlock precomputed TupleHash values (batched only). */
    std::vector<uint64_t> blockTupleHashScratch;
    /**
     * The absent events of a block compacted densely in stream order,
     * so the hash kernel runs its sequential (pos == nullptr) form and
     * the bump kernels read their indexes back-to-back (batched only,
     * shielded path).
     */
    std::vector<Tuple> blockDenseScratch;
    /** One event's n recomputed indexes (stale-probe repair). */
    std::vector<uint32_t> repairIndexScratch;
};

} // namespace mhp

#endif // MHP_CORE_MULTI_HASH_PROFILER_H
