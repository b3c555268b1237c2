#include "core/multi_hash_profiler.h"

#include "core/ingest_kernels_ref.h"

#include <algorithm>

#include "core/area_model.h"
#include "support/panic.h"

namespace mhp {

MultiHashProfiler::MultiHashProfiler(const ProfilerConfig &config_)
    : config(config_),
      hashers(config_.seed, config_.numHashTables,
              config_.entriesPerTable()),
      accumulator(config_.accumulatorSize(), config_.thresholdCount(),
                  config_.retaining),
      thresholdCount(config_.thresholdCount())
{
    config.validate();
    const uint64_t entries = config.entriesPerTable();
    const uint64_t bankSize = entries * config.numHashTables;
    // The batched kernels carry pre-offset bank indexes in 32 bits.
    MHP_REQUIRE(bankSize <= UINT32_MAX,
                "counter bank exceeds 32-bit indexing");
    counterBank.resize(bankSize);
    tables.reserve(config.numHashTables);
    for (unsigned i = 0; i < config.numHashTables; ++i) {
        tables.emplace_back(counterBank.data() + i * entries, entries,
                            config.counterBits);
    }
    kernels = &ingestKernels();
    blockIndexScratch.resize(kIngestBlock * config.numHashTables);
    blockSlotScratch.resize(kIngestBlock);
    blockAbsentScratch.resize(kIngestBlock);
    blockHitScratch.resize(kIngestBlock);
    blockTupleHashScratch.resize(kIngestBlock);
    blockDenseScratch.resize(kIngestBlock);
    repairIndexScratch.resize(config.numHashTables);
}

template <bool Conservative, bool Reset, bool Shielding>
void
MultiHashProfiler::ingestBatch(const Tuple *events, size_t count)
{
    // The profiler's one ingest path (onEvent() is a one-event
    // block), with the config branches resolved at compile time, the
    // hash indexes read out of the family's contribution table, the
    // probe and counter updates vectorized (the active ISA tier's
    // ingest kernels), and the counter bank accessed through one base
    // pointer. Per event, the state machine is: shield check
    // in the accumulator; on a miss, bump the tuple's n saturating
    // counters (under C1 only those at the current minimum, ties all
    // advancing) and promote it once the minimum reaches the
    // threshold (zeroing its n counters under R1). Without shielding
    // (ablation), accumulator hits also bump all n counters. Events
    // are processed in blocks of kIngestBlock: all hash indexes for a
    // block are computed first (a pure function of each tuple, so
    // hoisting them is invisible), then the event state machine
    // replays in stream order.
    const IngestKernels &kern = *kernels;
    const ContributionTable &packed = hashers.contributions();
    const unsigned n = static_cast<unsigned>(tables.size());
    uint64_t *const bank = counterBank.data();
    uint32_t *const blk = blockIndexScratch.data();
    uint32_t *const slot = blockSlotScratch.data();
    uint32_t *const absent = blockAbsentScratch.data();
    uint32_t *const hits = blockHitScratch.data();
    uint64_t *const th = blockTupleHashScratch.data();
    const unsigned bits = hashers.indexBits();
    const uint32_t entries =
        static_cast<uint32_t>(config.entriesPerTable());
    const uint64_t saturation = tables[0].maxValue();
    const uint64_t threshold = thresholdCount;

    for (size_t base = 0; base < count; base += kIngestBlock) {
        const size_t m = std::min(kIngestBlock, count - base);
        const Tuple *const block = events + base;

        // Phase 1: accumulator membership for the whole block, so the
        // lookups' dependent load chains overlap instead of
        // interleaving with table updates. The tuple hashes come from
        // one vectorized pass, then the probe kernel prefetches every
        // home tag group and compares whole sixteen-lane groups per
        // instruction (the accum_layout SoA index). The probed slots
        // stay exact until the first promotion below (increments never
        // change membership), after which the rest of the block falls
        // back to live probes. Absent events come back as a dense
        // stream-order list so the hash phase runs without
        // data-dependent branches.
        kern.tupleHashBlock(block, m, th);
        Tuple *const dense = blockDenseScratch.data();
        const size_t numAbsent = kern.accumProbeBlock(
            accumulator.probeView(), block, th, m, slot, absent, dense,
            hits);
        const size_t numHits = m - numAbsent;

        // Phase 2: hash indexes. Pure per-tuple computation with no
        // profiler state: one pass over the contribution table yields
        // all n indexes of a tuple (16 loads of packed, pre-folded
        // fields); the i*entries addend stride pre-offsets each index
        // into the counter bank's structure-of-arrays layout. Under
        // shielding, accumulator-resident events never touch the hash
        // tables, so only absent events are hashed — the probe kernel
        // already emitted them densely compacted, so the kernel's
        // loads and stores are sequential instead of gathered through
        // the position list, and blk row j belongs to absent event
        // absent[j] (events whose probe goes stale through an eviction
        // are repaired in phase 3). The ablation pressures the tables
        // with every event, so everything is hashed and blk stays
        // event-indexed.
        if (Shielding)
            packed.indexBlock(dense, numAbsent, blk, entries);
        else
            packed.indexBlock(block, m, blk, entries);

        // Phase 3: the event state machine. Promotions change which
        // later events the accumulator shields, so crossings are
        // handled strictly in stream order. The n counters of an
        // event live at distinct bank offsets (disjoint per-table
        // segments), which is what lets the bump kernels gather,
        // update, and scatter them as a vector.
        if (Shielding) {
            // Under shielding, hits touch only the accumulator and
            // absent events touch only the counter bank, so the two
            // interleave freely *between* threshold crossings: the
            // block-bump kernel drains runs of absent events in one
            // call and stops at the first counter-minimum to reach the
            // threshold. Hits are then replayed up to the crossing
            // (their re-pinning must precede the promotion's eviction
            // choice) before the promotion itself is attempted. The
            // replay walks the probe kernel's dense hit list instead
            // of re-testing every event's slot — the per-event
            // hit-or-absent branch is unpredictable (the stream is a
            // ~30/70 mix), the list bound is not.
            size_t hi = 0; // next hit-list entry owed its increment
            size_t aj = 0; // next absent-list entry owed its bump
            for (;;) {
                uint64_t stopMin = 0;
                const size_t j =
                    Conservative
                        ? kern.bumpMinConservativeBlock(
                              bank, blk, n, aj, numAbsent, saturation,
                              threshold, &stopMin)
                        : kern.bumpMinBlock(bank, blk, n, aj, numAbsent,
                                            saturation, threshold,
                                            &stopMin);
                const size_t stopEvent =
                    j < numAbsent ? absent[j] : m;
                for (; hi < numHits && hits[hi] < stopEvent; ++hi)
                    accumulator.incrementSlotHot(slot[hits[hi]]);
                if (j >= numAbsent)
                    break;

                // Event stopEvent crossed the threshold in every
                // table (its bump was applied by the kernel).
                const Tuple &t = block[stopEvent];
                uint32_t *const idx = blk + j * n;
                aj = j + 1;
                if (!accumulator.insert(t, stopMin))
                    continue; // dropped: membership unchanged
                if (Reset) {
                    for (unsigned i = 0; i < n; ++i)
                        bank[idx[i]] = 0;
                }

                // Membership changed (insertion, possibly an
                // eviction): the probed slots and the absent list are
                // stale. Finish the block sequentially on live probes
                // (rare — a handful of promotions per interval). jj
                // tracks the event's dense row in blk; it advances for
                // every event that was absent at probe time, even one
                // the just-inserted tuple now shields.
                size_t jj = j + 1;
                for (size_t k = stopEvent + 1; k < m; ++k) {
                    const Tuple &tk = block[k];
                    uint32_t *kidx = nullptr;
                    if (jj < numAbsent && absent[jj] == k)
                        kidx = blk + (jj++) * n;
                    const uint32_t s = accumulator.probeSlot(tk);
                    if (s != AccumulatorTable::kNoSlot) {
                        accumulator.incrementSlotHot(s);
                        continue;
                    }
                    if (kidx == nullptr) {
                        // Shielded at probe time but evicted above:
                        // phase 2 skipped its indexes.
                        kidx = repairIndexScratch.data();
                        kernel_ref::indexMulti(hashers.tableWords(), n,
                                               bits, tk, entries, kidx);
                    }
                    const uint64_t newMin =
                        Conservative
                            ? kernel_ref::bumpMinConservative(
                                  bank, kidx, n, saturation)
                            : kernel_ref::bumpMin(bank, kidx, n,
                                                  saturation);
                    if (newMin >= threshold) {
                        if (accumulator.insert(tk, newMin) && Reset) {
                            for (unsigned i = 0; i < n; ++i)
                                bank[kidx[i]] = 0;
                        }
                    }
                }
                break;
            }
            continue;
        }

        // Ablation (!Shielding): hits also pressure the hash tables,
        // and the conservative update reads the minima hits produce,
        // so hit and absent bank updates cannot be reordered — the
        // state machine replays strictly event by event, through the
        // reference bump bodies.
        bool reprobe = false;
        for (size_t k = 0; k < m; ++k) {
            const Tuple &t = block[k];
            uint32_t *const idx = blk + k * n;
            const uint32_t s =
                reprobe ? accumulator.probeSlot(t) : slot[k];
            if (s != AccumulatorTable::kNoSlot) {
                accumulator.incrementSlotHot(s);
                // Keep pressuring the hash tables.
                kernel_ref::bumpMin(bank, idx, n, saturation);
                continue;
            }

            const uint64_t newMin =
                Conservative
                    ? kernel_ref::bumpMinConservative(bank, idx, n,
                                                      saturation)
                    : kernel_ref::bumpMin(bank, idx, n, saturation);

            // Promotion requires every table's counter at threshold.
            if (newMin >= threshold) {
                if (accumulator.insert(t, newMin)) {
                    // Membership changed: the block's probed slots are
                    // no longer trustworthy (insertion or eviction).
                    reprobe = true;
                    if (Reset) {
                        for (unsigned i = 0; i < n; ++i)
                            bank[idx[i]] = 0;
                    }
                }
            }
        }
    }
}

void
MultiHashProfiler::onEvents(const Tuple *events, size_t count)
{
    const unsigned key = (config.conservativeUpdate ? 4u : 0u) |
                         (config.resetOnPromote ? 2u : 0u) |
                         (config.shielding ? 1u : 0u);
    switch (key) {
      case 0u: ingestBatch<false, false, false>(events, count); break;
      case 1u: ingestBatch<false, false, true>(events, count); break;
      case 2u: ingestBatch<false, true, false>(events, count); break;
      case 3u: ingestBatch<false, true, true>(events, count); break;
      case 4u: ingestBatch<true, false, false>(events, count); break;
      case 5u: ingestBatch<true, false, true>(events, count); break;
      case 6u: ingestBatch<true, true, false>(events, count); break;
      case 7u: ingestBatch<true, true, true>(events, count); break;
    }
}

IntervalSnapshot
MultiHashProfiler::endInterval()
{
    if (config.flushHashTables) {
        for (auto &table : tables)
            table.flush();
    }
    return accumulator.endInterval();
}

void
MultiHashProfiler::reset()
{
    for (auto &table : tables)
        table.flush();
    accumulator.reset();
}

std::string
MultiHashProfiler::name() const
{
    char buf[64];
    // One table is the single-hash design, where C has no effect.
    if (config.numHashTables == 1) {
        std::snprintf(buf, sizeof(buf), "sh-R%dP%d",
                      config.resetOnPromote ? 1 : 0,
                      config.retaining ? 1 : 0);
        return buf;
    }
    std::snprintf(buf, sizeof(buf), "mh%u-C%dR%dP%d",
                  config.numHashTables,
                  config.conservativeUpdate ? 1 : 0,
                  config.resetOnPromote ? 1 : 0,
                  config.retaining ? 1 : 0);
    return buf;
}

uint64_t
MultiHashProfiler::areaBytes() const
{
    return estimateArea(config).total();
}

uint64_t
MultiHashProfiler::estimateCount(const Tuple &t) const
{
    if (accumulator.contains(t))
        return accumulator.countOf(t);
    return minCounterFor(t);
}

uint64_t
MultiHashProfiler::counterValueIn(unsigned table, const Tuple &t) const
{
    MHP_ASSERT(table < tables.size(), "table index out of range");
    return tables[table].value(hashers.function(table).index(t));
}

uint64_t
MultiHashProfiler::minCounterFor(const Tuple &t) const
{
    uint64_t minVal = ~0ULL;
    for (unsigned i = 0; i < tables.size(); ++i) {
        minVal = std::min(minVal,
                          tables[i].value(hashers.function(i).index(t)));
    }
    return minVal;
}

namespace {
/** saveState layout revision for MultiHashProfiler. */
constexpr uint8_t kMhStateVersion = 1;
} // namespace

Status
MultiHashProfiler::saveState(ByteBuffer &out) const
{
    out.u8(kMhStateVersion);
    // A one-table blob keeps the single-hash layout: no table count.
    if (tables.size() > 1)
        out.u32(static_cast<uint32_t>(tables.size()));
    for (const CounterTable &table : tables)
        table.saveState(out);
    accumulator.saveState(out);
    return Status::ok();
}

Status
MultiHashProfiler::loadState(ByteCursor &in)
{
    uint8_t version = 0;
    uint32_t tableCount = 1;
    if (!in.u8(version) || (tables.size() > 1 && !in.u32(tableCount)))
        return Status::corruptData(
            "multi-hash profiler state is truncated");
    if (version != kMhStateVersion)
        return Status::corruptDataf(
            "multi-hash profiler state version %u, this build "
            "writes %u",
            version, kMhStateVersion);
    if (tableCount != tables.size())
        return Status::corruptDataf(
            "multi-hash profiler state holds %u tables, this "
            "configuration %zu",
            tableCount, tables.size());
    for (CounterTable &table : tables)
        MHP_RETURN_IF_ERROR(table.loadState(in));
    return accumulator.loadState(in);
}

} // namespace mhp
