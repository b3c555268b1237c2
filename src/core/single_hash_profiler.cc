#include "core/single_hash_profiler.h"

#include <algorithm>

#include "core/area_model.h"
#include "support/panic.h"

namespace mhp {

SingleHashProfiler::SingleHashProfiler(const ProfilerConfig &config_)
    : config(config_), hasher(config_.seed, config_.totalHashEntries),
      table(config_.totalHashEntries, config_.counterBits),
      accumulator(config_.accumulatorSize(), config_.thresholdCount(),
                  config_.retaining),
      thresholdCount(config_.thresholdCount()),
      kernels(&ingestKernels())
{
    config.validate();
    MHP_REQUIRE(config.numHashTables == 1,
                "SingleHashProfiler requires numHashTables == 1");
    blockIndexScratch.resize(kIngestBlock);
    blockSlotScratch.resize(kIngestBlock);
    blockAbsentScratch.resize(kIngestBlock);
    blockTupleHashScratch.resize(kIngestBlock);
    blockDenseScratch.resize(kIngestBlock);
    blockHitScratch.resize(kIngestBlock);
}

template <bool Shielding, bool Reset>
void
SingleHashProfiler::ingestBatch(const Tuple *events, size_t count)
{
    // The profiler's one ingest path (onEvent() is a one-event
    // block), with the config branches resolved at compile time, the
    // hash indexes read out of the hasher's contribution table, the
    // probe vectorized (the active ISA tier's ingest kernels), and the
    // counter array accessed directly. Per event, the state
    // machine is: shield check in the accumulator; on a miss, bump
    // the tuple's saturating counter and promote it once the counter
    // reaches the threshold (zeroing the counter under R1). Without
    // shielding (ablation), accumulator hits also bump their counter.
    // Events are processed in blocks: all hash indexes for a block are
    // computed first (a pure function of each tuple, so hoisting them
    // is invisible), then the event state machine replays in stream
    // order.
    const IngestKernels &kern = *kernels;
    uint64_t *const counters = table.raw();
    uint32_t *const blk = blockIndexScratch.data();
    uint32_t *const slot = blockSlotScratch.data();
    uint32_t *const absent = blockAbsentScratch.data();
    uint64_t *const th = blockTupleHashScratch.data();
    const ContributionTable &packed = hasher.contributions();
    const uint64_t saturation = table.maxValue();
    const uint64_t threshold = thresholdCount;

    for (size_t base = 0; base < count; base += kIngestBlock) {
        const size_t m = std::min(kIngestBlock, count - base);
        const Tuple *const block = events + base;

        // Phase 1: accumulator membership for the whole block, so the
        // lookups' dependent load chains overlap. The tuple hashes
        // come from one vectorized pass, then the probe kernel
        // prefetches every home tag group and compares whole
        // sixteen-lane groups per instruction (the accum_layout SoA
        // index). The probed slots stay exact until the first
        // promotion below (increments never change membership), after
        // which the rest of the block falls back to live probes.
        // Absent events come back as a dense stream-order list for the
        // hash phase.
        kern.tupleHashBlock(block, m, th);
        // The single-hash state machine walks every event in order
        // (each absent event bumps its own counter), so the kernel's
        // hit list lands in scratch unused here.
        Tuple *const dense = blockDenseScratch.data();
        const size_t numAbsent = kern.accumProbeBlock(
            accumulator.probeView(), block, th, m, slot, absent, dense,
            blockHitScratch.data());

        // Phase 2: hash indexes — pure per-tuple computation, one
        // contribution-table pass per block. Under shielding, only events
        // absent from the accumulator need indexes — the probe kernel
        // already emitted them densely compacted, so the hash kernel's
        // loads and stores are sequential and blk[j] belongs to absent
        // event absent[j]; the ablation hashes everything and blk
        // stays event-indexed.
        if (Shielding)
            packed.indexBlock(dense, numAbsent, blk, 0);
        else
            packed.indexBlock(block, m, blk, 0);

        // Phase 3: the event state machine, strictly in stream order
        // (promotions change which later events are shielded). jj
        // tracks an event's dense row in blk; it advances for every
        // event that was absent at probe time, even one a mid-block
        // promotion now shields.
        bool reprobe = false;
        size_t jj = 0;
        for (size_t k = 0; k < m; ++k) {
            const Tuple &t = block[k];
            uint32_t idx;
            bool haveIdx;
            if (Shielding) {
                haveIdx = jj < numAbsent && absent[jj] == k;
                idx = haveIdx ? blk[jj++] : 0;
            } else {
                haveIdx = true;
                idx = blk[k];
            }
            const uint32_t s =
                reprobe ? accumulator.probeSlot(t) : slot[k];
            if (s != AccumulatorTable::kNoSlot) {
                accumulator.incrementSlotHot(s);
                if (!Shielding) {
                    uint64_t &c = counters[idx];
                    c += (c < saturation) ? 1 : 0;
                }
                continue;
            }
            if (Shielding && !haveIdx) {
                // Shielded at probe time but evicted by a mid-block
                // promotion: phase 2 skipped its index.
                idx = static_cast<uint32_t>(hasher.indexHot(t));
            }

            uint64_t &c = counters[idx];
            c += (c < saturation) ? 1 : 0;
            if (c >= threshold) {
                if (accumulator.insert(t, c)) {
                    // Membership changed: stop trusting probed slots.
                    reprobe = true;
                    if (Reset)
                        c = 0;
                }
            }
        }
    }
}

void
SingleHashProfiler::onEvents(const Tuple *events, size_t count)
{
    if (config.shielding) {
        if (config.resetOnPromote)
            ingestBatch<true, true>(events, count);
        else
            ingestBatch<true, false>(events, count);
    } else {
        if (config.resetOnPromote)
            ingestBatch<false, true>(events, count);
        else
            ingestBatch<false, false>(events, count);
    }
}

IntervalSnapshot
SingleHashProfiler::endInterval()
{
    if (config.flushHashTables)
        table.flush();
    return accumulator.endInterval();
}

void
SingleHashProfiler::reset()
{
    table.flush();
    accumulator.reset();
}

std::string
SingleHashProfiler::name() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "sh-R%dP%d",
                  config.resetOnPromote ? 1 : 0,
                  config.retaining ? 1 : 0);
    return buf;
}

uint64_t
SingleHashProfiler::areaBytes() const
{
    return estimateArea(config).total();
}

uint64_t
SingleHashProfiler::counterValueFor(const Tuple &t) const
{
    return table.value(hasher.index(t));
}

namespace {
/** saveState layout revision for SingleHashProfiler. */
constexpr uint8_t kShStateVersion = 1;
} // namespace

Status
SingleHashProfiler::saveState(ByteBuffer &out) const
{
    out.u8(kShStateVersion);
    table.saveState(out);
    accumulator.saveState(out);
    return Status::ok();
}

Status
SingleHashProfiler::loadState(ByteCursor &in)
{
    uint8_t version = 0;
    if (!in.u8(version))
        return Status::corruptData(
            "single-hash profiler state is truncated");
    if (version != kShStateVersion)
        return Status::corruptDataf(
            "single-hash profiler state version %u, this build "
            "writes %u",
            version, kShStateVersion);
    MHP_RETURN_IF_ERROR(table.loadState(in));
    return accumulator.loadState(in);
}

} // namespace mhp
