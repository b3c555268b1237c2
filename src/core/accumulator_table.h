/**
 * @file
 * The fully-associative, tagged accumulator table (Section 5.2).
 *
 * Tuples whose hash counters cross the candidate threshold are promoted
 * here; from then on the table counts their exact occurrences
 * (shielding keeps them out of the hash tables entirely). The table's
 * capacity is bounded by the Section 5.1 argument: at most
 * 1/threshold tuples can exceed the threshold in an interval.
 *
 * Retaining (Section 5.4.1) keeps the previous interval's candidates
 * in the table as *replaceable* entries so recurring candidates never
 * touch the hash tables again; a retained entry is re-pinned (made
 * non-replaceable) once it crosses the threshold in the new interval.
 *
 * The paper's table is a hardware CAM: the shield check is a one-cycle
 * parallel tag compare. The software analogue is the probe index's
 * structure-of-arrays *tag group* layout (accum_layout in
 * core/ingest_kernels.h): all sixteen one-byte tags of a group are
 * contiguous, so the batched probe kernels compare a whole group per
 * vector instruction instead of walking a bucket chain. The layout is
 * kernel ABI — AccumulatorTable maintains the arrays, the per-tier
 * accumProbeBlock kernels search them, and probeView() is the bridge.
 */

#ifndef MHP_CORE_ACCUMULATOR_TABLE_H
#define MHP_CORE_ACCUMULATOR_TABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ingest_kernels.h"
#include "core/ingest_kernels_ref.h"
#include "core/profiler.h"
#include "support/bytes.h"
#include "support/status.h"
#include "trace/tuple.h"

namespace mhp {

/** Fully-associative table of candidate tuples with exact counters. */
class AccumulatorTable
{
  public:
    /**
     * @param capacity Maximum simultaneous entries.
     * @param thresholdCount Per-interval occurrences that make a tuple
     *        a candidate (controls replaceability and snapshots).
     * @param retaining Keep candidates across intervals (P1) or flush
     *        the whole table every interval (P0).
     */
    AccumulatorTable(uint64_t capacity, uint64_t thresholdCount,
                     bool retaining);

    /** probeSlot() result when the tuple has no entry. */
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /**
     * The tuple's slot number, or kNoSlot. Batched kernels probe a
     * whole block of events up front so the lookups' dependent load
     * chains overlap; a probed slot stays exact until the next
     * insert() (increments never change membership, and evictions
     * only happen inside insert()), so kernels must re-probe any
     * event after a mid-block promotion.
     */
    uint32_t
    probeSlot(const Tuple &t) const
    {
        return probeSlotHashed(t, TupleHash{}(t));
    }

    /**
     * probeSlot() with the tuple's TupleHash precomputed — batched
     * kernels hash a whole block in one SIMD pass (the tupleHashBlock
     * ingest kernel) and probe via the accumProbeBlock kernel; this
     * scalar form backs probeSlot() and is the kernels' reference.
     * `hash` must equal TupleHash{}(t).
     */
    uint32_t
    probeSlotHashed(const Tuple &t, uint64_t hash) const
    {
        return kernel_ref::accumProbeOne(probeView(), t, hash);
    }

    /**
     * The probe index in the accum_layout kernel format. The view is
     * invalidated by insert(), endInterval(), reset(), and
     * loadState(); probes against a stale view are the caller's bug.
     */
    AccumProbeView
    probeView() const
    {
        return {tags.data(), laneKeys.data(), laneSlots.data(),
                groupMask};
    }

    /**
     * The address of the tag group a hash lands on first, for software
     * prefetch ahead of probeSlotHashed(). Probing may continue past
     * this group on overflow; prefetching just the home group already
     * covers the common case.
     */
    const void *
    bucketAddr(uint64_t hash) const
    {
        return tags.data() + accum_layout::groupOf(hash, groupMask) *
                                 accum_layout::kGroupLanes;
    }

    /** Count an occurrence of the tuple known to sit in `slot`. */
    void
    incrementSlotHot(uint32_t slotIndex)
    {
        Slot &slot = slots[slotIndex];
        ++slot.count;
        // A retained entry that re-crosses the threshold is a
        // candidate again: pin it for the interval (Section 5.4.1).
        if (slot.replaceable && slot.count >= thresholdCount) {
            slot.replaceable = false;
            --replaceableCount;
        }
    }

    /** True if the tuple currently has an entry. */
    bool contains(const Tuple &t) const;

    /**
     * Promote a tuple with an initial count (the hash-counter value
     * that triggered promotion). Allocation prefers empty slots, then
     * evicts a replaceable entry; returns false when neither exists
     * (the event is dropped, per Section 5.2).
     */
    bool insert(const Tuple &t, uint64_t initialCount);

    /**
     * Close the interval: return the candidates (entries at or above
     * the threshold, canonically sorted) and apply the retention
     * policy for the next interval.
     */
    IntervalSnapshot endInterval();

    /** Drop everything, including retained entries. */
    void reset();

    uint64_t size() const { return entryCount; }
    uint64_t capacity() const { return slots.size(); }

    /** Number of promotions rejected for lack of space (statistics). */
    uint64_t droppedInsertions() const { return dropped; }

    /** Current count for a tuple, or 0 if absent (tests/analysis). */
    uint64_t countOf(const Tuple &t) const;

    /** Whether a present tuple is replaceable (tests). */
    bool isReplaceable(const Tuple &t) const;

    /**
     * The longest group chain a probe of `t` would walk right now
     * (1 = found in, or absent from, its home group). Exposes probe
     * cost to the tombstone-churn regression tests without exposing
     * the index internals.
     */
    size_t probeChainLength(const Tuple &t) const;

    /**
     * Soft-error hook (sim/fault_injector): XOR one bit of the
     * counter stored in a slot. Faults land on the raw storage only —
     * the threshold comparator runs on increments, so a flip never
     * re-pins an entry by itself. Flips into empty slots are absorbed
     * (insert() overwrites the count), mirroring real hardware.
     */
    void flipCountBit(uint64_t slotIndex, unsigned bit);

    /**
     * Serialize the slots (in index order), the free-slot stack (in
     * exact allocation order — insert() pops from the back and
     * endInterval() refills in ascending index order, so the order is
     * behaviour), and the dropped-promotion count. The probe index is
     * not stored; loadState() rebuilds it from the valid slots, which
     * reproduces membership exactly (tombstone layout only affects
     * probe latency, never results).
     */
    void saveState(ByteBuffer &out) const;

    /**
     * Restore state captured by saveState() on a table of identical
     * capacity. CorruptData when the capacity differs or the free-slot
     * stack is inconsistent with the slot validity bits.
     */
    Status loadState(ByteCursor &in);

  private:
    struct Slot
    {
        Tuple tuple;
        uint64_t count = 0;
        bool valid = false;
        bool replaceable = false;
    };

    static constexpr size_t kNoLane = SIZE_MAX;

    /** The flat lane index holding the tuple, or kNoLane. */
    size_t findLane(const Tuple &t) const;

    void indexInsert(const Tuple &t, uint32_t slotIndex);
    void indexErase(const Tuple &t);
    void indexClear();
    /** Re-pack the index from the valid slots, shedding tombstones. */
    void indexRebuild();

    std::vector<Slot> slots;

    /**
     * The tuple -> slot probe index, in the accum_layout tag-group
     * format (see the file comment): one tag byte per lane with the
     * group's sixteen tags contiguous, and the lane-parallel key and
     * slot arrays beside them. Groups are power-of-two counted and
     * sized so the load factor never exceeds 1/2; erases leave
     * tombstone lanes behind, and insert() re-packs the index before
     * tombstones exceed a quarter of the lanes, which bounds every
     * probe chain (an empty lane always exists within the wraparound).
     */
    std::vector<uint8_t> tags;
    std::vector<Tuple> laneKeys;
    std::vector<uint32_t> laneSlots;
    uint64_t groupMask = 0;
    uint64_t entryCount = 0;
    uint64_t tombstones = 0;
    /**
     * Number of slots with valid && replaceable set. Promotions are
     * attempted on every threshold crossing, and in steady state most
     * are drops (full table, everything pinned); the count makes that
     * common case O(1) instead of a scan over the slot array.
     */
    uint64_t replaceableCount = 0;
    std::vector<uint32_t> freeSlots;
    uint64_t thresholdCount;
    bool retaining;
    uint64_t dropped = 0;
};

} // namespace mhp

#endif // MHP_CORE_ACCUMULATOR_TABLE_H
