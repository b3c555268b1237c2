#include "core/accumulator_table.h"

#include <algorithm>

#include "support/bit_util.h"
#include "support/panic.h"

namespace mhp {

using accum_layout::fullTag;
using accum_layout::groupOf;
using accum_layout::kEmptyTag;
using accum_layout::kGroupLanes;
using accum_layout::kTombstoneTag;

AccumulatorTable::AccumulatorTable(uint64_t capacity,
                                   uint64_t thresholdCount_,
                                   bool retaining_)
    : thresholdCount(thresholdCount_), retaining(retaining_)
{
    MHP_REQUIRE(capacity >= 1, "accumulator needs capacity");
    MHP_REQUIRE(thresholdCount >= 1, "threshold must be positive");
    slots.resize(capacity);
    // Size the group index so entries fill at most half the lanes and
    // (with the quarter-of-lanes tombstone bound maintained by
    // insert()) at least a quarter of the lanes stay empty — every
    // probe chain therefore terminates, and almost every probe ends in
    // its home group.
    const uint64_t wantedGroups = (capacity + kGroupLanes / 2 - 1) /
                                  (kGroupLanes / 2);
    const size_t numGroups = size_t{1} << ceilLog2(wantedGroups);
    const size_t lanes = numGroups * kGroupLanes;
    tags.assign(lanes, kEmptyTag);
    // One pad lane past the end: branch-free probe kernels read the
    // lane at ctz(matchMask | 1 << kGroupLanes) unconditionally, which
    // is lane base+16 when a group has no tag match (AccumProbeView).
    laneKeys.resize(lanes + 1);
    laneSlots.resize(lanes + 1);
    groupMask = numGroups - 1;
    freeSlots.reserve(capacity);
    for (uint64_t i = capacity; i-- > 0;)
        freeSlots.push_back(static_cast<uint32_t>(i));
}

size_t
AccumulatorTable::findLane(const Tuple &t) const
{
    const uint64_t hash = TupleHash{}(t);
    const uint8_t tag = fullTag(hash);
    size_t g = groupOf(hash, groupMask);
    for (;;) {
        const size_t base = g * kGroupLanes;
        bool anyEmpty = false;
        for (size_t l = 0; l < kGroupLanes; ++l) {
            const uint8_t laneTag = tags[base + l];
            if (laneTag == tag && laneKeys[base + l] == t)
                return base + l;
            anyEmpty |= laneTag == kEmptyTag;
        }
        if (anyEmpty)
            return kNoLane;
        g = (g + 1) & groupMask;
    }
}

void
AccumulatorTable::indexInsert(const Tuple &t, uint32_t slotIndex)
{
    // Precondition: t is not present (AccumulatorTable::insert asserts
    // it). The key must land no later than the first group a lookup
    // could stop at (the first group with an empty lane), so the scan
    // remembers the earliest tombstone on the way and reuses it when
    // the stopping group is reached.
    const uint64_t hash = TupleHash{}(t);
    size_t g = groupOf(hash, groupMask);
    size_t lane = kNoLane;
    for (;;) {
        const size_t base = g * kGroupLanes;
        size_t emptyLane = kNoLane;
        for (size_t l = 0; l < kGroupLanes; ++l) {
            const uint8_t laneTag = tags[base + l];
            if (laneTag == kEmptyTag) {
                emptyLane = base + l;
                break;
            }
            if (lane == kNoLane && laneTag == kTombstoneTag)
                lane = base + l;
        }
        if (emptyLane != kNoLane) {
            if (lane == kNoLane)
                lane = emptyLane;
            break;
        }
        if (lane != kNoLane)
            break;
        g = (g + 1) & groupMask;
    }
    if (tags[lane] == kTombstoneTag)
        --tombstones;
    tags[lane] = fullTag(hash);
    laneKeys[lane] = t;
    laneSlots[lane] = slotIndex;
    ++entryCount;
}

void
AccumulatorTable::indexErase(const Tuple &t)
{
    const size_t lane = findLane(t);
    MHP_ASSERT(lane != kNoLane, "erasing an absent tuple");
    tags[lane] = kTombstoneTag;
    ++tombstones;
    --entryCount;
}

void
AccumulatorTable::indexClear()
{
    std::fill(tags.begin(), tags.end(), kEmptyTag);
    entryCount = 0;
    tombstones = 0;
}

void
AccumulatorTable::indexRebuild()
{
    indexClear();
    for (uint32_t i = 0; i < slots.size(); ++i) {
        if (slots[i].valid)
            indexInsert(slots[i].tuple, i);
    }
}

bool
AccumulatorTable::incrementIfPresent(const Tuple &t)
{
    return incrementIfPresentHot(t);
}

bool
AccumulatorTable::contains(const Tuple &t) const
{
    return findLane(t) != kNoLane;
}

bool
AccumulatorTable::insert(const Tuple &t, uint64_t initialCount)
{
    // Steady state is a full table with every entry pinned, and every
    // threshold crossing retries the promotion — the drop path must be
    // O(1), not a slot scan.
    if (freeSlots.empty() && replaceableCount == 0) {
        ++dropped;
        return false;
    }

    MHP_ASSERT(!contains(t), "inserting an already-present tuple");

    uint32_t victim;
    if (!freeSlots.empty()) {
        victim = freeSlots.back();
        freeSlots.pop_back();
    } else {
        // Evict any replaceable (retained, not-yet-candidate) entry.
        uint32_t found = UINT32_MAX;
        for (uint32_t i = 0; i < slots.size(); ++i) {
            if (slots[i].valid && slots[i].replaceable) {
                found = i;
                break;
            }
        }
        MHP_ASSERT(found != UINT32_MAX,
                   "replaceableCount positive but no replaceable slot");
        indexErase(slots[found].tuple);
        victim = found;
        --replaceableCount;
    }

    // Evictions leave tombstone lanes behind; re-pack the index before
    // they exceed a quarter of the lanes so probe chains stay bounded
    // (rare — tombstones only accrue through mid-interval evictions).
    if (tombstones * 4 > tags.size())
        indexRebuild();

    Slot &slot = slots[victim];
    slot.tuple = t;
    slot.count = initialCount;
    slot.valid = true;
    // Promoted entries are non-replaceable for the rest of the
    // interval (Section 5.2); a promotion implies the threshold was
    // crossed, so this matches the re-pinning rule as well.
    slot.replaceable = initialCount < thresholdCount;
    if (slot.replaceable)
        ++replaceableCount;
    indexInsert(t, victim);
    return true;
}

IntervalSnapshot
AccumulatorTable::endInterval()
{
    IntervalSnapshot out;
    out.reserve(entryCount);
    for (auto &slot : slots) {
        if (slot.valid && slot.count >= thresholdCount)
            out.push_back({slot.tuple, slot.count});
    }
    canonicalize(out);

    if (!retaining) {
        // P0: flush the whole table.
        for (auto &slot : slots)
            slot.valid = false;
        indexClear();
        replaceableCount = 0;
        freeSlots.clear();
        for (uint64_t i = slots.size(); i-- > 0;)
            freeSlots.push_back(static_cast<uint32_t>(i));
        return out;
    }

    // P1: drop sub-threshold entries, keep candidates as replaceable
    // zero-count entries for the next interval. The index is rebuilt
    // from the surviving slots (cheaper than per-entry erases, and it
    // sheds any tombstones).
    indexClear();
    replaceableCount = 0;
    for (uint32_t i = 0; i < slots.size(); ++i) {
        Slot &slot = slots[i];
        if (!slot.valid)
            continue;
        if (slot.count < thresholdCount) {
            slot.valid = false;
            freeSlots.push_back(i);
        } else {
            slot.count = 0;
            slot.replaceable = true;
            ++replaceableCount;
            indexInsert(slot.tuple, i);
        }
    }
    return out;
}

void
AccumulatorTable::reset()
{
    for (auto &slot : slots)
        slot.valid = false;
    indexClear();
    replaceableCount = 0;
    freeSlots.clear();
    for (uint64_t i = slots.size(); i-- > 0;)
        freeSlots.push_back(static_cast<uint32_t>(i));
    dropped = 0;
}

void
AccumulatorTable::flipCountBit(uint64_t slotIndex, unsigned bit)
{
    MHP_ASSERT(slotIndex < slots.size(), "fault slot out of range");
    MHP_ASSERT(bit < 64, "fault bit out of range");
    slots[slotIndex].count ^= 1ULL << bit;
}

void
AccumulatorTable::saveState(ByteBuffer &out) const
{
    out.u64(slots.size());
    for (const Slot &slot : slots) {
        out.u64(slot.tuple.first);
        out.u64(slot.tuple.second);
        out.u64(slot.count);
        out.u8(slot.valid ? 1 : 0);
        out.u8(slot.replaceable ? 1 : 0);
    }
    out.u64(freeSlots.size());
    for (uint32_t index : freeSlots)
        out.u32(index);
    out.u64(dropped);
}

Status
AccumulatorTable::loadState(ByteCursor &in)
{
    const Status bad =
        Status::corruptData("accumulator state is truncated");
    uint64_t capacity = 0;
    if (!in.u64(capacity))
        return bad;
    if (capacity != slots.size())
        return Status::corruptDataf(
            "accumulator state holds %llu slots, this table %llu",
            static_cast<unsigned long long>(capacity),
            static_cast<unsigned long long>(slots.size()));

    std::vector<Slot> loaded(slots.size());
    for (Slot &slot : loaded) {
        uint8_t valid = 0;
        uint8_t replaceable = 0;
        if (!(in.u64(slot.tuple.first) && in.u64(slot.tuple.second) &&
              in.u64(slot.count) && in.u8(valid) &&
              in.u8(replaceable)))
            return bad;
        slot.valid = valid != 0;
        slot.replaceable = replaceable != 0;
    }

    uint64_t freeCount = 0;
    if (!in.u64(freeCount) || freeCount > slots.size())
        return bad;
    std::vector<uint32_t> loadedFree(
        static_cast<size_t>(freeCount));
    std::vector<uint8_t> seen(slots.size(), 0);
    for (uint32_t &index : loadedFree) {
        if (!in.u32(index))
            return bad;
        // Every free index must name a distinct invalid slot, or the
        // allocator would hand out live storage after restore.
        if (index >= slots.size() || loaded[index].valid ||
            seen[index] != 0)
            return Status::corruptData(
                "accumulator state free-slot stack is inconsistent "
                "with its slot validity bits");
        seen[index] = 1;
    }
    uint64_t invalid = 0;
    for (const Slot &slot : loaded)
        if (!slot.valid)
            ++invalid;
    if (invalid != freeCount)
        return Status::corruptData(
            "accumulator state free-slot stack does not cover every "
            "empty slot");

    uint64_t loadedDropped = 0;
    if (!in.u64(loadedDropped))
        return bad;

    slots = std::move(loaded);
    freeSlots = std::move(loadedFree);
    dropped = loadedDropped;
    replaceableCount = 0;
    for (const Slot &slot : slots)
        if (slot.valid && slot.replaceable)
            ++replaceableCount;
    indexClear();
    for (uint32_t i = 0; i < slots.size(); ++i) {
        if (!slots[i].valid)
            continue;
        if (contains(slots[i].tuple)) {
            // Roll back to an empty table rather than leave a probe
            // index with duplicate keys behind.
            reset();
            return Status::corruptData(
                "accumulator state holds duplicate tuples");
        }
        indexInsert(slots[i].tuple, i);
    }
    return Status::ok();
}

uint64_t
AccumulatorTable::countOf(const Tuple &t) const
{
    const size_t lane = findLane(t);
    return lane == kNoLane ? 0 : slots[laneSlots[lane]].count;
}

bool
AccumulatorTable::isReplaceable(const Tuple &t) const
{
    const size_t lane = findLane(t);
    MHP_ASSERT(lane != kNoLane, "tuple not present");
    return slots[laneSlots[lane]].replaceable;
}

size_t
AccumulatorTable::probeChainLength(const Tuple &t) const
{
    const uint64_t hash = TupleHash{}(t);
    const uint8_t tag = fullTag(hash);
    size_t g = groupOf(hash, groupMask);
    for (size_t visited = 1;; ++visited) {
        const size_t base = g * kGroupLanes;
        bool anyEmpty = false;
        for (size_t l = 0; l < kGroupLanes; ++l) {
            const uint8_t laneTag = tags[base + l];
            if (laneTag == tag && laneKeys[base + l] == t)
                return visited;
            anyEmpty |= laneTag == kEmptyTag;
        }
        if (anyEmpty)
            return visited;
        MHP_ASSERT(visited <= groupMask + 1,
                   "probe chain exceeds the group count");
        g = (g + 1) & groupMask;
    }
}

} // namespace mhp
