#include "core/counter_table.h"

#include <algorithm>

#include "support/panic.h"

namespace mhp {

namespace {

uint64_t
checkedSaturation(uint64_t entries, unsigned counterBits)
{
    MHP_REQUIRE(entries >= 1, "counter table needs entries");
    MHP_REQUIRE(counterBits >= 1 && counterBits <= 64,
                "counter width out of range");
    return counterBits >= 64 ? ~0ULL : (1ULL << counterBits) - 1;
}

} // namespace

CounterTable::CounterTable(uint64_t entries, unsigned counterBits)
    : own(entries, 0), counts(own.data()), numEntries(entries),
      saturation(checkedSaturation(entries, counterBits))
{
}

CounterTable::CounterTable(uint64_t *storage, uint64_t entries,
                           unsigned counterBits)
    : counts(storage), numEntries(entries),
      saturation(checkedSaturation(entries, counterBits))
{
    std::fill_n(counts, numEntries, 0);
}

void
CounterTable::flipBit(uint64_t index, unsigned bit)
{
    MHP_ASSERT(index < numEntries, "fault index out of range");
    MHP_ASSERT(bit < counterBits(), "fault bit outside counter width");
    counts[index] ^= 1ULL << bit;
}

void
CounterTable::flush()
{
    std::fill_n(counts, numEntries, 0);
}

void
CounterTable::saveState(ByteBuffer &out) const
{
    out.u64(numEntries);
    for (uint64_t i = 0; i < numEntries; ++i)
        out.u64(counts[i]);
}

Status
CounterTable::loadState(ByteCursor &in)
{
    uint64_t entries = 0;
    if (!in.u64(entries))
        return Status::corruptData(
            "counter-table state is truncated");
    if (entries != numEntries)
        return Status::corruptDataf(
            "counter-table state holds %llu entries, this table %llu",
            static_cast<unsigned long long>(entries),
            static_cast<unsigned long long>(numEntries));
    for (uint64_t i = 0; i < numEntries; ++i) {
        uint64_t v = 0;
        if (!in.u64(v))
            return Status::corruptData(
                "counter-table state is truncated");
        if (v > saturation)
            return Status::corruptDataf(
                "counter-table state value %llu exceeds the %llu "
                "saturation point",
                static_cast<unsigned long long>(v),
                static_cast<unsigned long long>(saturation));
        counts[i] = v;
    }
    return Status::ok();
}

} // namespace mhp
