/**
 * @file
 * An untagged table of saturating counters — the filtering stage of
 * both the single- and multi-hash architectures.
 *
 * The table deliberately has no tags (Section 5.2), so distinct tuples
 * can alias to the same counter; the profiler architectures above it
 * are what turn this cheap, lossy structure into accurate profiles.
 *
 * A table either owns its counters or views a slice of an external
 * structure-of-arrays block (docs/PERF.md): MultiHashProfiler keeps
 * its n tables in one contiguous CounterBank so the SIMD ingest
 * kernels can gather and update all of a tuple's counters from one
 * base pointer, while each table object remains individually
 * addressable for flushes, fault injection, and tests.
 */

#ifndef MHP_CORE_COUNTER_TABLE_H
#define MHP_CORE_COUNTER_TABLE_H

#include <bit>
#include <cstdint>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"

namespace mhp {

/** Fixed-size array of width-limited saturating up-counters. */
class CounterTable
{
  public:
    /**
     * @param entries Number of counters.
     * @param counterBits Width of each counter (saturation point).
     */
    CounterTable(uint64_t entries, unsigned counterBits);

    /**
     * View over `entries` externally owned counters at `storage`
     * (zeroed by this constructor). The storage must outlive the
     * table.
     */
    CounterTable(uint64_t *storage, uint64_t entries,
                 unsigned counterBits);

    // The view form aliases external storage, so copying cannot be
    // made uniformly safe; moving is (the owning buffer is on the
    // heap, so its address survives the move).
    CounterTable(const CounterTable &) = delete;
    CounterTable &operator=(const CounterTable &) = delete;
    CounterTable(CounterTable &&) = default;
    CounterTable &operator=(CounterTable &&) = default;

    /** Increment a counter by one (saturating); returns the new value. */
    uint64_t increment(uint64_t index);

    /** Current value of a counter. */
    uint64_t value(uint64_t index) const { return counts[index]; }

    /** Zero one counter (the paper's resetting optimization). */
    void reset(uint64_t index) { counts[index] = 0; }

    /** Zero every counter (end-of-interval flush). */
    void flush();

    uint64_t size() const { return numEntries; }
    uint64_t maxValue() const { return saturation; }

    /** Physical width of each counter in bits. */
    unsigned counterBits() const { return std::bit_width(saturation); }

    /**
     * Soft-error hook (sim/fault_injector): XOR one physical bit of a
     * counter. bit must lie within the counter's width, so the value
     * stays representable in hardware (<= maxValue()).
     */
    void flipBit(uint64_t index, unsigned bit);

    /**
     * Raw counter storage for batched ingest kernels. Updates through
     * this pointer must preserve the saturating-increment semantics of
     * increment(); the pointer stays valid for the table's lifetime.
     */
    uint64_t *raw() { return counts; }
    const uint64_t *raw() const { return counts; }

    /** Number of counters currently at or above a value (analysis). */
    uint64_t countAtLeast(uint64_t value) const;

    /** Serialize every counter value (entry count + raw values). */
    void saveState(ByteBuffer &out) const;

    /**
     * Restore counter values captured by saveState() on a table of
     * identical geometry. CorruptData when the entry count differs or
     * a stored value exceeds this table's saturation point.
     */
    Status loadState(ByteCursor &in);

  private:
    /** Backing storage when owning; empty when viewing. */
    std::vector<uint64_t> own;
    /** own.data() or the external slice. */
    uint64_t *counts;
    uint64_t numEntries;
    uint64_t saturation;
};

} // namespace mhp

#endif // MHP_CORE_COUNTER_TABLE_H
