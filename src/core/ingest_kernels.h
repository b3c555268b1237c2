/**
 * @file
 * The vectorized batched-ingest kernel registry (docs/PERF.md).
 *
 * One IngestKernels table exists per ISA tier (support/cpu.h); the
 * batched onEvents() paths of the hash profilers resolve a table once
 * at construction and call through it. The table covers the phases
 * that are vector work: the simulator-side TupleHash, the accumulator
 * probe, and the counter-bank bump runs. Every entry is *bit-identical*
 * to the scalar reference — the tier choice can change throughput,
 * never output. The reference definitions the kernels must match live
 * in ingest_kernels_ref.h and mirror TupleHash and the saturating
 * counter update loops exactly; tests/core/test_ingest_kernels.cc
 * asserts the match per tier, and the ctest MHP_FORCE_ISA matrix
 * re-runs the profiler-level reference-model suites (onEvents at
 * several block sizes against straight-line per-event specs) under
 * each tier.
 *
 * Hash indexes are not here: every profiler reads them out of its
 * hasher's ContributionTable (core/hash_function.h), one portable
 * kernel for every tier.
 *
 * Layout contracts (what makes the kernels gather-friendly):
 *  - Counters: a multi-hash profiler's n tables live in one
 *    structure-of-arrays block, table i at offset i*entriesPerTable
 *    (CounterBank); hash indexes are produced pre-offset so counter
 *    kernels take one base pointer.
 *  - Accumulator probe index: the AccumulatorTable's tuple -> slot
 *    index is stored as structure-of-arrays *tag groups* of
 *    accum_layout::kGroupLanes lanes each — all of a group's one-byte
 *    tags are contiguous, with the lane-parallel keys and slot
 *    numbers in separate arrays — so a probe is one 16-byte tag load
 *    and compare per group instead of a pointer-chasing scan
 *    (AccumProbeView / accumProbeBlock below).
 */

#ifndef MHP_CORE_INGEST_KERNELS_H
#define MHP_CORE_INGEST_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "support/cpu.h"
#include "trace/tuple.h"

namespace mhp {

/**
 * The accumulator probe index's group layout — shared between
 * AccumulatorTable (which maintains the arrays) and the probe kernels
 * (which search them), so it is kernel ABI exactly like the counter
 * bank's structure-of-arrays layout (docs/PERF.md).
 *
 * A group is kGroupLanes lanes. Lane L of group G stores a one-byte
 * tag at tags[G*kGroupLanes + L]; a full lane's key and slot number
 * sit at the same flat lane index in the keys / slotOf arrays. A
 * tuple's home group is groupOf(its TupleHash); lookups scan whole
 * groups: a lane whose tag equals fullTag(hash) is a match candidate
 * (confirmed against the key), and a group containing an empty lane
 * terminates the probe. Overfull groups spill to the next group in
 * power-of-two wraparound order.
 */
namespace accum_layout {

/** Lanes per tag group (one 16-byte vector register of tags). */
inline constexpr size_t kGroupLanes = 16;

/** Tag of a never-used lane; terminates probe chains. */
inline constexpr uint8_t kEmptyTag = 0x00;

/** Tag of an erased lane; probes continue past it. */
inline constexpr uint8_t kTombstoneTag = 0x01;

/** Full-lane tag: the high bit plus the hash's top seven bits, so a
 *  full tag can never equal kEmptyTag or kTombstoneTag. */
inline constexpr uint8_t
fullTag(uint64_t hash)
{
    return static_cast<uint8_t>(0x80u | (hash >> 57));
}

/** A hash's home group (groupMask = numGroups - 1, power of two). */
inline constexpr size_t
groupOf(uint64_t hash, uint64_t groupMask)
{
    return static_cast<size_t>(hash & groupMask);
}

} // namespace accum_layout

/**
 * A read-only view of an AccumulatorTable's probe index in the
 * accum_layout group format. The arrays stay valid and unchanged for
 * the duration of a kernel call (membership only changes through
 * AccumulatorTable::insert / endInterval, never mid-probe).
 */
struct AccumProbeView
{
    const uint8_t *tags;    ///< numGroups * kGroupLanes tag bytes
    const Tuple *keys;      ///< lane-parallel tuple keys
    const uint32_t *slotOf; ///< lane-parallel slot numbers
    uint64_t groupMask;     ///< numGroups - 1 (power-of-two groups)

    // keys and slotOf carry one readable pad lane past the last group
    // (arbitrary contents). Branch-free probe kernels read lane
    // base + ctz(matchMask | 1 << kGroupLanes) unconditionally, which
    // lands on the pad lane when a group has no tag match.
};

/** One ISA tier's batched-ingest entry points. */
struct IngestKernels
{
    /** The tier these kernels require (and are named after). */
    IsaTier tier;

    /**
     * The simulator-side TupleHash for a block of tuples
     * (out[j] = TupleHash{}(block[j])) — the accumulator-hit filter
     * derives each tuple's tag-group probe index (accum_layout) from
     * these.
     */
    void (*tupleHashBlock)(const Tuple *block, size_t m, uint64_t *out);

    /**
     * Probe a whole block against the accumulator's tag-group index
     * (the phase-1 shield check, vectorized): for k in [0, m),
     * slots[k] becomes the slot of block[k] or UINT32_MAX when
     * absent, with hashes[k] == TupleHash{}(block[k]) precomputed by
     * tupleHashBlock. The absent positions are compacted, in stream
     * order, into absentPos[0..return), their tuples into
     * absentTuples[0..return) (ready for the sequential hash pass
     * with no gather), and the hit positions into
     * hitPos[0..m - return). Every event lands on exactly one list, so
     * all three compactions are unconditional stores in the kernel —
     * the tuple is already in registers for the key compare — while
     * sparing callers a branchy re-scan of slots[] (the hit-replay
     * loop walks ~¼ of the block instead of testing every event).
     * Probing a block up front is exact because increments never
     * change membership; callers must re-probe after a mid-block
     * insert().
     */
    size_t (*accumProbeBlock)(const AccumProbeView &view,
                              const Tuple *block, const uint64_t *hashes,
                              size_t m, uint32_t *slots,
                              uint32_t *absentPos, Tuple *absentTuples,
                              uint32_t *hitPos);

    /**
     * The saturating multi-table bump over a run of absent events in
     * one call: for j in [start, numAbsent), apply
     * kernel_ref::bumpMin(soa, idx + j * n) in order (+1 on each of
     * the event's n pre-offset counters, saturating), stopping at the
     * first j whose post-update minimum reaches `threshold` (the
     * promotion trigger). Returns that j with
     * *stopMin set to its minimum — counters of events after j are
     * untouched — or numAbsent when no event crosses. `idx` holds the
     * absent events' pre-offset indexes densely packed in stream order
     * (the caller compacts the absent tuples before hashing, so both
     * the hash pass's writes and this kernel's reads are
     * sequential). Fusing the run into one call lets a tier hoist
     * constants and process independent events wider than one at a
     * time; the per-event counter updates still land in stream order
     * (events that share a counter are never reordered).
     */
    size_t (*bumpMinBlock)(uint64_t *soa, const uint32_t *idx,
                           unsigned n, size_t start, size_t numAbsent,
                           uint64_t saturation, uint64_t threshold,
                           uint64_t *stopMin);

    /**
     * bumpMinBlock with the conservative-update (C1) rule
     * (kernel_ref::bumpMinConservative: only the counters at the
     * pre-increment minimum advance).
     */
    size_t (*bumpMinConservativeBlock)(uint64_t *soa,
                                       const uint32_t *idx, unsigned n,
                                       size_t start, size_t numAbsent,
                                       uint64_t saturation,
                                       uint64_t threshold,
                                       uint64_t *stopMin);
};

/**
 * The kernel table for the process-wide active tier
 * (activeIsaTier()), falling back down the tier order if a stronger
 * tier was compiled out of this binary. Resolved per call so the
 * MHP_FORCE_ISA test pin takes effect; callers on hot paths resolve
 * once and keep the pointer.
 */
const IngestKernels &ingestKernels();

/**
 * The kernel table for a specific tier, or nullptr when that tier is
 * not compiled into this binary or not runnable on this CPU. Scalar
 * never returns nullptr.
 */
const IngestKernels *ingestKernelsFor(IsaTier tier);

} // namespace mhp

#endif // MHP_CORE_INGEST_KERNELS_H
