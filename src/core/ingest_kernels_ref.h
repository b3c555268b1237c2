/**
 * @file
 * Reference bodies for the batched-ingest kernels — the single source
 * of truth every kernel tier must match bit for bit.
 *
 * The hash helpers restate the paper's pipeline (randomize → byteFlip
 * → xorFoldHot) over a raw 512-word table block: they are the
 * reference the ContributionTable kernel (core/hash_function.h) is
 * tested against, and the one-tuple repair paths call them directly.
 * The counter helpers restate the saturating-update loops of the
 * profilers' ingestBatch() state machines; the scalar kernel table
 * uses TupleHash and the plain bump directly, both tiers use the rest
 * for ragged tails and wide fallbacks, and the profilers call the
 * per-event bumps on their rare paths (the tail after a mid-block
 * promotion, the !Shielding ablation).
 */

#ifndef MHP_CORE_INGEST_KERNELS_REF_H
#define MHP_CORE_INGEST_KERNELS_REF_H

#include <cstddef>
#include <cstdint>

#include "core/ingest_kernels.h"
#include "support/bit_util.h"
#include "trace/tuple.h"

namespace mhp {
namespace kernel_ref {

/**
 * The paper's randomize (Section 5.3) over a raw 256-word table:
 * every byte of v is substituted through the table, rotated by its
 * byte position, and xor-composed.
 */
inline uint64_t
randomize(const uint64_t *tb, uint64_t v)
{
    uint64_t r = tb[static_cast<uint8_t>(v)];
    r ^= std::rotl(tb[static_cast<uint8_t>(v >> 8)], 8);
    r ^= std::rotl(tb[static_cast<uint8_t>(v >> 16)], 16);
    r ^= std::rotl(tb[static_cast<uint8_t>(v >> 24)], 24);
    r ^= std::rotl(tb[static_cast<uint8_t>(v >> 32)], 32);
    r ^= std::rotl(tb[static_cast<uint8_t>(v >> 40)], 40);
    r ^= std::rotl(tb[static_cast<uint8_t>(v >> 48)], 48);
    r ^= std::rotl(tb[static_cast<uint8_t>(v >> 56)], 56);
    return r;
}

/** TupleHasher::signature over a 512-word pc||value table block. */
inline uint64_t
signature(const uint64_t *tables, const Tuple &t)
{
    return byteFlip(randomize(tables, t.first)) ^
           randomize(tables + 256, t.second);
}

/** TupleHasher::indexHot over a 512-word pc||value table block. */
inline uint64_t
index(const uint64_t *tables, unsigned bits, const Tuple &t)
{
    return xorFoldHot(signature(tables, t), bits);
}

/** Words in one hasher's table block (TupleHasher::kTableWords). */
inline constexpr size_t kTableWords = 512;

/**
 * One tuple hashed through numTables packed hasher blocks: member i's
 * pre-offset index (+ i*addendStride) lands in out[i].
 */
inline void
indexMulti(const uint64_t *tables, unsigned numTables, unsigned bits,
           const Tuple &t, uint32_t addendStride, uint32_t *out)
{
    for (unsigned i = 0; i < numTables; ++i) {
        out[i] = static_cast<uint32_t>(
                     index(tables + i * kTableWords, bits, t)) +
                 i * addendStride;
    }
}

/** trace/tuple.h TupleHash, restated for the kernel layer. */
inline uint64_t
tupleHash(const Tuple &t)
{
    uint64_t z = t.first + 0x9e3779b97f4a7c15ULL * (t.second + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Saturating +1 on n SoA counters; post-increment minimum. */
inline uint64_t
bumpMin(uint64_t *soa, const uint32_t *idx, unsigned n,
        uint64_t saturation)
{
    uint64_t newMin = ~0ULL;
    for (unsigned i = 0; i < n; ++i) {
        uint64_t &c = soa[idx[i]];
        c += (c < saturation) ? 1 : 0;
        newMin = newMin < c ? newMin : c;
    }
    return newMin;
}

/**
 * Conservative update: only counters at the pre-increment minimum
 * advance (saturating); post-update minimum over all n counters.
 */
inline uint64_t
bumpMinConservative(uint64_t *soa, const uint32_t *idx, unsigned n,
                    uint64_t saturation)
{
    uint64_t minVal = ~0ULL;
    for (unsigned i = 0; i < n; ++i) {
        const uint64_t v = soa[idx[i]];
        minVal = minVal < v ? minVal : v;
    }
    uint64_t newMin = ~0ULL;
    for (unsigned i = 0; i < n; ++i) {
        uint64_t v = soa[idx[i]];
        if (v == minVal) {
            v += (v < saturation) ? 1 : 0;
            soa[idx[i]] = v;
        }
        newMin = newMin < v ? newMin : v;
    }
    return newMin;
}

/**
 * One tag-group probe (AccumulatorTable::probeSlotHashed): the slot
 * holding tuple t, or UINT32_MAX. `hash` must equal TupleHash{}(t).
 */
inline uint32_t
accumProbeOne(const AccumProbeView &view, const Tuple &t, uint64_t hash)
{
    using namespace accum_layout;
    const uint8_t tag = fullTag(hash);
    size_t g = groupOf(hash, view.groupMask);
    for (;;) {
        const size_t base = g * kGroupLanes;
        bool anyEmpty = false;
        for (size_t l = 0; l < kGroupLanes; ++l) {
            const uint8_t laneTag = view.tags[base + l];
            if (laneTag == tag && view.keys[base + l] == t)
                return view.slotOf[base + l];
            anyEmpty |= laneTag == kEmptyTag;
        }
        if (anyEmpty)
            return UINT32_MAX;
        g = (g + 1) & view.groupMask;
    }
}

/** IngestKernels::accumProbeBlock, restated as plain loops. */
inline size_t
accumProbeBlock(const AccumProbeView &view, const Tuple *block,
                const uint64_t *hashes, size_t m, uint32_t *slots,
                uint32_t *absentPos, Tuple *absentTuples,
                uint32_t *hitPos)
{
    size_t numAbsent = 0;
    for (size_t k = 0; k < m; ++k) {
        slots[k] = accumProbeOne(view, block[k], hashes[k]);
        // Every event lands on exactly one list, so both appends are
        // unconditional stores (a dead store at the losing list's
        // cursor is overwritten by the next event of that kind).
        absentPos[numAbsent] = static_cast<uint32_t>(k);
        absentTuples[numAbsent] = block[k];
        hitPos[k - numAbsent] = static_cast<uint32_t>(k);
        numAbsent += (slots[k] == UINT32_MAX) ? 1 : 0;
    }
    return numAbsent;
}

/** IngestKernels::bumpMinBlock, restated as a plain loop. */
inline size_t
bumpMinBlock(uint64_t *soa, const uint32_t *idx, unsigned n,
             size_t start, size_t numAbsent, uint64_t saturation,
             uint64_t threshold, uint64_t *stopMin)
{
    for (size_t j = start; j < numAbsent; ++j) {
        const uint64_t newMin = bumpMin(soa, idx + j * n, n, saturation);
        if (newMin >= threshold) {
            *stopMin = newMin;
            return j;
        }
    }
    return numAbsent;
}

/** IngestKernels::bumpMinConservativeBlock, restated as a plain loop. */
inline size_t
bumpMinConservativeBlock(uint64_t *soa, const uint32_t *idx, unsigned n,
                         size_t start, size_t numAbsent,
                         uint64_t saturation, uint64_t threshold,
                         uint64_t *stopMin)
{
    for (size_t j = start; j < numAbsent; ++j) {
        const uint64_t newMin =
            bumpMinConservative(soa, idx + j * n, n, saturation);
        if (newMin >= threshold) {
            *stopMin = newMin;
            return j;
        }
    }
    return numAbsent;
}

} // namespace kernel_ref
} // namespace mhp

#endif // MHP_CORE_INGEST_KERNELS_REF_H
