/**
 * @file
 * Internal: the one branch-free accumulator block probe
 * (IngestKernels::accumProbeBlock), written once over a *group-mask*
 * function and instantiated by each tier's translation unit.
 *
 * A group mask is the software form of the paper's CAM tag match:
 * given a group's kGroupLanes tag bytes and one byte, it returns a
 * kGroupLanes-bit mask with bit L set when lane L's tag equals the
 * byte. The scalar tier instantiates the probe with groupMaskSse2
 * (x86-64 baseline) or groupMaskLoop (every other build); the avx512
 * tier instantiates it with a byte-compare-to-mask functor of its own,
 * compiled with that TU's ISA flags. A tier's functor must be a type
 * local to its TU (an anonymous namespace, or the portable functors
 * below, which only the scalar TU and tests use), so no two TUs built
 * with different flags ever share an instantiation.
 */

#ifndef MHP_CORE_INGEST_KERNELS_PROBE_H
#define MHP_CORE_INGEST_KERNELS_PROBE_H

#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "core/ingest_kernels.h"

namespace mhp {
namespace accum_probe {

/** The portable group mask: one compare per lane. */
struct GroupMaskLoop
{
    unsigned
    operator()(const uint8_t *group, uint8_t byte) const
    {
        unsigned mask = 0;
        for (unsigned l = 0; l < accum_layout::kGroupLanes; ++l)
            mask |= static_cast<unsigned>(group[l] == byte) << l;
        return mask;
    }
};

#if defined(__SSE2__)
/** The x86-64 baseline group mask: one 16-byte cmpeq + movemask. */
struct GroupMaskSse2
{
    unsigned
    operator()(const uint8_t *group, uint8_t byte) const
    {
        const __m128i tv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(group));
        return static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
            tv, _mm_set1_epi8(static_cast<char>(byte)))));
    }
};
#endif

/**
 * The rare leg of the probe: the home group either held a tag
 * collision (multiple match candidates) or was full with no hit, so
 * walk the chain generically from the home group.
 */
template <class GroupMask>
__attribute__((noinline)) uint32_t
probeChain(const AccumProbeView &view, const Tuple &t, uint8_t tag,
           size_t g)
{
    using namespace accum_layout;
    const GroupMask mask;
    for (;;) {
        const size_t base = g * kGroupLanes;
        unsigned match = mask(view.tags + base, tag);
        while (match != 0) {
            const unsigned l =
                static_cast<unsigned>(__builtin_ctz(match));
            if (view.keys[base + l] == t)
                return view.slotOf[base + l];
            match &= match - 1;
        }
        if (mask(view.tags + base, kEmptyTag) != 0)
            return UINT32_MAX;
        g = (g + 1) & view.groupMask;
    }
}

/**
 * Tag-group probe for a whole block: one group mask finds every
 * candidate lane of the home group at once, the first candidate's key
 * confirms the hit, and a group with an empty lane ends the chain. The
 * fast path is branch-free — the candidate lane index defaults to the
 * pad lane (AccumProbeView) and the hit/miss distinction is a
 * conditional move, so the 30/70 hit/absent mix of a shielded stream
 * costs no mispredictions. Only tag collisions and overfull home
 * groups fall into the chain walker.
 */
template <class GroupMask>
inline size_t
probeBlock(const AccumProbeView &view, const Tuple *block,
           const uint64_t *hashes, size_t m, uint32_t *__restrict slots,
           uint32_t *__restrict absentPos, Tuple *__restrict absentTuples,
           uint32_t *__restrict hitPos)
{
    // Hoisted so the unconditional list stores (which GCC must
    // otherwise assume alias the view arrays and the view struct
    // itself) cannot force per-event reloads of the index pointers.
    const uint8_t *const tags = view.tags;
    const Tuple *const keys = view.keys;
    const uint32_t *const slotOf = view.slotOf;
    const uint64_t groupMask = view.groupMask;
    using namespace accum_layout;
    const GroupMask mask;
    size_t numAbsent = 0;
    for (size_t k = 0; k < m; ++k) {
        const uint64_t h = hashes[k];
        const uint8_t tag = fullTag(h);
        const size_t g = groupOf(h, groupMask);
        const size_t base = g * kGroupLanes;
        const unsigned match = mask(tags + base, tag);
        const unsigned empty = mask(tags + base, kEmptyTag);
        const unsigned l = static_cast<unsigned>(
            __builtin_ctz(match | (1u << kGroupLanes)));
        // XOR-OR key compare instead of operator== so the comparison
        // cannot be compiled as short-circuit branches; the whole
        // hit/miss decision must stay a conditional move.
        const Tuple &cand = keys[base + l];
        const uint64_t keyDiff = (cand.first ^ block[k].first) |
                                 (cand.second ^ block[k].second);
        const uint32_t hit =
            static_cast<uint32_t>(match != 0) &
            static_cast<uint32_t>(keyDiff == 0);
        // slot | 0 on a hit, slot | ~0 on a miss: the select is pure
        // arithmetic, so no branch exists for the 30/70 hit/absent mix
        // to mispredict.
        uint32_t s = slotOf[base + l] | (hit - 1);
        // The chain is only needed when the single-candidate answer can
        // be wrong: a multi-candidate tag collision, or a full group
        // with no first-candidate hit. Both are rare, so this is the
        // one branch in the loop and it predicts not-taken. The empty
        // asm keeps GCC from re-splitting the compound predicate into a
        // separate (mispredicting) branch on `hit`.
        unsigned needChain =
            (static_cast<unsigned>((match & (match - 1)) != 0) |
             static_cast<unsigned>(empty == 0)) &
            (hit ^ 1u);
        asm("" : "+r"(needChain));
        if (__builtin_expect(needChain != 0, 0))
            s = probeChain<GroupMask>(view, block[k], tag, g);
        slots[k] = s;
        // Every event lands on exactly one list, so both appends are
        // unconditional stores (a dead store at the losing list's
        // cursor is overwritten by the next event of that kind).
        absentPos[numAbsent] = static_cast<uint32_t>(k);
        absentTuples[numAbsent] = block[k];
        hitPos[k - numAbsent] = static_cast<uint32_t>(k);
        numAbsent += (s == UINT32_MAX) ? 1 : 0;
    }
    return numAbsent;
}

} // namespace accum_probe
} // namespace mhp

#endif // MHP_CORE_INGEST_KERNELS_PROBE_H
