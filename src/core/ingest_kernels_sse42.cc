/**
 * @file
 * SSE4.2 ingest kernels: two 64-bit lanes per instruction.
 *
 * The TupleHash multiply chain and the saturating-counter arithmetic
 * run two lanes wide; the tag-group probe compares a 16-lane group in
 * one byte compare. Pre-AVX2 x86 has no gather, so counter loads stay
 * scalar loads placed into vector lanes. The tier's value is mostly
 * completeness — it exercises the dispatch path on older x86 — while
 * AVX2 is where the real win lives. Hash indexes come from the
 * portable ContributionTable kernel (core/hash_function.h), not from
 * a tier.
 *
 * Bit-identical to ingest_kernels_ref.h; ragged tails run the
 * reference bodies.
 */

#include "core/ingest_kernels.h"

#if defined(__SSE4_2__) && defined(__x86_64__)

#include <nmmintrin.h>

#include "core/ingest_kernels_ref.h"

namespace mhp {
namespace {

static_assert(sizeof(Tuple) == 16,
              "SSE4.2 tuple loads assume a packed pair of u64");

/** Multiply each 64-bit lane by a 64-bit constant (low-64 result). */
inline __m128i
mul64c(__m128i a, uint64_t c)
{
    const __m128i clo =
        _mm_set1_epi64x(static_cast<long long>(c & 0xffffffffULL));
    const __m128i chi =
        _mm_set1_epi64x(static_cast<long long>(c >> 32));
    const __m128i ahi = _mm_srli_epi64(a, 32);
    const __m128i lo = _mm_mul_epu32(a, clo);
    const __m128i mid =
        _mm_add_epi64(_mm_mul_epu32(ahi, clo), _mm_mul_epu32(a, chi));
    return _mm_add_epi64(lo, _mm_slli_epi64(mid, 32));
}

void
tupleHashBlockSse42(const Tuple *block, size_t m, uint64_t *out)
{
    const __m128i one = _mm_set1_epi64x(1);
    size_t j = 0;
    for (; j + 2 <= m; j += 2) {
        const __m128i pc = _mm_set_epi64x(
            static_cast<long long>(block[j + 1].first),
            static_cast<long long>(block[j].first));
        const __m128i val = _mm_set_epi64x(
            static_cast<long long>(block[j + 1].second),
            static_cast<long long>(block[j].second));
        __m128i z = _mm_add_epi64(
            pc,
            mul64c(_mm_add_epi64(val, one), 0x9e3779b97f4a7c15ULL));
        z = mul64c(_mm_xor_si128(z, _mm_srli_epi64(z, 30)),
                   0xbf58476d1ce4e5b9ULL);
        z = mul64c(_mm_xor_si128(z, _mm_srli_epi64(z, 27)),
                   0x94d049bb133111ebULL);
        z = _mm_xor_si128(z, _mm_srli_epi64(z, 31));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + j), z);
    }
    for (; j < m; ++j)
        out[j] = kernel_ref::tupleHash(block[j]);
}

/** Lane-wise signed min (counters stay below 2^62). */
inline __m128i
min2(__m128i a, __m128i b)
{
    return _mm_blendv_epi8(a, b, _mm_cmpgt_epi64(a, b));
}

inline uint64_t
hmin2(__m128i v)
{
    const uint64_t a = static_cast<uint64_t>(_mm_extract_epi64(v, 0));
    const uint64_t b = static_cast<uint64_t>(_mm_extract_epi64(v, 1));
    return a < b ? a : b;
}

constexpr uint64_t kSignedSafe = 1ULL << 62;

uint64_t
bumpMinSse42(uint64_t *soa, const uint32_t *idx, unsigned n,
             uint64_t saturation)
{
    if (n < 2 || saturation >= kSignedSafe)
        return kernel_ref::bumpMin(soa, idx, n, saturation);
    const __m128i satv =
        _mm_set1_epi64x(static_cast<long long>(saturation));
    __m128i minv = _mm_set1_epi64x(static_cast<long long>(kSignedSafe));
    unsigned i = 0;
    for (; i + 2 <= n; i += 2) {
        const __m128i vals = _mm_set_epi64x(
            static_cast<long long>(soa[idx[i + 1]]),
            static_cast<long long>(soa[idx[i]]));
        const __m128i canInc = _mm_cmpgt_epi64(satv, vals);
        const __m128i newv = _mm_sub_epi64(vals, canInc);
        soa[idx[i]] =
            static_cast<uint64_t>(_mm_extract_epi64(newv, 0));
        soa[idx[i + 1]] =
            static_cast<uint64_t>(_mm_extract_epi64(newv, 1));
        minv = min2(minv, newv);
    }
    uint64_t newMin = hmin2(minv);
    for (; i < n; ++i) {
        uint64_t &c = soa[idx[i]];
        c += (c < saturation) ? 1 : 0;
        newMin = newMin < c ? newMin : c;
    }
    return newMin;
}

uint64_t
bumpMinConservativeSse42(uint64_t *soa, const uint32_t *idx, unsigned n,
                         uint64_t saturation)
{
    if (n < 2 || n > 16 || saturation >= kSignedSafe)
        return kernel_ref::bumpMinConservative(soa, idx, n, saturation);

    __m128i vals[8];
    __m128i minv = _mm_set1_epi64x(static_cast<long long>(kSignedSafe));
    unsigned i = 0;
    unsigned chunks = 0;
    for (; i + 2 <= n; i += 2, ++chunks) {
        vals[chunks] = _mm_set_epi64x(
            static_cast<long long>(soa[idx[i + 1]]),
            static_cast<long long>(soa[idx[i]]));
        minv = min2(minv, vals[chunks]);
    }
    uint64_t minVal = hmin2(minv);
    for (unsigned t = i; t < n; ++t) {
        const uint64_t v = soa[idx[t]];
        minVal = minVal < v ? minVal : v;
    }

    // Saturated floor: no lane can advance, the minimum is unchanged.
    if (minVal >= saturation)
        return minVal;

    // Advance exactly the lanes at the minimum (a min lane's compare
    // mask is all-ones, so subtracting it is the +1). No second
    // reduction: advanced lanes land on minVal + 1 and every other
    // lane was already >= minVal + 1.
    const __m128i minValv =
        _mm_set1_epi64x(static_cast<long long>(minVal));
    for (unsigned c = 0; c < chunks; ++c) {
        const unsigned base = c * 2;
        const __m128i isMin = _mm_cmpeq_epi64(vals[c], minValv);
        const __m128i newv = _mm_sub_epi64(vals[c], isMin);
        soa[idx[base]] =
            static_cast<uint64_t>(_mm_extract_epi64(newv, 0));
        soa[idx[base + 1]] =
            static_cast<uint64_t>(_mm_extract_epi64(newv, 1));
    }
    for (unsigned t = i; t < n; ++t) {
        if (soa[idx[t]] == minVal)
            soa[idx[t]] = minVal + 1;
    }
    return minVal + 1;
}

/**
 * The rare leg of the probe: the home group either held a tag
 * collision (multiple match candidates) or was full with no hit, so
 * walk the chain generically from the home group.
 */
__attribute__((noinline)) uint32_t
accumProbeChainSse42(const AccumProbeView &view, const Tuple &t,
                     __m128i tagv, size_t g)
{
    using namespace accum_layout;
    const __m128i emptyv = _mm_setzero_si128();
    for (;;) {
        const size_t base = g * kGroupLanes;
        const __m128i tv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(view.tags + base));
        unsigned match = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(tv, tagv)));
        while (match != 0) {
            const unsigned l =
                static_cast<unsigned>(__builtin_ctz(match));
            if (view.keys[base + l] == t)
                return view.slotOf[base + l];
            match &= match - 1;
        }
        if (_mm_movemask_epi8(_mm_cmpeq_epi8(tv, emptyv)) != 0)
            return UINT32_MAX;
        g = (g + 1) & view.groupMask;
    }
}

/**
 * Tag-group probe for a whole block: one 16-byte compare finds every
 * candidate lane of a group at once (the software form of the paper's
 * CAM tag match), the first candidate's key confirms the hit, and a
 * group with an empty lane ends the chain. The fast path is
 * branch-free — the candidate lane index defaults to the pad lane
 * (AccumProbeView) and the hit/miss distinction is a conditional move,
 * so the 30/70 hit/absent mix of a shielded stream costs no
 * mispredictions. Only tag collisions and overfull home groups fall
 * into the chain walker.
 */
size_t
accumProbeBlockSse42(const AccumProbeView &view, const Tuple *block,
                     const uint64_t *hashes, size_t m, uint32_t *__restrict slots,
                     uint32_t *__restrict absentPos,
                      Tuple *__restrict absentTuples, uint32_t *__restrict hitPos)
{
    // Hoisted so the unconditional list stores (which GCC must
    // otherwise assume alias the view arrays and the view struct
    // itself) cannot force per-event reloads of the index pointers.
    const uint8_t *const tags = view.tags;
    const Tuple *const keys = view.keys;
    const uint32_t *const slotOf = view.slotOf;
    const uint64_t groupMask = view.groupMask;
    using namespace accum_layout;
    if ((groupMask + 1) * kGroupLanes > 8192) {
        for (size_t k = 0; k < m; ++k) {
            __builtin_prefetch(tags +
                                   groupOf(hashes[k], groupMask) *
                                       kGroupLanes,
                               0, 1);
        }
    }
    const __m128i emptyv = _mm_setzero_si128();
    size_t numAbsent = 0;
    for (size_t k = 0; k < m; ++k) {
        const uint64_t h = hashes[k];
        const __m128i tagv =
            _mm_set1_epi8(static_cast<char>(fullTag(h)));
        const size_t g = groupOf(h, groupMask);
        const size_t base = g * kGroupLanes;
        const __m128i tv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tags + base));
        const unsigned match = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(tv, tagv)));
        const unsigned empty = static_cast<unsigned>(
            _mm_movemask_epi8(_mm_cmpeq_epi8(tv, emptyv)));
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
            s = accumProbeChainSse42(view, block[k], tagv, g);
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

size_t
bumpMinBlockSse42(uint64_t *soa, const uint32_t *idx, unsigned n,
                  size_t start, size_t numAbsent, uint64_t saturation,
                  uint64_t threshold, uint64_t *stopMin)
{
    for (size_t j = start; j < numAbsent; ++j) {
        const uint64_t newMin =
            bumpMinSse42(soa, idx + j * n, n, saturation);
        if (newMin >= threshold) {
            *stopMin = newMin;
            return j;
        }
    }
    return numAbsent;
}

size_t
bumpMinConservativeBlockSse42(uint64_t *soa, const uint32_t *idx,
                              unsigned n, size_t start,
                              size_t numAbsent, uint64_t saturation,
                              uint64_t threshold, uint64_t *stopMin)
{
    for (size_t j = start; j < numAbsent; ++j) {
        const uint64_t newMin =
            bumpMinConservativeSse42(soa, idx + j * n, n, saturation);
        if (newMin >= threshold) {
            *stopMin = newMin;
            return j;
        }
    }
    return numAbsent;
}

} // namespace

const IngestKernels *
ingestKernelsSse42()
{
    static const IngestKernels table = {
        IsaTier::Sse42,
        tupleHashBlockSse42,
        accumProbeBlockSse42,
        bumpMinBlockSse42,
        bumpMinConservativeBlockSse42,
    };
    return &table;
}

} // namespace mhp

#else // !__SSE4_2__

namespace mhp {

const IngestKernels *
ingestKernelsSse42()
{
    return nullptr;
}

} // namespace mhp

#endif
