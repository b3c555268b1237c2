/**
 * @file
 * AVX-512 ingest kernels: eight 64-bit lanes per instruction.
 *
 * The hash pipeline is the AVX2 kernel widened to zmm: eight tuples per
 * iteration, per-byte table lookups as zmm vpgatherqq over the 2 KiB
 * L1-resident table, native vprolq for the byte-position rotates (AVX2
 * needed shift/shift/or), vpshufb byte reverse for the paper's "flip",
 * and immediate-shift xor-fold rounds. The counter kernels switch to
 * the EVEX mask registers: saturation and the C1 min-select become
 * unsigned compare masks feeding masked adds, and results scatter back
 * with vpscatterqq instead of AVX2's per-lane extracts, so no signed-
 * compare bias (kSignedSafe) is needed at this tier. The tag-group
 * probe compares a 16-lane group with one byte-compare-to-mask.
 *
 * Everything here must match ingest_kernels_ref.h bit for bit; ragged
 * tails (m % 8, n % 4) run the reference bodies directly.
 */

#include "core/ingest_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__AVX512VL__) && \
    defined(__AVX512CD__) && defined(__x86_64__)

#include <immintrin.h>

#include "core/ingest_kernels_ref.h"

namespace mhp {
namespace {

static_assert(sizeof(Tuple) == 16,
              "AVX-512 tuple loads assume a packed pair of u64");

/** Split eight consecutive tuples into a pc vector and a value vector
 *  (two 512-bit loads and two cross-register element selects). */
inline void
loadTuples8(const Tuple *p, __m512i &pc, __m512i &val)
{
    const __m512i a = _mm512_loadu_si512(p);     // f0 s0 f1 s1 ...
    const __m512i b = _mm512_loadu_si512(p + 4); // f4 s4 f5 s5 ...
    const __m512i pidx = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i vidx = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    pc = _mm512_permutex2var_epi64(a, pidx, b);
    val = _mm512_permutex2var_epi64(a, vidx, b);
}

/** One kernel_ref::randomize round: lookup byte I of v, rotate, accumulate. */
template <int I>
inline __m512i
randRound8(const long long *tb, __m512i v, __m512i byteMask, __m512i r)
{
    const __m512i byte =
        _mm512_and_si512(_mm512_srli_epi64(v, 8 * I), byteMask);
    const __m512i word = _mm512_i64gather_epi64(byte, tb, 8);
    return _mm512_xor_si512(r, _mm512_rol_epi64(word, (8 * I) & 63));
}

/** kernel_ref::randomize on eight lanes. */
inline __m512i
randomize8(const uint64_t *table, __m512i v)
{
    const long long *tb = reinterpret_cast<const long long *>(table);
    const __m512i byteMask = _mm512_set1_epi64(0xff);
    __m512i r = _mm512_i64gather_epi64(_mm512_and_si512(v, byteMask),
                                       tb, 8);
    r = randRound8<1>(tb, v, byteMask, r);
    r = randRound8<2>(tb, v, byteMask, r);
    r = randRound8<3>(tb, v, byteMask, r);
    r = randRound8<4>(tb, v, byteMask, r);
    r = randRound8<5>(tb, v, byteMask, r);
    r = randRound8<6>(tb, v, byteMask, r);
    r = randRound8<7>(tb, v, byteMask, r);
    return r;
}

/** byteFlip (bswap64) on each lane. */
inline __m512i
byteFlip8(__m512i v)
{
    const __m512i m = _mm512_set_epi8(
        8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7,
        8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7,
        8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7,
        8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7);
    return _mm512_shuffle_epi8(v, m);
}

/** The unfolded signature for eight tuples already split pc/value. */
inline __m512i
signature8(const uint64_t *tables, __m512i pc, __m512i val)
{
    const __m512i npc = byteFlip8(randomize8(tables, pc));
    const __m512i nv = randomize8(tables + 256, val);
    return _mm512_xor_si512(npc, nv);
}

/** One compile-time xorFoldHot round at shift S, recursing by Bits. */
template <unsigned Bits, unsigned S>
inline __m512i
fold8Step(__m512i sig, __m512i mask, __m512i r)
{
    r = _mm512_xor_si512(
        r, _mm512_and_si512(
               _mm512_srli_epi64(sig, static_cast<int>(S)), mask));
    if constexpr (S + Bits < 64)
        return fold8Step<Bits, S + Bits>(sig, mask, r);
    else
        return r;
}

template <unsigned Bits>
inline __m512i
fold8Fixed(__m512i sig)
{
    const __m512i mask =
        _mm512_set1_epi64(static_cast<long long>((1ULL << Bits) - 1));
    return fold8Step<Bits, 0>(sig, mask, _mm512_setzero_si512());
}

/** xorFoldHot on eight lanes; common widths fully unrolled. */
inline __m512i
fold8(__m512i sig, unsigned bits)
{
    switch (bits) {
      case 8: return fold8Fixed<8>(sig);
      case 9: return fold8Fixed<9>(sig);
      case 10: return fold8Fixed<10>(sig);
      case 11: return fold8Fixed<11>(sig);
      case 12: return fold8Fixed<12>(sig);
      case 13: return fold8Fixed<13>(sig);
      default: break;
    }
    const __m512i mask =
        _mm512_set1_epi64(static_cast<long long>((1ULL << bits) - 1));
    __m512i r = _mm512_setzero_si512();
    for (unsigned s = 0; s < 64; s += bits) {
        r = _mm512_xor_si512(
            r, _mm512_and_si512(
                   _mm512_srlv_epi64(
                       sig, _mm512_set1_epi64(static_cast<long long>(s))),
                   mask));
    }
    return r;
}

void
hashBlockAvx512(const uint64_t *tables, unsigned bits,
                const Tuple *block, size_t m, uint32_t *out)
{
    size_t j = 0;
    for (; j + 8 <= m; j += 8) {
        __m512i pc, val;
        loadTuples8(block + j, pc, val);
        const __m512i idx = fold8(signature8(tables, pc, val), bits);
        // Truncating narrow: lane l's low 32 bits land in out[j + l].
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + j),
                            _mm512_cvtepi64_epi32(idx));
    }
    for (; j < m; ++j)
        out[j] = static_cast<uint32_t>(
            kernel_ref::index(tables, bits, block[j]));
}

void
hashBlockMultiAvx512(const uint64_t *tables, unsigned numTables,
                     unsigned bits, const Tuple *block, size_t m,
                     uint32_t *out, uint32_t addendStride)
{
    size_t j = 0;
    for (; j + 8 <= m; j += 8) {
        __m512i pc, val;
        loadTuples8(block + j, pc, val);
        // Tuple load and lane split happen once; only the per-table
        // gathers and fold repeat, with pc/val the only long-lived
        // vectors across the table loop.
        uint32_t *const row = out + j * numTables;
        for (unsigned i = 0; i < numTables; ++i) {
            const uint64_t *tb = tables + i * kernel_ref::kTableWords;
            const __m512i idx = _mm512_add_epi64(
                fold8(signature8(tb, pc, val), bits),
                _mm512_set1_epi64(
                    static_cast<long long>(i * addendStride)));
            alignas(64) uint64_t lane[8];
            _mm512_store_si512(lane, idx);
            for (unsigned l = 0; l < 8; ++l)
                row[l * numTables + i] = static_cast<uint32_t>(lane[l]);
        }
    }
    for (; j < m; ++j)
        kernel_ref::indexMulti(tables, numTables, bits, block[j],
                               addendStride, out + j * numTables);
}

void
signatureBlockAvx512(const uint64_t *tables, const Tuple *block,
                     size_t m, uint64_t *out)
{
    size_t j = 0;
    for (; j + 8 <= m; j += 8) {
        __m512i pc, val;
        loadTuples8(block + j, pc, val);
        _mm512_storeu_si512(out + j, signature8(tables, pc, val));
    }
    for (; j < m; ++j)
        out[j] = kernel_ref::signature(tables, block[j]);
}

void
tupleHashBlockAvx512(const Tuple *block, size_t m, uint64_t *out)
{
    const __m512i one = _mm512_set1_epi64(1);
    const __m512i c1 = _mm512_set1_epi64(
        static_cast<long long>(0x9e3779b97f4a7c15ULL));
    const __m512i c2 = _mm512_set1_epi64(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    const __m512i c3 = _mm512_set1_epi64(
        static_cast<long long>(0x94d049bb133111ebULL));
    size_t j = 0;
    for (; j + 8 <= m; j += 8) {
        __m512i pc, val;
        loadTuples8(block + j, pc, val);
        __m512i z = _mm512_add_epi64(
            pc, _mm512_mullo_epi64(_mm512_add_epi64(val, one), c1));
        z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), c2);
        z = _mm512_mullo_epi64(
            _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), c3);
        z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
        _mm512_storeu_si512(out + j, z);
    }
    for (; j < m; ++j)
        out[j] = kernel_ref::tupleHash(block[j]);
}

/** Horizontal unsigned min of four 64-bit lanes. */
inline uint64_t
hmin4u(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i m = _mm_min_epu64(lo, hi);
    const uint64_t a = static_cast<uint64_t>(_mm_extract_epi64(m, 0));
    const uint64_t b = static_cast<uint64_t>(_mm_extract_epi64(m, 1));
    return a < b ? a : b;
}

uint64_t
bumpMinAvx512(uint64_t *soa, const uint32_t *idx, unsigned n,
              uint64_t saturation)
{
    if (n < 4)
        return kernel_ref::bumpMin(soa, idx, n, saturation);
    const __m256i satv =
        _mm256_set1_epi64x(static_cast<long long>(saturation));
    const __m256i one = _mm256_set1_epi64x(1);
    __m256i minv = _mm256_set1_epi64x(-1);
    unsigned i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i iv32 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + i));
        const __m256i vals = _mm256_i32gather_epi64(
            reinterpret_cast<const long long *>(soa), iv32, 8);
        const __mmask8 canInc = _mm256_cmplt_epu64_mask(vals, satv);
        const __m256i newv =
            _mm256_mask_add_epi64(vals, canInc, vals, one);
        // One event's n counters live in disjoint per-table regions
        // (the addendStride offsets), so the scatter indices are
        // distinct and write-order free.
        _mm256_i32scatter_epi64(soa, iv32, newv, 8);
        minv = _mm256_min_epu64(minv, newv);
    }
    uint64_t newMin = hmin4u(minv);
    for (; i < n; ++i) {
        uint64_t &c = soa[idx[i]];
        c += (c < saturation) ? 1 : 0;
        newMin = newMin < c ? newMin : c;
    }
    return newMin;
}

uint64_t
bumpMinConservativeAvx512(uint64_t *soa, const uint32_t *idx, unsigned n,
                          uint64_t saturation)
{
    if (n < 4 || n > 16)
        return kernel_ref::bumpMinConservative(soa, idx, n, saturation);

    // Pass 1: gather every counter and find the global minimum. All
    // reads complete before any write, exactly like the reference.
    __m256i vals[4];
    __m256i minv = _mm256_set1_epi64x(-1);
    unsigned i = 0;
    unsigned chunks = 0;
    for (; i + 4 <= n; i += 4, ++chunks) {
        const __m128i iv32 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + i));
        vals[chunks] = _mm256_i32gather_epi64(
            reinterpret_cast<const long long *>(soa), iv32, 8);
        minv = _mm256_min_epu64(minv, vals[chunks]);
    }
    uint64_t minVal = hmin4u(minv);
    for (unsigned t = i; t < n; ++t) {
        const uint64_t v = soa[idx[t]];
        minVal = minVal < v ? minVal : v;
    }

    // Saturated floor: no lane can advance, the minimum is unchanged.
    if (minVal >= saturation)
        return minVal;

    // Pass 2: advance exactly the lanes at the minimum. No second
    // reduction is needed — the advanced lanes land on minVal + 1 and
    // every other lane was already >= minVal + 1, so the post-update
    // minimum is minVal + 1 by construction.
    const __m256i minValv =
        _mm256_set1_epi64x(static_cast<long long>(minVal));
    const __m256i one = _mm256_set1_epi64x(1);
    for (unsigned c = 0; c < chunks; ++c) {
        const __m128i iv32 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + c * 4));
        const __mmask8 isMin =
            _mm256_cmpeq_epu64_mask(vals[c], minValv);
        const __m256i newv =
            _mm256_mask_add_epi64(vals[c], isMin, vals[c], one);
        _mm256_i32scatter_epi64(soa, iv32, newv, 8);
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
accumProbeChainAvx512(const AccumProbeView &view, const Tuple &t,
                      __m128i tagv, size_t g)
{
    using namespace accum_layout;
    const __m128i emptyv = _mm_setzero_si128();
    for (;;) {
        const size_t base = g * kGroupLanes;
        const __m128i tv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(view.tags + base));
        unsigned match = _mm_cmpeq_epi8_mask(tv, tagv);
        while (match != 0) {
            const unsigned l =
                static_cast<unsigned>(__builtin_ctz(match));
            if (view.keys[base + l] == t)
                return view.slotOf[base + l];
            match &= match - 1;
        }
        if (_mm_cmpeq_epi8_mask(tv, emptyv) != 0)
            return UINT32_MAX;
        g = (g + 1) & view.groupMask;
    }
}

/**
 * Tag-group probe for a whole block: one vpcmpeqb-to-mask compares a
 * full 16-lane group (the software form of the paper's CAM tag match),
 * the first candidate's key confirms the hit, and a group holding an
 * empty lane ends the chain. The fast path is branch-free — the
 * candidate lane index defaults to the pad lane (AccumProbeView) and
 * the hit/miss distinction is a conditional move, so the 30/70
 * hit/absent mix of a shielded stream costs no mispredictions. Only
 * tag collisions and overfull home groups fall into the chain walker.
 */
size_t
accumProbeBlockAvx512(const AccumProbeView &view, const Tuple *block,
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
        const unsigned match = _mm_cmpeq_epi8_mask(tv, tagv);
        const unsigned empty = _mm_cmpeq_epi8_mask(tv, emptyv);
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
            s = accumProbeChainAvx512(view, block[k], tagv, g);
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
bumpMinBlockAvx512(uint64_t *soa, const uint32_t *idx, unsigned n,
                   size_t start, size_t numAbsent, uint64_t saturation,
                   uint64_t threshold, uint64_t *stopMin)
{
    for (size_t j = start; j < numAbsent; ++j) {
        const uint64_t newMin =
            bumpMinAvx512(soa, idx + j * n, n, saturation);
        if (newMin >= threshold) {
            *stopMin = newMin;
            return j;
        }
    }
    return numAbsent;
}

size_t
bumpMinConservativeBlockAvx512(uint64_t *soa, const uint32_t *idx,
                               unsigned n, size_t start,
                               size_t numAbsent, uint64_t saturation,
                               uint64_t threshold, uint64_t *stopMin)
{
    size_t j = start;
    if (n == 4) {
        // Two events per iteration: one 8-lane gather/scatter covers
        // both events' counters, and each event's own minimum comes
        // from two in-register permute+min steps per 256-bit half
        // (which leaves that minimum broadcast across the half — the
        // exact compare operand pass 2 needs). The pair is applied at
        // once only when it provably matches the strict per-event
        // order: the events share no counter (same table segments, so
        // a shared counter means equal indexes in the same lane), and
        // neither event crosses the threshold or sits at the
        // saturation ceiling. Any of those — all rare — falls back to
        // the one-event kernel, which re-establishes stream order.
        const __m512i one = _mm512_set1_epi64(1);
        while (j + 2 <= numAbsent) {
            const uint32_t *const row = idx + j * 4;
            const __m256i iv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row));
            const __m128i iv0 = _mm256_castsi256_si128(iv);
            const __m128i iv1 = _mm256_extracti128_si256(iv, 1);
            const __mmask8 shared = _mm_cmpeq_epi32_mask(iv0, iv1);
            const __m512i vals = _mm512_i32gather_epi64(iv, soa, 8);
            const __m512i swap1 = _mm512_min_epu64(
                vals, _mm512_permutex_epi64(vals, 0xB1));
            const __m512i mins = _mm512_min_epu64(
                swap1, _mm512_permutex_epi64(swap1, 0x4E));
            const uint64_t min0 = static_cast<uint64_t>(
                _mm_cvtsi128_si64(_mm512_castsi512_si128(mins)));
            const uint64_t min1 = static_cast<uint64_t>(
                _mm_cvtsi128_si64(_mm256_castsi256_si128(
                    _mm512_extracti64x4_epi64(mins, 1))));
            const unsigned slow =
                static_cast<unsigned>(shared != 0) |
                static_cast<unsigned>(min0 + 1 >= threshold) |
                static_cast<unsigned>(min1 + 1 >= threshold) |
                static_cast<unsigned>(min0 >= saturation) |
                static_cast<unsigned>(min1 >= saturation);
            if (__builtin_expect(slow != 0, 0)) {
                const uint64_t newMin = bumpMinConservativeAvx512(
                    soa, row, 4, saturation);
                if (newMin >= threshold) {
                    *stopMin = newMin;
                    return j;
                }
                ++j;
                continue;
            }
            const __mmask8 isMin =
                _mm512_cmpeq_epu64_mask(vals, mins);
            const __m512i newv =
                _mm512_mask_add_epi64(vals, isMin, vals, one);
            _mm512_i32scatter_epi64(soa, iv, newv, 8);
            j += 2;
        }
    }
    for (; j < numAbsent; ++j) {
        const uint64_t newMin =
            bumpMinConservativeAvx512(soa, idx + j * n, n, saturation);
        if (newMin >= threshold) {
            *stopMin = newMin;
            return j;
        }
    }
    return numAbsent;
}

} // namespace

const IngestKernels *
ingestKernelsAvx512()
{
    static const IngestKernels table = {
        IsaTier::Avx512,
        hashBlockAvx512,
        hashBlockMultiAvx512,
        signatureBlockAvx512,
        tupleHashBlockAvx512,
        bumpMinAvx512,
        bumpMinConservativeAvx512,
        accumProbeBlockAvx512,
        bumpMinBlockAvx512,
        bumpMinConservativeBlockAvx512,
    };
    return &table;
}

} // namespace mhp

#else // !AVX-512

namespace mhp {

const IngestKernels *
ingestKernelsAvx512()
{
    return nullptr;
}

} // namespace mhp

#endif
