/**
 * @file
 * SSE4.2 ingest kernels: two 64-bit lanes per instruction.
 *
 * Pre-AVX2 x86 has no gather, so the per-byte random-table lookups
 * stay scalar loads placed into vector lanes; the rotates, xors, byte
 * flip, xor-fold and saturating-counter arithmetic run two lanes
 * wide. The tier's value is mostly completeness — it exercises the
 * dispatch path on older x86 and halves the ALU work of the hash
 * composition — while AVX2 is where the real win lives.
 *
 * Bit-identical to ingest_kernels_ref.h; ragged tails run the
 * reference bodies.
 */

#include "core/ingest_kernels.h"

#if defined(__SSE4_2__) && defined(__x86_64__)

#include <nmmintrin.h>
#include <tmmintrin.h>

#include "core/ingest_kernels_ref.h"

namespace mhp {
namespace {

static_assert(sizeof(Tuple) == 16,
              "SSE4.2 tuple loads assume a packed pair of u64");

template <int R>
inline __m128i
rotl2(__m128i v)
{
    if constexpr (R == 0)
        return v;
    return _mm_or_si128(_mm_slli_epi64(v, R), _mm_srli_epi64(v, 64 - R));
}

/** One kernel_ref::randomize round for byte position I of two inputs. */
template <int I>
inline __m128i
randRound(const uint64_t *tb, uint64_t v0, uint64_t v1, __m128i r)
{
    const __m128i word = _mm_set_epi64x(
        static_cast<long long>(tb[static_cast<uint8_t>(v1 >> (8 * I))]),
        static_cast<long long>(tb[static_cast<uint8_t>(v0 >> (8 * I))]));
    return _mm_xor_si128(r, rotl2<8 * I>(word));
}

/** kernel_ref::randomize on two lanes. */
inline __m128i
randomize2(const uint64_t *tb, uint64_t v0, uint64_t v1)
{
    __m128i r = _mm_set_epi64x(
        static_cast<long long>(tb[static_cast<uint8_t>(v1)]),
        static_cast<long long>(tb[static_cast<uint8_t>(v0)]));
    r = randRound<1>(tb, v0, v1, r);
    r = randRound<2>(tb, v0, v1, r);
    r = randRound<3>(tb, v0, v1, r);
    r = randRound<4>(tb, v0, v1, r);
    r = randRound<5>(tb, v0, v1, r);
    r = randRound<6>(tb, v0, v1, r);
    r = randRound<7>(tb, v0, v1, r);
    return r;
}

/** byteFlip (bswap64) on each lane. */
inline __m128i
byteFlip2(__m128i v)
{
    const __m128i m = _mm_setr_epi8(7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13,
                                    12, 11, 10, 9, 8);
    return _mm_shuffle_epi8(v, m);
}

/** The unfolded signature for two tuples. */
inline __m128i
signature2(const uint64_t *tables, const Tuple &t0, const Tuple &t1)
{
    const __m128i npc =
        byteFlip2(randomize2(tables, t0.first, t1.first));
    const __m128i nv = randomize2(tables + 256, t0.second, t1.second);
    return _mm_xor_si128(npc, nv);
}

/** One compile-time xorFoldHot round at shift S, recursing by Bits. */
template <unsigned Bits, unsigned S>
inline __m128i
fold2Step(__m128i sig, __m128i mask, __m128i r)
{
    r = _mm_xor_si128(
        r, _mm_and_si128(_mm_srli_epi64(sig, static_cast<int>(S)),
                         mask));
    if constexpr (S + Bits < 64)
        return fold2Step<Bits, S + Bits>(sig, mask, r);
    else
        return r;
}

/** xorFoldHot with the fold width fixed at compile time: the rounds
 *  fully unroll with immediate shift counts. */
template <unsigned Bits>
inline __m128i
fold2Fixed(__m128i sig)
{
    const __m128i mask =
        _mm_set1_epi64x(static_cast<long long>((1ULL << Bits) - 1));
    return fold2Step<Bits, 0>(sig, mask, _mm_setzero_si128());
}

/** xorFoldHot on two lanes. The common table widths dispatch to the
 *  unrolled fixed-width forms; the generic loop covers the rest. */
inline __m128i
fold2(__m128i sig, unsigned bits)
{
    switch (bits) {
      case 8: return fold2Fixed<8>(sig);
      case 9: return fold2Fixed<9>(sig);
      case 10: return fold2Fixed<10>(sig);
      case 11: return fold2Fixed<11>(sig);
      case 12: return fold2Fixed<12>(sig);
      case 13: return fold2Fixed<13>(sig);
      default: break;
    }
    const __m128i mask =
        _mm_set1_epi64x(static_cast<long long>((1ULL << bits) - 1));
    __m128i r = _mm_setzero_si128();
    for (unsigned s = 0; s < 64; s += bits) {
        const __m128i count = _mm_cvtsi32_si128(static_cast<int>(s));
        r = _mm_xor_si128(r,
                          _mm_and_si128(_mm_srl_epi64(sig, count), mask));
    }
    return r;
}

void
hashBlockSse42(const uint64_t *tables, unsigned bits,
               const Tuple *block, size_t m, uint32_t *out)
{
    size_t j = 0;
    for (; j + 2 <= m; j += 2) {
        const __m128i idx =
            fold2(signature2(tables, block[j], block[j + 1]), bits);
        out[j] = static_cast<uint32_t>(_mm_extract_epi64(idx, 0));
        out[j + 1] = static_cast<uint32_t>(_mm_extract_epi64(idx, 1));
    }
    for (; j < m; ++j)
        out[j] = static_cast<uint32_t>(
            kernel_ref::index(tables, bits, block[j]));
}

/**
 * The per-byte table offsets of two lanes, extracted once so the
 * multi-table pass reuses them across hashers.
 */
struct ByteIndexes2
{
    uint8_t b0[8];
    uint8_t b1[8];
};

inline ByteIndexes2
byteIndexes2(uint64_t v0, uint64_t v1)
{
    ByteIndexes2 out;
    for (int i = 0; i < 8; ++i) {
        out.b0[i] = static_cast<uint8_t>(v0 >> (8 * i));
        out.b1[i] = static_cast<uint8_t>(v1 >> (8 * i));
    }
    return out;
}

/** One kernel_ref::randomize round from precomputed byte offsets. */
template <int I>
inline __m128i
randRoundPre(const uint64_t *tb, const ByteIndexes2 &b, __m128i r)
{
    const __m128i word =
        _mm_set_epi64x(static_cast<long long>(tb[b.b1[I]]),
                       static_cast<long long>(tb[b.b0[I]]));
    return _mm_xor_si128(r, rotl2<8 * I>(word));
}

/** kernel_ref::randomize on two lanes of precomputed bytes. */
inline __m128i
randomize2Pre(const uint64_t *tb, const ByteIndexes2 &b)
{
    __m128i r = _mm_set_epi64x(static_cast<long long>(tb[b.b1[0]]),
                               static_cast<long long>(tb[b.b0[0]]));
    r = randRoundPre<1>(tb, b, r);
    r = randRoundPre<2>(tb, b, r);
    r = randRoundPre<3>(tb, b, r);
    r = randRoundPre<4>(tb, b, r);
    r = randRoundPre<5>(tb, b, r);
    r = randRoundPre<6>(tb, b, r);
    r = randRoundPre<7>(tb, b, r);
    return r;
}

void
hashBlockMultiSse42(const uint64_t *tables, unsigned numTables,
                    unsigned bits, const Tuple *block, size_t m,
                    uint32_t *out, uint32_t addendStride)
{
    size_t j = 0;
    for (; j + 2 <= m; j += 2) {
        const Tuple &t0 = block[j];
        const Tuple &t1 = block[j + 1];
        const ByteIndexes2 pcBytes = byteIndexes2(t0.first, t1.first);
        const ByteIndexes2 valBytes =
            byteIndexes2(t0.second, t1.second);
        for (unsigned i = 0; i < numTables; ++i) {
            const uint64_t *tb = tables + i * kernel_ref::kTableWords;
            const __m128i npc =
                byteFlip2(randomize2Pre(tb, pcBytes));
            const __m128i nv = randomize2Pre(tb + 256, valBytes);
            const __m128i add = _mm_set1_epi64x(
                static_cast<long long>(i * addendStride));
            const __m128i idx = _mm_add_epi64(
                fold2(_mm_xor_si128(npc, nv), bits), add);
            out[j * numTables + i] =
                static_cast<uint32_t>(_mm_extract_epi64(idx, 0));
            out[(j + 1) * numTables + i] =
                static_cast<uint32_t>(_mm_extract_epi64(idx, 1));
        }
    }
    for (; j < m; ++j)
        kernel_ref::indexMulti(tables, numTables, bits, block[j],
                               addendStride, out + j * numTables);
}

void
signatureBlockSse42(const uint64_t *tables, const Tuple *block,
                    size_t m, uint64_t *out)
{
    size_t j = 0;
    for (; j + 2 <= m; j += 2) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + j),
                         signature2(tables, block[j], block[j + 1]));
    }
    for (; j < m; ++j)
        out[j] = kernel_ref::signature(tables, block[j]);
}

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
        hashBlockSse42,
        hashBlockMultiSse42,
        signatureBlockSse42,
        tupleHashBlockSse42,
        bumpMinSse42,
        bumpMinConservativeSse42,
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
