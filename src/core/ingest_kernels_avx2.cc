/**
 * @file
 * AVX2 ingest kernels: four 64-bit lanes per instruction.
 *
 * The hash pipeline processes four tuples per iteration for one
 * hasher: the eight per-byte random-table lookups become
 * vpgatherqq's over the 2 KiB (L1-resident) table, the byte-position
 * rotates are constant-amount vector shifts, the paper's "flip" is a
 * per-lane vpshufb byte reverse, and the xor-fold runs as vector
 * shift/and/xor rounds. The counter kernels gather the n
 * structure-of-arrays counters of one event, do the saturating add
 * (and the C1 min-select) as vector compare/sub, and write back with
 * scalar lane extracts (AVX2 has no scatter).
 *
 * Everything here must match ingest_kernels_ref.h bit for bit; ragged
 * tails (m % 4, n % 4) run the reference bodies directly.
 */

#include "core/ingest_kernels.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "core/ingest_kernels_ref.h"

namespace mhp {
namespace {

static_assert(sizeof(Tuple) == 16,
              "AVX2 tuple loads assume a packed pair of u64");

/** Rotate each 64-bit lane left by a compile-time amount. */
template <int R>
inline __m256i
rotl4(__m256i v)
{
    if constexpr (R == 0)
        return v;
    return _mm256_or_si256(_mm256_slli_epi64(v, R),
                           _mm256_srli_epi64(v, 64 - R));
}

/** One kernel_ref::randomize round: lookup byte I of v, rotate, accumulate.
 *  The byte index is extracted per round rather than hoisted: eight
 *  live byte vectors per input would exhaust the 16-register ymm file
 *  and spill around every gather. */
template <int I>
inline __m256i
randRound(const long long *tb, __m256i v, __m256i byteMask, __m256i r)
{
    const __m256i byte =
        _mm256_and_si256(_mm256_srli_epi64(v, 8 * I), byteMask);
    const __m256i word = _mm256_i64gather_epi64(tb, byte, 8);
    return _mm256_xor_si256(r, rotl4<8 * I>(word));
}

/** kernel_ref::randomize on four lanes. */
inline __m256i
randomize4(const uint64_t *table, __m256i v)
{
    const long long *tb = reinterpret_cast<const long long *>(table);
    const __m256i byteMask = _mm256_set1_epi64x(0xff);
    __m256i r = _mm256_i64gather_epi64(
        tb, _mm256_and_si256(v, byteMask), 8);
    r = randRound<1>(tb, v, byteMask, r);
    r = randRound<2>(tb, v, byteMask, r);
    r = randRound<3>(tb, v, byteMask, r);
    r = randRound<4>(tb, v, byteMask, r);
    r = randRound<5>(tb, v, byteMask, r);
    r = randRound<6>(tb, v, byteMask, r);
    r = randRound<7>(tb, v, byteMask, r);
    return r;
}

/** byteFlip (bswap64) on each lane. */
inline __m256i
byteFlip4(__m256i v)
{
    const __m256i m = _mm256_setr_epi8(
        7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8,
        7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8);
    return _mm256_shuffle_epi8(v, m);
}

/** The unfolded signature for four tuples already split pc/value. */
inline __m256i
signature4(const uint64_t *tables, __m256i pc, __m256i val)
{
    const __m256i npc = byteFlip4(randomize4(tables, pc));
    const __m256i nv = randomize4(tables + 256, val);
    return _mm256_xor_si256(npc, nv);
}

/** One compile-time xorFoldHot round at shift S, recursing by Bits. */
template <unsigned Bits, unsigned S>
inline __m256i
fold4Step(__m256i sig, __m256i mask, __m256i r)
{
    r = _mm256_xor_si256(
        r, _mm256_and_si256(
               _mm256_srli_epi64(sig, static_cast<int>(S)), mask));
    if constexpr (S + Bits < 64)
        return fold4Step<Bits, S + Bits>(sig, mask, r);
    else
        return r;
}

/** xorFoldHot with the fold width fixed at compile time: the rounds
 *  fully unroll with immediate shift counts. */
template <unsigned Bits>
inline __m256i
fold4Fixed(__m256i sig)
{
    const __m256i mask =
        _mm256_set1_epi64x(static_cast<long long>((1ULL << Bits) - 1));
    return fold4Step<Bits, 0>(sig, mask, _mm256_setzero_si256());
}

/** xorFoldHot on four lanes (same round count for every lane). The
 *  common table widths dispatch to the unrolled fixed-width forms; the
 *  generic loop covers the rest. */
inline __m256i
fold4(__m256i sig, unsigned bits)
{
    switch (bits) {
      case 8: return fold4Fixed<8>(sig);
      case 9: return fold4Fixed<9>(sig);
      case 10: return fold4Fixed<10>(sig);
      case 11: return fold4Fixed<11>(sig);
      case 12: return fold4Fixed<12>(sig);
      case 13: return fold4Fixed<13>(sig);
      default: break;
    }
    const __m256i mask =
        _mm256_set1_epi64x(static_cast<long long>((1ULL << bits) - 1));
    __m256i r = _mm256_setzero_si256();
    for (unsigned s = 0; s < 64; s += bits) {
        const __m128i count = _mm_cvtsi32_si128(static_cast<int>(s));
        r = _mm256_xor_si256(
            r, _mm256_and_si256(_mm256_srl_epi64(sig, count), mask));
    }
    return r;
}

/** Split four consecutive tuples into a pc vector and a value vector. */
inline void
loadTuples4(const Tuple *p, __m256i &pc, __m256i &val)
{
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p + 2));
    // a = [f0 s0 f1 s1], b = [f2 s2 f3 s3]
    const __m256i pa = _mm256_permute4x64_epi64(a, _MM_SHUFFLE(3, 1, 2, 0));
    const __m256i pb = _mm256_permute4x64_epi64(b, _MM_SHUFFLE(3, 1, 2, 0));
    pc = _mm256_permute2x128_si256(pa, pb, 0x20);
    val = _mm256_permute2x128_si256(pa, pb, 0x31);
}

void
hashBlockAvx2(const uint64_t *tables, unsigned bits, const Tuple *block,
              size_t m, uint32_t *out)
{
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        __m256i pc, val;
        loadTuples4(block + j, pc, val);
        const __m256i idx = fold4(signature4(tables, pc, val), bits);
        out[j] = static_cast<uint32_t>(_mm256_extract_epi64(idx, 0));
        out[j + 1] = static_cast<uint32_t>(_mm256_extract_epi64(idx, 1));
        out[j + 2] = static_cast<uint32_t>(_mm256_extract_epi64(idx, 2));
        out[j + 3] = static_cast<uint32_t>(_mm256_extract_epi64(idx, 3));
    }
    for (; j < m; ++j)
        out[j] = static_cast<uint32_t>(
            kernel_ref::index(tables, bits, block[j]));
}

void
hashBlockMultiAvx2(const uint64_t *tables, unsigned numTables,
                   unsigned bits, const Tuple *block, size_t m,
                   uint32_t *out, uint32_t addendStride)
{
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        __m256i pc, val;
        loadTuples4(block + j, pc, val);
        // The tuple load and lane split happen once; only the per-
        // table work (gathers from a different base, fold) repeats.
        // Two live vectors (pc, val) across the table loop keep the
        // register pressure identical to the single-table kernel.
        uint32_t *const row = out + j * numTables;
        for (unsigned i = 0; i < numTables; ++i) {
            const uint64_t *tb = tables + i * kernel_ref::kTableWords;
            const __m256i add = _mm256_set1_epi64x(
                static_cast<long long>(i * addendStride));
            const __m256i idx = _mm256_add_epi64(
                fold4(signature4(tb, pc, val), bits), add);
            row[i] =
                static_cast<uint32_t>(_mm256_extract_epi64(idx, 0));
            row[numTables + i] =
                static_cast<uint32_t>(_mm256_extract_epi64(idx, 1));
            row[2 * numTables + i] =
                static_cast<uint32_t>(_mm256_extract_epi64(idx, 2));
            row[3 * numTables + i] =
                static_cast<uint32_t>(_mm256_extract_epi64(idx, 3));
        }
    }
    for (; j < m; ++j)
        kernel_ref::indexMulti(tables, numTables, bits, block[j],
                               addendStride, out + j * numTables);
}

void
signatureBlockAvx2(const uint64_t *tables, const Tuple *block, size_t m,
                   uint64_t *out)
{
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        __m256i pc, val;
        loadTuples4(block + j, pc, val);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + j),
                            signature4(tables, pc, val));
    }
    for (; j < m; ++j)
        out[j] = kernel_ref::signature(tables, block[j]);
}

/** Multiply each 64-bit lane by a 64-bit constant (low-64 result). */
inline __m256i
mul64c(__m256i a, uint64_t c)
{
    const __m256i clo =
        _mm256_set1_epi64x(static_cast<long long>(c & 0xffffffffULL));
    const __m256i chi =
        _mm256_set1_epi64x(static_cast<long long>(c >> 32));
    const __m256i ahi = _mm256_srli_epi64(a, 32);
    const __m256i lo = _mm256_mul_epu32(a, clo);
    const __m256i mid = _mm256_add_epi64(_mm256_mul_epu32(ahi, clo),
                                         _mm256_mul_epu32(a, chi));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32));
}

void
tupleHashBlockAvx2(const Tuple *block, size_t m, uint64_t *out)
{
    const __m256i one = _mm256_set1_epi64x(1);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        __m256i pc, val;
        loadTuples4(block + j, pc, val);
        __m256i z = _mm256_add_epi64(
            pc, mul64c(_mm256_add_epi64(val, one),
                       0x9e3779b97f4a7c15ULL));
        z = mul64c(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                   0xbf58476d1ce4e5b9ULL);
        z = mul64c(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                   0x94d049bb133111ebULL);
        z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + j), z);
    }
    for (; j < m; ++j)
        out[j] = kernel_ref::tupleHash(block[j]);
}

/** Lane-wise signed min (all counter values stay below 2^62). */
inline __m256i
min4(__m256i a, __m256i b)
{
    return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

/** Horizontal min of the four lanes. */
inline uint64_t
hmin4(__m256i v)
{
    const __m128i lo = _mm256_castsi256_si128(v);
    const __m128i hi = _mm256_extracti128_si256(v, 1);
    const __m128i m =
        _mm_blendv_epi8(lo, hi, _mm_cmpgt_epi64(lo, hi));
    const uint64_t a = static_cast<uint64_t>(_mm_extract_epi64(m, 0));
    const uint64_t b = static_cast<uint64_t>(_mm_extract_epi64(m, 1));
    return a < b ? a : b;
}

/** Counter magnitudes above this lose signed-compare safety. */
constexpr uint64_t kSignedSafe = 1ULL << 62;

uint64_t
bumpMinAvx2(uint64_t *soa, const uint32_t *idx, unsigned n,
            uint64_t saturation)
{
    if (n < 4 || saturation >= kSignedSafe)
        return kernel_ref::bumpMin(soa, idx, n, saturation);
    const __m256i satv =
        _mm256_set1_epi64x(static_cast<long long>(saturation));
    __m256i minv =
        _mm256_set1_epi64x(static_cast<long long>(kSignedSafe));
    unsigned i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i iv = _mm256_cvtepu32_epi64(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + i)));
        const __m256i vals = _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(soa), iv, 8);
        // cmpgt is -1 where the counter may advance; subtracting the
        // mask adds exactly 1 to those lanes.
        const __m256i canInc = _mm256_cmpgt_epi64(satv, vals);
        const __m256i newv = _mm256_sub_epi64(vals, canInc);
        soa[idx[i]] =
            static_cast<uint64_t>(_mm256_extract_epi64(newv, 0));
        soa[idx[i + 1]] =
            static_cast<uint64_t>(_mm256_extract_epi64(newv, 1));
        soa[idx[i + 2]] =
            static_cast<uint64_t>(_mm256_extract_epi64(newv, 2));
        soa[idx[i + 3]] =
            static_cast<uint64_t>(_mm256_extract_epi64(newv, 3));
        minv = min4(minv, newv);
    }
    uint64_t newMin = hmin4(minv);
    for (; i < n; ++i) {
        uint64_t &c = soa[idx[i]];
        c += (c < saturation) ? 1 : 0;
        newMin = newMin < c ? newMin : c;
    }
    return newMin;
}

uint64_t
bumpMinConservativeAvx2(uint64_t *soa, const uint32_t *idx, unsigned n,
                        uint64_t saturation)
{
    if (n < 4 || n > 16 || saturation >= kSignedSafe)
        return kernel_ref::bumpMinConservative(soa, idx, n, saturation);

    // Pass 1: gather every counter and find the global minimum. All
    // reads complete before any write, exactly like the reference.
    __m256i vals[4];
    __m256i minv =
        _mm256_set1_epi64x(static_cast<long long>(kSignedSafe));
    unsigned i = 0;
    unsigned chunks = 0;
    for (; i + 4 <= n; i += 4, ++chunks) {
        const __m256i iv = _mm256_cvtepu32_epi64(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(idx + i)));
        vals[chunks] = _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(soa), iv, 8);
        minv = min4(minv, vals[chunks]);
    }
    uint64_t minVal = hmin4(minv);
    for (unsigned t = i; t < n; ++t) {
        const uint64_t v = soa[idx[t]];
        minVal = minVal < v ? minVal : v;
    }

    // Saturated floor: no lane can advance, the minimum is unchanged.
    if (minVal >= saturation)
        return minVal;

    // Pass 2: advance exactly the lanes at the minimum (a min lane's
    // compare mask is all-ones, so subtracting it is the +1). No
    // second reduction: advanced lanes land on minVal + 1 and every
    // other lane was already >= minVal + 1.
    const __m256i minValv =
        _mm256_set1_epi64x(static_cast<long long>(minVal));
    for (unsigned c = 0; c < chunks; ++c) {
        const unsigned base = c * 4;
        const __m256i isMin = _mm256_cmpeq_epi64(vals[c], minValv);
        const __m256i newv = _mm256_sub_epi64(vals[c], isMin);
        soa[idx[base]] =
            static_cast<uint64_t>(_mm256_extract_epi64(newv, 0));
        soa[idx[base + 1]] =
            static_cast<uint64_t>(_mm256_extract_epi64(newv, 1));
        soa[idx[base + 2]] =
            static_cast<uint64_t>(_mm256_extract_epi64(newv, 2));
        soa[idx[base + 3]] =
            static_cast<uint64_t>(_mm256_extract_epi64(newv, 3));
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
accumProbeChainAvx2(const AccumProbeView &view, const Tuple &t,
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
 * Tag-group probe for a whole block. One 16-byte SSE compare per group
 * (AVX2 implies SSE4.2; a group is exactly one xmm register) finds all
 * candidate lanes at once, the first candidate's key confirms the hit,
 * and a group with an empty lane ends the chain. The fast path is
 * branch-free — the candidate lane index defaults to the pad lane
 * (AccumProbeView) and the hit/miss distinction is a conditional move,
 * so the 30/70 hit/absent mix of a shielded stream costs no
 * mispredictions. Only tag collisions and overfull home groups fall
 * into the chain walker.
 */
size_t
accumProbeBlockAvx2(const AccumProbeView &view, const Tuple *block,
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
            s = accumProbeChainAvx2(view, block[k], tagv, g);
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
bumpMinBlockAvx2(uint64_t *soa, const uint32_t *idx, unsigned n,
                 size_t start, size_t numAbsent, uint64_t saturation,
                 uint64_t threshold, uint64_t *stopMin)
{
    for (size_t j = start; j < numAbsent; ++j) {
        const uint64_t newMin =
            bumpMinAvx2(soa, idx + j * n, n, saturation);
        if (newMin >= threshold) {
            *stopMin = newMin;
            return j;
        }
    }
    return numAbsent;
}

size_t
bumpMinConservativeBlockAvx2(uint64_t *soa, const uint32_t *idx,
                             unsigned n, size_t start,
                             size_t numAbsent, uint64_t saturation,
                             uint64_t threshold, uint64_t *stopMin)
{
    for (size_t j = start; j < numAbsent; ++j) {
        const uint64_t newMin =
            bumpMinConservativeAvx2(soa, idx + j * n, n, saturation);
        if (newMin >= threshold) {
            *stopMin = newMin;
            return j;
        }
    }
    return numAbsent;
}

} // namespace

const IngestKernels *
ingestKernelsAvx2()
{
    static const IngestKernels table = {
        IsaTier::Avx2,
        hashBlockAvx2,
        hashBlockMultiAvx2,
        signatureBlockAvx2,
        tupleHashBlockAvx2,
        bumpMinAvx2,
        bumpMinConservativeAvx2,
        accumProbeBlockAvx2,
        bumpMinBlockAvx2,
        bumpMinConservativeBlockAvx2,
    };
    return &table;
}

} // namespace mhp

#else // !__AVX2__

namespace mhp {

const IngestKernels *
ingestKernelsAvx2()
{
    return nullptr;
}

} // namespace mhp

#endif
