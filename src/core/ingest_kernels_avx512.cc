/**
 * @file
 * AVX-512 ingest kernels: eight 64-bit lanes per instruction.
 *
 * The TupleHash multiply chain runs eight tuples per iteration with
 * the native 64-bit vpmullq. The counter kernels use the EVEX mask
 * registers: saturation and the C1 min-select become unsigned compare
 * masks feeding masked adds, and results scatter back with
 * vpscatterqq. The accumulator probe is the shared
 * ingest_kernels_probe.h template instantiated with a one-instruction
 * byte-compare-to-mask, compiled here with this TU's flags. Hash
 * indexes come from the portable ContributionTable kernel
 * (core/hash_function.h), not from a tier.
 *
 * Gathers, permutes, extracts, unsigned mins, vpmullq and shifts use
 * the masked forms with an explicit zero source (kAll8): their
 * unmasked intrinsics take an undefined source operand, which gcc 12
 * reports as maybe-uninitialized.
 *
 * Everything here must match ingest_kernels_ref.h bit for bit; ragged
 * tails (m % 8, n % 4) run the reference bodies directly.
 */

#include "core/ingest_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512DQ__) && defined(__AVX512VL__) && \
    defined(__AVX512CD__) && defined(__x86_64__)

#include <immintrin.h>

#include "core/ingest_kernels_probe.h"
#include "core/ingest_kernels_ref.h"

namespace mhp {
namespace {

static_assert(sizeof(Tuple) == 16,
              "AVX-512 tuple loads assume a packed pair of u64");

/** Every lane of a 512-bit vector of u64 (the masked forms' mask). */
constexpr __mmask8 kAll8 = 0xff;

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
            pc, _mm512_maskz_mullo_epi64(
                    kAll8, _mm512_add_epi64(val, one), c1));
        z = _mm512_maskz_mullo_epi64(
            kAll8,
            _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAll8, z, 30)),
            c2);
        z = _mm512_maskz_mullo_epi64(
            kAll8,
            _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAll8, z, 27)),
            c3);
        z = _mm512_xor_si512(z, _mm512_maskz_srli_epi64(kAll8, z, 31));
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

/** The tag-group compare: one vpcmpeqb-to-mask over 16 lanes. */
struct GroupMaskAvx512
{
    unsigned
    operator()(const uint8_t *group, uint8_t byte) const
    {
        const __m128i tv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(group));
        return _mm_cmpeq_epi8_mask(
            tv, _mm_set1_epi8(static_cast<char>(byte)));
    }
};

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
            const __m512i vals = _mm512_mask_i32gather_epi64(
                _mm512_setzero_si512(), kAll8, iv, soa, 8);
            const __m512i swap1 = _mm512_maskz_min_epu64(
                kAll8, vals,
                _mm512_maskz_permutex_epi64(kAll8, vals, 0xB1));
            const __m512i mins = _mm512_maskz_min_epu64(
                kAll8, swap1,
                _mm512_maskz_permutex_epi64(kAll8, swap1, 0x4E));
            const uint64_t min0 = static_cast<uint64_t>(_mm_cvtsi128_si64(
                _mm512_maskz_extracti64x2_epi64(0x3, mins, 0)));
            const uint64_t min1 = static_cast<uint64_t>(_mm_cvtsi128_si64(
                _mm512_maskz_extracti64x2_epi64(0x3, mins, 2)));
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
        tupleHashBlockAvx512,
        accum_probe::probeBlock<GroupMaskAvx512>,
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
