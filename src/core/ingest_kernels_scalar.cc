/**
 * @file
 * The scalar ingest kernel tier: the build's baseline target; no
 * runtime feature check. Always compiled, always supported, and the
 * tier every build falls back to.
 *
 * Two of its entries are the branch-free forms the SIMD tier uses,
 * not the plain reference loops, because the algorithm (not the
 * vector width) is what sets their speed:
 *  - the accumulator probe is the shared ingest_kernels_probe.h
 *    template, comparing a tag group with SSE2 cmpeq + movemask on
 *    x86-64 (SSE2 is part of its baseline) and with a 16-lane loop
 *    elsewhere;
 *  - the conservative (C1) bump reads all n counters, takes the
 *    minimum, and advances exactly the lanes equal to it with no
 *    data-dependent branch.
 * TupleHash and the plain bump are the reference bodies from
 * ingest_kernels_ref.h. Everything matches them bit for bit.
 */

#include "core/ingest_kernels.h"
#include "core/ingest_kernels_probe.h"
#include "core/ingest_kernels_ref.h"

namespace mhp {
namespace {

#if defined(__SSE2__)
using GroupMask = accum_probe::GroupMaskSse2;
#else
using GroupMask = accum_probe::GroupMaskLoop;
#endif

void
tupleHashBlockScalar(const Tuple *block, size_t m, uint64_t *out)
{
    for (size_t j = 0; j < m; ++j)
        out[j] = kernel_ref::tupleHash(block[j]);
}

/**
 * kernel_ref::bumpMinConservative without its per-lane branch. One
 * event's n counters sit in disjoint per-table regions, so the values
 * read in the first pass are still current in the second.
 */
inline uint64_t
bumpMinConservativeScalar(uint64_t *soa, const uint32_t *idx, unsigned n,
                          uint64_t saturation)
{
    if (n > 16)
        return kernel_ref::bumpMinConservative(soa, idx, n, saturation);
    uint64_t vals[16];
    uint64_t minVal = ~0ULL;
    for (unsigned i = 0; i < n; ++i) {
        vals[i] = soa[idx[i]];
        minVal = minVal < vals[i] ? minVal : vals[i];
    }
    // Saturated floor: no lane can advance, the minimum is unchanged.
    if (minVal >= saturation)
        return minVal;
    // Advanced lanes land on minVal + 1 and every other lane was
    // already >= minVal + 1, so that is the post-update minimum.
    for (unsigned i = 0; i < n; ++i)
        soa[idx[i]] = vals[i] + (vals[i] == minVal ? 1 : 0);
    return minVal + 1;
}

size_t
bumpMinConservativeBlockScalar(uint64_t *soa, const uint32_t *idx,
                               unsigned n, size_t start, size_t numAbsent,
                               uint64_t saturation, uint64_t threshold,
                               uint64_t *stopMin)
{
    for (size_t j = start; j < numAbsent; ++j) {
        const uint64_t newMin =
            bumpMinConservativeScalar(soa, idx + j * n, n, saturation);
        if (newMin >= threshold) {
            *stopMin = newMin;
            return j;
        }
    }
    return numAbsent;
}

} // namespace

const IngestKernels *
ingestKernelsScalar()
{
    static const IngestKernels table = {
        IsaTier::Scalar,
        tupleHashBlockScalar,
        accum_probe::probeBlock<GroupMask>,
        kernel_ref::bumpMinBlock,
        bumpMinConservativeBlockScalar,
    };
    return &table;
}

} // namespace mhp
