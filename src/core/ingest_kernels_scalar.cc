/**
 * @file
 * The portable-scalar ingest kernel tier — the reference bodies from
 * ingest_kernels_ref.h wrapped in the dispatch signature. Always
 * compiled, always supported; every other tier is tested against it.
 */

#include "core/ingest_kernels.h"
#include "core/ingest_kernels_ref.h"

namespace mhp {
namespace {

void
hashBlockScalar(const uint64_t *tables, unsigned bits,
                const Tuple *block, size_t m, uint32_t *out)
{
    for (size_t j = 0; j < m; ++j)
        out[j] = static_cast<uint32_t>(
            kernel_ref::index(tables, bits, block[j]));
}

void
hashBlockMultiScalar(const uint64_t *tables, unsigned numTables,
                     unsigned bits, const Tuple *block, size_t m,
                     uint32_t *out, uint32_t addendStride)
{
    for (size_t j = 0; j < m; ++j)
        kernel_ref::indexMulti(tables, numTables, bits, block[j],
                               addendStride, out + j * numTables);
}

void
signatureBlockScalar(const uint64_t *tables, const Tuple *block,
                     size_t m, uint64_t *out)
{
    for (size_t j = 0; j < m; ++j)
        out[j] = kernel_ref::signature(tables, block[j]);
}

void
tupleHashBlockScalar(const Tuple *block, size_t m, uint64_t *out)
{
    for (size_t j = 0; j < m; ++j)
        out[j] = kernel_ref::tupleHash(block[j]);
}

} // namespace

const IngestKernels *
ingestKernelsScalar()
{
    static const IngestKernels table = {
        IsaTier::Scalar,
        hashBlockScalar,
        hashBlockMultiScalar,
        signatureBlockScalar,
        tupleHashBlockScalar,
        kernel_ref::bumpMin,
        kernel_ref::bumpMinConservative,
        kernel_ref::accumProbeBlock,
        kernel_ref::bumpMinBlock,
        kernel_ref::bumpMinConservativeBlock,
    };
    return &table;
}

} // namespace mhp
