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
        tupleHashBlockScalar,
        kernel_ref::accumProbeBlock,
        kernel_ref::bumpMinBlock,
        kernel_ref::bumpMinConservativeBlock,
    };
    return &table;
}

} // namespace mhp
