/**
 * @file
 * Internal: the two tiers' kernel-table factories, one per translation
 * unit so the avx512 one can be compiled with its own ISA flags (see
 * src/core/CMakeLists.txt). When the avx512 tier is compiled out of
 * the binary (not an x86 build, or the compiler lacks the flags) its
 * factory returns nullptr and dispatch uses the scalar tier.
 */

#ifndef MHP_CORE_INGEST_KERNELS_TIERS_H
#define MHP_CORE_INGEST_KERNELS_TIERS_H

namespace mhp {

struct IngestKernels;

const IngestKernels *ingestKernelsScalar();
const IngestKernels *ingestKernelsAvx512();

} // namespace mhp

#endif // MHP_CORE_INGEST_KERNELS_TIERS_H
