/**
 * @file
 * Internal: per-tier kernel-table factories, one per translation unit
 * so each can be compiled with its own ISA flags (see
 * src/core/CMakeLists.txt). A tier that is compiled out of the binary
 * (not an x86 build, or the compiler flag was unavailable) returns
 * nullptr and the dispatcher falls through to the next tier down.
 */

#ifndef MHP_CORE_INGEST_KERNELS_TIERS_H
#define MHP_CORE_INGEST_KERNELS_TIERS_H

namespace mhp {

struct IngestKernels;

const IngestKernels *ingestKernelsScalar();
const IngestKernels *ingestKernelsSse42();
const IngestKernels *ingestKernelsAvx2();
const IngestKernels *ingestKernelsAvx512();

} // namespace mhp

#endif // MHP_CORE_INGEST_KERNELS_TIERS_H
