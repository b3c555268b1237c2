#include "core/ingest_kernels.h"

#include "core/ingest_kernels_tiers.h"
#include "support/cpu.h"

namespace mhp {

const IngestKernels *
ingestKernelsFor(IsaTier tier)
{
    switch (tier) {
      case IsaTier::Scalar:
        return ingestKernelsScalar();
      case IsaTier::Avx512:
        return isaTierSupported(tier) ? ingestKernelsAvx512() : nullptr;
    }
    return nullptr;
}

const IngestKernels &
ingestKernels()
{
    // A supported CPU whose avx512 kernels were compiled out (compiler
    // without the flags) runs the scalar tier instead of crashing.
    const IngestKernels *k = ingestKernelsFor(activeIsaTier());
    return k != nullptr ? *k : *ingestKernelsScalar();
}

} // namespace mhp
