#include "core/ingest_kernels.h"

#include "core/ingest_kernels_tiers.h"
#include "support/cpu.h"

namespace mhp {

const IngestKernels *
ingestKernelsFor(IsaTier tier)
{
    if (!isaTierSupported(tier))
        return tier == IsaTier::Scalar ? ingestKernelsScalar() : nullptr;
    switch (tier) {
      case IsaTier::Scalar:
        return ingestKernelsScalar();
      case IsaTier::Sse42:
        return ingestKernelsSse42();
      case IsaTier::Avx2:
        return ingestKernelsAvx2();
      case IsaTier::Avx512:
        return ingestKernelsAvx512();
    }
    return nullptr;
}

const IngestKernels &
ingestKernels()
{
    // Walk down from the active tier until a compiled-in table is
    // found: a supported CPU feature whose kernels were compiled out
    // (compiler without the ISA flag) degrades gracefully instead of
    // crashing. Scalar is always present.
    IsaTier tier = activeIsaTier();
    for (;;) {
        if (const IngestKernels *k = ingestKernelsFor(tier))
            return *k;
        tier = isaTierFallback(tier);
    }
}

} // namespace mhp
