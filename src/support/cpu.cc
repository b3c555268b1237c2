#include "support/cpu.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace mhp {

namespace {

std::once_flag gForcedOnce;
std::optional<IsaTier> gForced;

/** Pinned tier from setIsaTierForTesting(); -1 = no pin. */
std::atomic<int> gTestPin{-1};

} // namespace

const char *
isaTierName(IsaTier tier)
{
    switch (tier) {
      case IsaTier::Scalar:
        return "scalar";
      case IsaTier::Avx512:
        return "avx512";
    }
    return "?";
}

std::optional<IsaTier>
parseIsaTier(const std::string &name)
{
    for (const IsaTier tier : {IsaTier::Scalar, IsaTier::Avx512}) {
        if (name == isaTierName(tier))
            return tier;
    }
    return std::nullopt;
}

bool
isaTierSupported(IsaTier tier)
{
    switch (tier) {
      case IsaTier::Scalar:
        return true;
      case IsaTier::Avx512:
#if defined(__x86_64__) || defined(__i386__)
        // The AVX-512 kernels use F (gather/scatter, rotates),
        // BW (byte shuffles/compares), DQ (64-bit multiply), VL
        // (256-bit forms), and CD (conflict detection); require the
        // full set so one check covers every instruction emitted.
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0 &&
               __builtin_cpu_supports("avx512dq") != 0 &&
               __builtin_cpu_supports("avx512vl") != 0 &&
               __builtin_cpu_supports("avx512cd") != 0;
#else
        return false;
#endif
    }
    return false;
}

IsaTier
bestIsaTier()
{
    return isaTierSupported(IsaTier::Avx512) ? IsaTier::Avx512
                                             : IsaTier::Scalar;
}

std::optional<IsaTier>
forcedIsaTier()
{
    std::call_once(gForcedOnce, [] {
        const char *value = std::getenv("MHP_FORCE_ISA");
        if (value == nullptr || *value == '\0')
            return;
        gForced = parseIsaTier(value);
        if (!gForced) {
            std::fprintf(stderr,
                         "mhp: MHP_FORCE_ISA=%s not recognized "
                         "(scalar|avx512); ignoring\n",
                         value);
        }
    });
    return gForced;
}

IsaTier
activeIsaTier()
{
    const int pin = gTestPin.load(std::memory_order_acquire);
    if (pin >= 0)
        return static_cast<IsaTier>(pin);

    static const IsaTier resolved = [] {
        const std::optional<IsaTier> forced = forcedIsaTier();
        if (forced) {
            if (isaTierSupported(*forced))
                return *forced;
            std::fprintf(stderr,
                         "mhp: MHP_FORCE_ISA=%s unsupported on this "
                         "CPU; using %s\n",
                         isaTierName(*forced),
                         isaTierName(bestIsaTier()));
        }
        return bestIsaTier();
    }();
    return resolved;
}

void
setIsaTierForTesting(std::optional<IsaTier> tier)
{
    gTestPin.store(tier ? static_cast<int>(*tier) : -1,
                   std::memory_order_release);
}

} // namespace mhp
