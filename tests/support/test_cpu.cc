/**
 * @file
 * Runtime ISA-tier detection and override plumbing (support/cpu.h).
 * The kernel-level bit-identity guarantees are covered by
 * core/test_ingest_kernels.cc; these tests pin down the dispatch
 * machinery itself: naming, parsing, support detection, the
 * MHP_FORCE_ISA override, and the test pin.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "support/cpu.h"

namespace mhp {
namespace {

const IsaTier kAllTiers[] = {IsaTier::Scalar, IsaTier::Avx512};

TEST(Cpu, TierNamesRoundTripThroughParse)
{
    for (const IsaTier tier : kAllTiers) {
        const auto parsed = parseIsaTier(isaTierName(tier));
        ASSERT_TRUE(parsed.has_value()) << isaTierName(tier);
        EXPECT_EQ(*parsed, tier);
    }
}

TEST(Cpu, ParseRejectsUnknownSpellings)
{
    EXPECT_FALSE(parseIsaTier("").has_value());
    EXPECT_FALSE(parseIsaTier("avx1024").has_value());
    EXPECT_FALSE(parseIsaTier("SSE42").has_value());
    EXPECT_FALSE(parseIsaTier("scalar ").has_value());
    // Retired tiers: aarch64 builds and x86 CPUs without AVX-512 run
    // the scalar tier.
    EXPECT_FALSE(parseIsaTier("neon").has_value());
    EXPECT_FALSE(parseIsaTier("sse42").has_value());
    EXPECT_FALSE(parseIsaTier("avx2").has_value());
}

TEST(Cpu, ScalarIsAlwaysSupported)
{
    EXPECT_TRUE(isaTierSupported(IsaTier::Scalar));
}

TEST(Cpu, BestTierIsSupported)
{
    EXPECT_TRUE(isaTierSupported(bestIsaTier()));
}

TEST(Cpu, SupportIsArchitectureConsistent)
{
    // Only an x86 build can report the SIMD tier; everything else runs
    // the portable scalar tier.
#if !defined(__x86_64__) && !defined(__i386__)
    EXPECT_EQ(bestIsaTier(), IsaTier::Scalar);
#endif
    // Dispatch is two-way: avx512 when supported, scalar otherwise.
    EXPECT_EQ(bestIsaTier(), isaTierSupported(IsaTier::Avx512)
                                 ? IsaTier::Avx512
                                 : IsaTier::Scalar);
}

TEST(Cpu, ActiveTierIsSupported)
{
    EXPECT_TRUE(isaTierSupported(activeIsaTier()));
}

TEST(Cpu, TestPinOverridesActiveTier)
{
    const IsaTier before = activeIsaTier();
    for (const IsaTier tier : kAllTiers) {
        setIsaTierForTesting(tier);
        EXPECT_EQ(activeIsaTier(), tier) << isaTierName(tier);
    }
    setIsaTierForTesting(std::nullopt);
    EXPECT_EQ(activeIsaTier(), before);
}

TEST(Cpu, ForcedTierMatchesEnvironment)
{
    // forcedIsaTier() latches MHP_FORCE_ISA on first use, so this test
    // can only verify consistency with the current environment — the
    // ctest ISA matrix runs the whole binary under each value.
    const char *value = std::getenv("MHP_FORCE_ISA");
    const auto forced = forcedIsaTier();
    if (value == nullptr || *value == '\0') {
        EXPECT_FALSE(forced.has_value());
    } else {
        EXPECT_EQ(forced, parseIsaTier(value));
    }
}

TEST(Cpu, ForcedSupportedTierBecomesActive)
{
    const auto forced = forcedIsaTier();
    if (!forced.has_value())
        GTEST_SKIP() << "MHP_FORCE_ISA not set";
    if (!isaTierSupported(*forced)) {
        GTEST_SKIP() << "forced tier " << isaTierName(*forced)
                     << " unsupported on this CPU (clamped)";
    }
    EXPECT_EQ(activeIsaTier(), *forced);
}

} // namespace
} // namespace mhp
