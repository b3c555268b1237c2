#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>
#include <vector>

#include "core/hash_function.h"
#include "support/rng.h"

namespace mhp {
namespace {

TEST(TupleHasher, IndexStaysInRange)
{
    TupleHasher h(1, 2048);
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const Tuple t{rng.next(), rng.next()};
        EXPECT_LT(h.index(t), 2048u);
    }
}

TEST(TupleHasher, IsDeterministic)
{
    TupleHasher a(5, 1024), b(5, 1024);
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const Tuple t{rng.next(), rng.next()};
        EXPECT_EQ(a.index(t), b.index(t));
    }
}

TEST(TupleHasher, SeedsGiveIndependentFunctions)
{
    // Two functions with different random tables should agree on an
    // index only ~1/size of the time.
    TupleHasher a(1, 256), b(2, 256);
    Rng rng(3);
    int agree = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const Tuple t{rng.next(), rng.next()};
        if (a.index(t) == b.index(t))
            ++agree;
    }
    const double rate = static_cast<double>(agree) / n;
    EXPECT_NEAR(rate, 1.0 / 256, 0.004);
}

TEST(TupleHasher, SequentialPcsSpreadEvenly)
{
    // The paper verified "a very even distribution" hashing static
    // tuples; chi-square over sequential-pc tuples must be sane.
    const uint64_t size = 256;
    TupleHasher h(7, size);
    std::vector<uint64_t> buckets(size, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        // Temporally close tuples: nearby pcs, small values.
        const Tuple t{0x120000000ULL + (i % 1000) * 4,
                      static_cast<uint64_t>(i % 97)};
        ++buckets[h.index(t)];
    }
    const double expect = static_cast<double>(n) / size;
    double chi2 = 0.0;
    for (uint64_t b : buckets) {
        const double d = static_cast<double>(b) - expect;
        chi2 += d * d / expect;
    }
    // dof = 255; a catastrophically bad hash gives chi2 in the
    // thousands. Accept anything below ~2x dof.
    EXPECT_LT(chi2, 2.0 * 255);
}

TEST(TupleHasher, BothMembersAffectIndex)
{
    TupleHasher h(9, 1024);
    Rng rng(4);
    int pc_changes = 0, val_changes = 0;
    const int n = 1000;
    for (int i = 0; i < n; ++i) {
        const Tuple t{rng.next(), rng.next()};
        if (h.index(t) != h.index(Tuple{t.first + 4, t.second}))
            ++pc_changes;
        if (h.index(t) != h.index(Tuple{t.first, t.second + 1}))
            ++val_changes;
    }
    EXPECT_GT(pc_changes, n * 9 / 10);
    EXPECT_GT(val_changes, n * 9 / 10);

    // randomize magnifies small differences: adjacent inputs flip
    // about half of the 64 signature bits on average.
    int flipped = 0;
    for (uint64_t v = 0x400000; v < 0x400040; ++v) {
        flipped += __builtin_popcountll(h.signature({v, 0}) ^
                                        h.signature({v + 1, 0}));
    }
    EXPECT_GT(flipped / 64, 20);

    // Byte position matters: the same byte value in byte 0 and byte 1
    // of either member contributes differently.
    EXPECT_NE(h.signature({0xAB, 0}), h.signature({0xAB00, 0}));
    EXPECT_NE(h.signature({0, 0xAB}), h.signature({0, 0xAB00}));
}

TEST(TupleHasher, SignatureIsFullWidth)
{
    // Signatures should exercise all 64 bits across a sample.
    TupleHasher h(11, 2048);
    uint64_t ones = 0, zeros = 0;
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        const uint64_t s = h.signature(Tuple{rng.next(), rng.next()});
        ones |= s;
        zeros |= ~s;
    }
    EXPECT_EQ(ones, ~0ULL);
    EXPECT_EQ(zeros, ~0ULL);
}

TEST(TupleHasherFamily, MembersAreIndependent)
{
    TupleHasherFamily fam(3, 4, 512);
    ASSERT_EQ(fam.size(), 4u);
    // No random word repeats within or across the members' tables.
    const size_t words = 4 * TupleHasher::kTableWords;
    const std::unordered_set<uint64_t> distinct(
        fam.tableWords(), fam.tableWords() + words);
    EXPECT_EQ(distinct.size(), words);
    Rng rng(6);
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned j = i + 1; j < 4; ++j) {
            int agree = 0;
            const int n = 10000;
            Rng local(100 + i * 7 + j);
            for (int k = 0; k < n; ++k) {
                const Tuple t{local.next(), local.next()};
                if (fam.function(i).index(t) == fam.function(j).index(t))
                    ++agree;
            }
            EXPECT_NEAR(static_cast<double>(agree) / n, 1.0 / 512,
                        0.003)
                << "members " << i << "," << j;
        }
    }
}

TEST(TupleHasher, IndexHotMatchesIndex)
{
    // The inlined batched-path pipeline must agree with the reference
    // out-of-line index() for every tuple.
    TupleHasher h(9, 2048);
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const Tuple t{rng.next(), rng.next()};
        ASSERT_EQ(h.indexHot(t), h.index(t));
    }
    EXPECT_EQ(h.indexHot({0, 0}), h.index({0, 0}));
    EXPECT_EQ(h.indexHot({~0ULL, ~0ULL}), h.index({~0ULL, ~0ULL}));
}

TEST(TupleHasherFamily, FamilyIsDeterministicPerSeed)
{
    TupleHasherFamily a(42, 3, 256), b(42, 3, 256);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const Tuple t{rng.next(), rng.next()};
        for (unsigned f = 0; f < 3; ++f)
            EXPECT_EQ(a.function(f).index(t), b.function(f).index(t));
    }
}

TEST(TupleHasherDeathTest, RejectsNonPowerOfTwo)
{
    EXPECT_EXIT(TupleHasher(1, 1000), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(TupleHasher(1, 1), ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace mhp
