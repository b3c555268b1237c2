#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>
#include <vector>

#include "core/hash_function.h"
#include "core/ingest_kernels_ref.h"
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
    // The header-inline pipeline (the profilers' one-tuple repair
    // path) must agree with the out-of-line index() for every tuple.
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

/** (members, entries per member) of a hasher family under test. */
struct FamilyShape
{
    unsigned members;
    uint64_t entries;
};

/**
 * Every (n, index width) a paper config or ablation builds — BSH and
 * mh2/mh4/mh8/mh16 at 2048 total entries, the 256-entry ablation
 * hasher — plus widths that make the packing edge cases: one-bit
 * fields (64 per word), fields that do not divide 64, two or more
 * words per entry, and indexes wider than the 32-bit output.
 */
const FamilyShape kShapes[] = {
    {1, 2048}, {2, 1024}, {4, 512}, {8, 256}, {16, 128}, {1, 256},
    {64, 2},   {3, 8},    {5, 1u << 13}, {4, 1u << 20}, {8, 1u << 20},
    {16, 1u << 16}, {2, 1ULL << 40},
};

/** kernel_ref::indexMulti of every tuple, row-major like indexBlock. */
std::vector<uint32_t>
referenceIndexes(const TupleHasherFamily &fam, const std::vector<Tuple> &ts,
                 uint32_t addendStride)
{
    const unsigned n = fam.size();
    std::vector<uint32_t> out(ts.size() * n);
    for (size_t j = 0; j < ts.size(); ++j) {
        kernel_ref::indexMulti(fam.tableWords(), n, fam.indexBits(), ts[j],
                               addendStride, out.data() + j * n);
    }
    return out;
}

/**
 * One tuple per (key-byte position, byte value) on top of `base`: byte
 * p of the 16-byte key (pc bytes 0-7, value bytes 8-15) set to v.
 */
std::vector<Tuple>
everyBytePosition(const Tuple &base)
{
    std::vector<Tuple> out;
    for (unsigned p = 0; p < ContributionTable::kPositions; ++p) {
        for (uint64_t v = 0; v < 256; ++v) {
            Tuple t = base;
            uint64_t &word = p < 8 ? t.first : t.second;
            const unsigned shift = 8 * (p % 8);
            word = (word & ~(uint64_t{0xff} << shift)) | (v << shift);
            out.push_back(t);
        }
    }
    return out;
}

/** Random tuples plus structured ones: zeros, ones, sequential pcs. */
std::vector<Tuple>
randomAndStructured(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tuple> out = {{0, 0}, {~0ULL, ~0ULL}, {~0ULL, 0},
                              {0, ~0ULL}};
    for (uint64_t i = 0; i < 64; ++i)
        out.push_back({0x400000 + 4 * i, i % 7});
    for (uint64_t i = 0; i < 64; ++i)
        out.push_back({0x120000000ULL, uint64_t{1} << i});
    while (out.size() < n)
        out.push_back({rng.next(), rng.next()});
    return out;
}

TEST(ContributionTable, LayoutPacksMembersIntoFields)
{
    // mh4 and mh8 at 2048 entries fit one word per entry; mh16's
    // 7-bit fields take two; each word is 16 x 256 x 8 bytes.
    const TupleHasherFamily mh4(1, 4, 512), mh8(1, 8, 256),
        mh16(1, 16, 128), wide(1, 8, uint64_t{1} << 20);
    EXPECT_EQ(mh4.contributions().fieldsPerWord(), 7u);
    EXPECT_EQ(mh4.contributions().wordsPerEntry(), 1u);
    EXPECT_EQ(mh8.contributions().fieldsPerWord(), 8u);
    EXPECT_EQ(mh8.contributions().wordsPerEntry(), 1u);
    EXPECT_EQ(mh16.contributions().fieldsPerWord(), 9u);
    EXPECT_EQ(mh16.contributions().wordsPerEntry(), 2u);
    EXPECT_EQ(wide.contributions().fieldsPerWord(), 3u);
    EXPECT_EQ(wide.contributions().wordsPerEntry(), 3u);
    EXPECT_EQ(mh16.contributions().members(), 16u);
    EXPECT_EQ(mh16.contributions().fieldBits(), 7u);

    // A single hasher owns a one-member table; the family's views own
    // none (the family's table hashes them).
    const TupleHasher bsh(1, 2048);
    EXPECT_EQ(bsh.contributions().members(), 1u);
    EXPECT_EQ(bsh.contributions().fieldBits(), 11u);
    EXPECT_EQ(mh4.function(0).contributions().members(), 0u);
}

TEST(ContributionTable, EveryBytePositionMatchesReference)
{
    // Each (position, value) entry is exercised on a zero base and on
    // a random one, for every shape: a wrong rotate, flip position or
    // field shift in any one entry shows up here.
    Rng rng(0xb17e);
    for (const FamilyShape &shape : kShapes) {
        const TupleHasherFamily fam(shape.members * 97 + 3, shape.members,
                                    shape.entries);
        const uint32_t stride = static_cast<uint32_t>(shape.entries);
        for (const Tuple &base : {Tuple{0, 0}, Tuple{rng.next(), rng.next()}}) {
            const std::vector<Tuple> ts = everyBytePosition(base);
            std::vector<uint32_t> got(ts.size() * shape.members);
            fam.contributions().indexBlock(ts.data(), ts.size(), got.data(),
                                           stride);
            const std::vector<uint32_t> want =
                referenceIndexes(fam, ts, stride);
            for (size_t k = 0; k < got.size(); ++k) {
                const size_t j = k / shape.members;
                ASSERT_EQ(got[k], want[k])
                    << "n=" << shape.members << " entries=" << shape.entries
                    << " position=" << j / 256 << " byte=" << j % 256
                    << " member=" << k % shape.members;
            }
        }
    }
}

TEST(ContributionTable, RandomAndStructuredTuplesMatchReference)
{
    for (const FamilyShape &shape : kShapes) {
        const TupleHasherFamily fam(shape.entries + shape.members,
                                    shape.members, shape.entries);
        const unsigned n = shape.members;
        const std::vector<Tuple> ts = randomAndStructured(
            1000, shape.members * 7 + shape.entries);
        const std::vector<uint32_t> want = referenceIndexes(fam, ts, 512);
        // Ragged block lengths, each followed by an untouched sentinel.
        for (const size_t m : {size_t{0}, size_t{1}, size_t{3},
                               size_t{255}, size_t{256}, ts.size()}) {
            std::vector<uint32_t> got(m * n + 1, 0xdeadbeef);
            fam.contributions().indexBlock(ts.data(), m, got.data(), 512);
            for (size_t k = 0; k < m * n; ++k) {
                ASSERT_EQ(got[k], want[k])
                    << "n=" << n << " entries=" << shape.entries
                    << " m=" << m << " tuple=" << k / n;
            }
            EXPECT_EQ(got[m * n], 0xdeadbeefu) << "overrun, m=" << m;
        }
        // The family's views still index through the reference path.
        for (size_t j = 0; j < 50; ++j) {
            for (unsigned i = 0; i < n; ++i) {
                EXPECT_EQ(static_cast<uint32_t>(fam.function(i).index(ts[j])) +
                              i * 512,
                          want[j * n + i]);
            }
        }
    }
}

TEST(ContributionTable, SingleHasherMatchesIndex)
{
    for (const uint64_t size : {uint64_t{2}, uint64_t{256}, uint64_t{2048},
                                uint64_t{1} << 13, uint64_t{1} << 20}) {
        const TupleHasher h(size * 13 + 1, size);
        std::vector<Tuple> ts = everyBytePosition({0x400123, 0x55});
        const std::vector<Tuple> more = randomAndStructured(500, size);
        ts.insert(ts.end(), more.begin(), more.end());
        std::vector<uint32_t> got(ts.size());
        h.contributions().indexBlock(ts.data(), ts.size(), got.data(), 0);
        for (size_t j = 0; j < ts.size(); ++j) {
            ASSERT_EQ(got[j], static_cast<uint32_t>(h.index(ts[j])))
                << "size=" << size << " j=" << j;
        }
    }
}

TEST(ContributionTable, UnfoldedSignaturesMatchReference)
{
    // The stratified sampler's table: fieldBits 64, no fold.
    const TupleHasher h(0xfeed, 4096);
    const ContributionTable sig(h.tableWords(), 1, 64);
    EXPECT_EQ(sig.fieldsPerWord(), 1u);
    EXPECT_EQ(sig.wordsPerEntry(), 1u);
    std::vector<Tuple> ts = everyBytePosition({0, 0});
    const std::vector<Tuple> based = everyBytePosition({~0ULL, 0x1234});
    const std::vector<Tuple> more = randomAndStructured(1000, 5);
    ts.insert(ts.end(), based.begin(), based.end());
    ts.insert(ts.end(), more.begin(), more.end());
    std::vector<uint64_t> got(ts.size() + 1, 0x5a5a);
    sig.signatureBlock(ts.data(), ts.size(), got.data());
    for (size_t j = 0; j < ts.size(); ++j) {
        ASSERT_EQ(got[j], kernel_ref::signature(h.tableWords(), ts[j]))
            << "j=" << j;
        ASSERT_EQ(got[j], h.signature(ts[j])) << "j=" << j;
    }
    EXPECT_EQ(got[ts.size()], 0x5a5au);
}

TEST(ContributionTableDeathTest, RefusesInvalidShapes)
{
    const TupleHasher h(1, 256);
    EXPECT_EXIT(ContributionTable(h.tableWords(), 0, 8),
                ::testing::ExitedWithCode(1), "member");
    EXPECT_EXIT(ContributionTable(h.tableWords(), 1, 65),
                ::testing::ExitedWithCode(1), "1 to 64");
    EXPECT_EXIT(ContributionTable(h.tableWords(), 2, 64),
                ::testing::ExitedWithCode(1), "one member");
}

} // namespace
} // namespace mhp
