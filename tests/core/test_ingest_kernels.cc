/**
 * @file
 * Bit-identity of every compiled-in SIMD ingest kernel tier against
 * the scalar reference (core/ingest_kernels_ref.h) — the contract
 * that makes the ISA tier a pure throughput knob (docs/PERF.md).
 * (Hash indexes come from the one portable ContributionTable kernel;
 * its exhaustive exactness tests are in test_hash_function.cc, and the
 * per-tier hash tests here check it feeding each tier's bump kernels.)
 *
 * Two layers:
 *  - kernel level: each entry point of each available tier is run
 *    against kernel_ref on randomized inputs, including ragged
 *    lengths, structure-of-arrays addends, conservative-update ties,
 *    and saturation edge cases (tiny widths and the >= 2^62 widths
 *    the vector compare tricks must refuse); the per-event bump step
 *    is driven as a one-event block run;
 *  - profiler level: full interval snapshots must be identical under
 *    every tier pin, for single-hash, multi-hash, and sampler
 *    architectures.
 *
 * The ctest MHP_FORCE_ISA matrix re-runs this file (and the
 * reference-model suites) under each forced tier on top.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/accumulator_table.h"
#include "core/factory.h"
#include "core/hash_function.h"
#include "core/ingest_kernels.h"
#include "core/ingest_kernels_ref.h"
#include "core/profiler.h"
#include "core/stratified_sampler.h"
#include "support/cpu.h"
#include "support/rng.h"
#include "workload/benchmarks.h"

namespace mhp {
namespace {

/** Every tier with kernels compiled in and runnable on this CPU. */
std::vector<IsaTier>
availableTiers()
{
    std::vector<IsaTier> tiers;
    for (const IsaTier tier : {IsaTier::Scalar, IsaTier::Sse42,
                               IsaTier::Avx2, IsaTier::Avx512}) {
        if (ingestKernelsFor(tier) != nullptr)
            tiers.push_back(tier);
    }
    return tiers;
}

/** Random tuples with adversarial byte patterns mixed in. */
std::vector<Tuple>
randomTuples(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tuple> tuples(n);
    for (size_t i = 0; i < n; ++i) {
        switch (rng.nextBelow(8)) {
          case 0:
            tuples[i] = {0, 0};
            break;
          case 1:
            tuples[i] = {~0ULL, ~0ULL};
            break;
          case 2:
            // High-bit-heavy values stress the signed gather/compare
            // paths of the x86 tiers.
            tuples[i] = {rng.next() | (1ULL << 63),
                         rng.next() | (1ULL << 63)};
            break;
          default:
            tuples[i] = {rng.next(), rng.next()};
            break;
        }
    }
    return tuples;
}

class IngestKernelTiers : public ::testing::TestWithParam<IsaTier>
{
  protected:
    const IngestKernels &
    kernels() const
    {
        return *ingestKernelsFor(GetParam());
    }
};

TEST_P(IngestKernelTiers, TableReportsItsTier)
{
    EXPECT_EQ(kernels().tier, GetParam());
}

/**
 * The hash-then-bump path of a hash profiler under one tier: the
 * tier's bump-run kernel over indexes from the portable hash kernel
 * (`got`) must leave the same counter bank as kernel_ref's bump over
 * kernel_ref-hashed indexes (`want`). The threshold is never reached,
 * so the whole run of m events is applied.
 */
void
expectHashedBumpRunMatches(const IngestKernels &kern,
                           const std::vector<uint32_t> &got,
                           const std::vector<uint32_t> &want, unsigned n,
                           size_t m, size_t bankWords, bool conservative)
{
    const uint64_t saturation = 255;
    std::vector<uint64_t> bankGot(bankWords, 0), bankWant(bankWords, 0);
    uint64_t stopMin = 0;
    const size_t stop =
        conservative
            ? kern.bumpMinConservativeBlock(bankGot.data(), got.data(), n, 0,
                                            m, saturation, ~uint64_t{0},
                                            &stopMin)
            : kern.bumpMinBlock(bankGot.data(), got.data(), n, 0, m,
                                saturation, ~uint64_t{0}, &stopMin);
    EXPECT_EQ(stop, m);
    for (size_t j = 0; j < m; ++j) {
        if (conservative) {
            kernel_ref::bumpMinConservative(bankWant.data(),
                                            want.data() + j * n, n,
                                            saturation);
        } else {
            kernel_ref::bumpMin(bankWant.data(), want.data() + j * n, n,
                                saturation);
        }
    }
    EXPECT_EQ(bankGot, bankWant) << "n=" << n << " m=" << m;
}

// The four hash tests below keep their per-tier form: the hash kernel
// is the one portable ContributionTable kernel under every tier, and
// each tier's bump kernels consume its indexes.

TEST_P(IngestKernelTiers, HashBlockMatchesReference)
{
    TupleHasher hasher(0x1234, 2048);
    const unsigned bits = hasher.indexBits();
    const uint64_t *const tables = hasher.tableWords();

    // Ragged lengths straddle every unrolled tail.
    for (const size_t m : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{4}, size_t{5}, size_t{7}, size_t{8},
                           size_t{63}, size_t{256}}) {
        const std::vector<Tuple> tuples = randomTuples(m, 99 + m);
        std::vector<uint32_t> got(m + 1, 0xdeadbeef);
        std::vector<uint32_t> want(m + 1, 0xdeadbeef);
        hasher.contributions().indexBlock(tuples.data(), m, got.data(), 0);
        for (size_t j = 0; j < m; ++j) {
            want[j] = static_cast<uint32_t>(
                kernel_ref::index(tables, bits, tuples[j]));
            EXPECT_EQ(got[j], want[j]) << "m=" << m << " j=" << j;
            EXPECT_EQ(got[j], hasher.index(tuples[j]));
        }
        EXPECT_EQ(got[m], 0xdeadbeefu); // no overrun
        expectHashedBumpRunMatches(kernels(), got, want, 1, m,
                                   hasher.tableSize(), false);
    }
}

TEST_P(IngestKernelTiers, HashBlockMatchesAcrossFoldWidths)
{
    // xor-fold widths that do and do not divide 64, including ones
    // where the last fold chunk is partial.
    for (const uint64_t tableSize :
         {uint64_t{2}, uint64_t{8}, uint64_t{128}, uint64_t{1} << 13,
          uint64_t{1} << 20}) {
        TupleHasher hasher(tableSize * 31 + 5, tableSize);
        const unsigned bits = hasher.indexBits();
        const uint64_t *const tables = hasher.tableWords();
        const size_t m = 37;
        const std::vector<Tuple> tuples = randomTuples(m, tableSize);
        std::vector<uint32_t> got(m), want(m);
        hasher.contributions().indexBlock(tuples.data(), m, got.data(), 0);
        for (size_t j = 0; j < m; ++j) {
            want[j] = static_cast<uint32_t>(
                kernel_ref::index(tables, bits, tuples[j]));
            EXPECT_EQ(got[j], want[j])
                << "tableSize=" << tableSize << " j=" << j;
        }
        expectHashedBumpRunMatches(kernels(), got, want, 1, m, tableSize,
                                   true);
    }
}

TEST_P(IngestKernelTiers, HashBlockMultiMatchesReference)
{
    // The family's packed kernel must equal kernel_ref::index per
    // member, pre-offset into the counter bank, for every family
    // width, ragged length, and tail.
    for (const unsigned n : {1u, 2u, 3u, 4u, 5u, 8u}) {
        TupleHasherFamily family(0xfeed + n, n, 512);
        const unsigned bits = family.indexBits();
        const uint32_t addendStride = 512;
        for (const size_t m :
             {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
              size_t{17}, size_t{256}}) {
            const std::vector<Tuple> tuples = randomTuples(m, m * n + 3);
            std::vector<uint32_t> got(m * n + 1, 0xdeadbeef);
            std::vector<uint32_t> want(m * n);
            family.contributions().indexBlock(tuples.data(), m, got.data(),
                                              addendStride);
            for (size_t j = 0; j < m; ++j) {
                for (unsigned i = 0; i < n; ++i) {
                    want[j * n + i] =
                        static_cast<uint32_t>(kernel_ref::index(
                            family.function(i).tableWords(), bits,
                            tuples[j])) +
                        i * addendStride;
                    EXPECT_EQ(got[j * n + i], want[j * n + i])
                        << "n=" << n << " m=" << m << " j=" << j
                        << " i=" << i;
                }
            }
            EXPECT_EQ(got[m * n], 0xdeadbeefu); // no overrun
            for (const bool conservative : {false, true}) {
                expectHashedBumpRunMatches(kernels(), got, want, n, m,
                                           size_t{n} * addendStride,
                                           conservative);
            }
        }
    }
}

TEST_P(IngestKernelTiers, SignatureBlockMatchesReference)
{
    // The stratified sampler's unfolded table; its signatures feed no
    // tier kernel, so this checks the one signature kernel itself.
    TupleHasher hasher(0xfeed, 4096);
    const uint64_t *const tables = hasher.tableWords();
    const ContributionTable sig(tables, 1, 64);
    for (const size_t m : {size_t{0}, size_t{1}, size_t{3}, size_t{5},
                           size_t{64}, size_t{255}}) {
        const std::vector<Tuple> tuples = randomTuples(m, m * 3 + 1);
        std::vector<uint64_t> got(m);
        sig.signatureBlock(tuples.data(), m, got.data());
        for (size_t j = 0; j < m; ++j) {
            EXPECT_EQ(got[j], kernel_ref::signature(tables, tuples[j]))
                << "m=" << m << " j=" << j;
            EXPECT_EQ(got[j], hasher.signature(tuples[j]));
        }
    }
}

TEST_P(IngestKernelTiers, TupleHashBlockMatchesReference)
{
    for (const size_t m : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{6}, size_t{129}}) {
        const std::vector<Tuple> tuples = randomTuples(m, m + 11);
        std::vector<uint64_t> got(m);
        kernels().tupleHashBlock(tuples.data(), m, got.data());
        for (size_t j = 0; j < m; ++j) {
            EXPECT_EQ(got[j], TupleHash{}(tuples[j]))
                << "m=" << m << " j=" << j;
        }
    }
}

/**
 * Random structure-of-arrays counter state: n disjoint per-table
 * segments (the profiler layout contract) with values clustered
 * around the saturation point so saturated, tied, and free-running
 * lanes all occur.
 */
struct BankFixture
{
    std::vector<uint64_t> bank;
    std::vector<uint32_t> idx;

    BankFixture(unsigned n, uint64_t saturation, uint64_t seed)
    {
        const uint32_t entries = 64;
        Rng rng(seed);
        bank.resize(static_cast<size_t>(n) * entries);
        for (auto &c : bank) {
            const uint64_t span = saturation < 6 ? saturation + 1 : 6;
            if (rng.nextBool(0.3))
                c = saturation - rng.nextBelow(span);
            else if (saturation == ~uint64_t{0})
                c = rng.next();
            else
                c = rng.nextBelow(saturation + 1);
        }
        idx.resize(n);
        for (unsigned i = 0; i < n; ++i) {
            idx[i] = i * entries +
                     static_cast<uint32_t>(rng.nextBelow(entries));
        }
    }
};

/**
 * The tier's per-event bump step, run as a one-event block: threshold
 * 0 stops the run at that event and reports its post-update minimum.
 */
uint64_t
bumpOneEvent(const IngestKernels &kern, bool conservative, uint64_t *soa,
             const uint32_t *idx, unsigned n, uint64_t saturation)
{
    uint64_t stopMin = ~uint64_t{0};
    const size_t j =
        conservative
            ? kern.bumpMinConservativeBlock(soa, idx, n, 0, 1,
                                            saturation, 0, &stopMin)
            : kern.bumpMinBlock(soa, idx, n, 0, 1, saturation, 0,
                                &stopMin);
    EXPECT_EQ(j, 0u);
    return stopMin;
}

TEST_P(IngestKernelTiers, BumpMinMatchesReference)
{
    for (const uint64_t saturation :
         {uint64_t{1}, uint64_t{7}, (uint64_t{1} << 24) - 1,
          (uint64_t{1} << 63), ~uint64_t{0}}) {
        for (unsigned n = 1; n <= 9; ++n) {
            for (uint64_t seed = 0; seed < 8; ++seed) {
                BankFixture got(n, saturation, seed * 131 + n);
                BankFixture want = got;
                const uint64_t g =
                    bumpOneEvent(kernels(), false, got.bank.data(),
                                 got.idx.data(), n, saturation);
                const uint64_t w = kernel_ref::bumpMin(
                    want.bank.data(), want.idx.data(), n, saturation);
                EXPECT_EQ(g, w) << "n=" << n << " sat=" << saturation;
                EXPECT_EQ(got.bank, want.bank)
                    << "n=" << n << " sat=" << saturation;
            }
        }
    }
}

TEST_P(IngestKernelTiers, BumpMinConservativeMatchesReference)
{
    for (const uint64_t saturation :
         {uint64_t{1}, uint64_t{7}, (uint64_t{1} << 24) - 1,
          (uint64_t{1} << 63), ~uint64_t{0}}) {
        for (unsigned n = 1; n <= 9; ++n) {
            for (uint64_t seed = 0; seed < 8; ++seed) {
                BankFixture got(n, saturation, seed * 977 + n);
                BankFixture want = got;
                const uint64_t g =
                    bumpOneEvent(kernels(), true, got.bank.data(),
                                 got.idx.data(), n, saturation);
                const uint64_t w = kernel_ref::bumpMinConservative(
                    want.bank.data(), want.idx.data(), n, saturation);
                EXPECT_EQ(g, w) << "n=" << n << " sat=" << saturation;
                EXPECT_EQ(got.bank, want.bank)
                    << "n=" << n << " sat=" << saturation;
            }
        }
    }
}

TEST_P(IngestKernelTiers, BumpMinConservativeAdvancesAllTies)
{
    // Every counter equal and unsaturated: all must advance by one.
    const unsigned n = 4;
    std::vector<uint64_t> bank(n * 8, 5);
    std::vector<uint32_t> idx = {0, 8, 16, 24};
    const uint64_t newMin = bumpOneEvent(kernels(), true, bank.data(),
                                         idx.data(), n, 255);
    EXPECT_EQ(newMin, 6u);
    for (const uint32_t i : idx)
        EXPECT_EQ(bank[i], 6u);
}

/**
 * A hand-built accum_layout probe index: the test controls every tag,
 * key, and group, so chains that cross group boundaries, collide on
 * tags, or wade through tombstones can be staged exactly.
 */
struct SyntheticIndex
{
    std::vector<uint8_t> tags;
    std::vector<Tuple> keys;
    std::vector<uint32_t> slotOf;
    uint64_t groupMask;

    explicit SyntheticIndex(size_t numGroups)
        : tags(numGroups * accum_layout::kGroupLanes,
               accum_layout::kEmptyTag),
          // One readable pad lane past the end, per the AccumProbeView
          // contract for branch-free probe kernels.
          keys(tags.size() + 1), slotOf(tags.size() + 1, 0),
          groupMask(numGroups - 1)
    {
    }

    AccumProbeView
    view() const
    {
        return {tags.data(), keys.data(), slotOf.data(), groupMask};
    }

    /** A hash landing on group g with the given 7-bit tag payload. */
    static uint64_t
    hashFor(size_t g, unsigned tagBits)
    {
        return static_cast<uint64_t>(g) |
               (static_cast<uint64_t>(tagBits & 0x7f) << 57);
    }

    void
    place(size_t lane, uint64_t hash, const Tuple &key, uint32_t slot)
    {
        tags[lane] = accum_layout::fullTag(hash);
        keys[lane] = key;
        slotOf[lane] = slot;
    }
};

TEST_P(IngestKernelTiers, AccumProbeBlockMatchesTable)
{
    // A real table under churn: the kernel's block probe must agree
    // with AccumulatorTable::probeSlot event for event, and the absent
    // list must be the compacted stream-order positions.
    AccumulatorTable table(64, 3, true);
    Rng rng(0x51ab);
    std::vector<Tuple> population;
    for (int i = 0; i < 48; ++i) {
        population.push_back({rng.next(), rng.next()});
        table.insert(population.back(), 1);
    }
    for (const size_t m : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                           size_t{256}}) {
        std::vector<Tuple> block(m);
        for (auto &t : block) {
            if (rng.nextBool(0.5))
                t = population[rng.nextBelow(population.size())];
            else
                t = {rng.next(), rng.next()};
        }
        std::vector<uint64_t> hashes(m);
        for (size_t k = 0; k < m; ++k)
            hashes[k] = TupleHash{}(block[k]);
        std::vector<uint32_t> slots(m + 1, 0x7777u);
        std::vector<uint32_t> absent(m + 1, 0x7777u);
        std::vector<Tuple> absentTuples(m + 1, Tuple{~0ULL, ~0ULL});
        std::vector<uint32_t> hits(m + 1, 0x7777u);
        const size_t numAbsent = kernels().accumProbeBlock(
            table.probeView(), block.data(), hashes.data(), m,
            slots.data(), absent.data(), absentTuples.data(),
            hits.data());
        size_t wantAbsent = 0, wantHits = 0;
        for (size_t k = 0; k < m; ++k) {
            EXPECT_EQ(slots[k], table.probeSlot(block[k])) << "k=" << k;
            if (slots[k] == AccumulatorTable::kNoSlot) {
                ASSERT_LT(wantAbsent, numAbsent);
                EXPECT_EQ(absent[wantAbsent], k);
                EXPECT_EQ(absentTuples[wantAbsent], block[k]);
                ++wantAbsent;
            } else {
                ASSERT_LT(wantHits, m - numAbsent);
                EXPECT_EQ(hits[wantHits], k);
                ++wantHits;
            }
        }
        EXPECT_EQ(numAbsent, wantAbsent);
        EXPECT_EQ(m - numAbsent, wantHits);
        EXPECT_EQ(slots[m], 0x7777u);
    }
}

TEST_P(IngestKernelTiers, AccumProbeBlockCrossesGroupBoundaries)
{
    using namespace accum_layout;
    // Group 2 is packed with same-tag impostors; the real keys sit in
    // the last lane of group 2 and spill into group 3 and (wrapping)
    // group 0, with the chain ended by an empty lane in group 0.
    SyntheticIndex ix(4);
    const uint64_t h = SyntheticIndex::hashFor(2, 0x15);
    for (size_t l = 0; l < kGroupLanes; ++l)
        ix.place(2 * kGroupLanes + l, h, {1000 + l, 0}, 99);
    const Tuple inLast{1000 + kGroupLanes - 1, 0};
    ix.place(2 * kGroupLanes + kGroupLanes - 1, h, inLast, 7);
    const Tuple spilled{5, 5};
    ix.place(3 * kGroupLanes + 0, h, spilled, 8);
    for (size_t l = 1; l < kGroupLanes; ++l)
        ix.place(3 * kGroupLanes + l, h, {2000 + l, 0}, 99);
    const Tuple wrapped{6, 6};
    ix.place(0 * kGroupLanes + 0, h, wrapped, 9);
    // Lane 1 of group 0 stays empty: probes for an absent key with
    // this tag must stop here, after visiting three groups.
    const Tuple absent{7, 7};

    const Tuple block[] = {inLast, spilled, wrapped, absent};
    const uint64_t hashes[] = {h, h, h, h};
    uint32_t slots[4];
    uint32_t absentPos[4];
    Tuple absentTuples[4];
    uint32_t hitPos[4];
    const size_t numAbsent = kernels().accumProbeBlock(
        ix.view(), block, hashes, 4, slots, absentPos, absentTuples,
        hitPos);
    EXPECT_EQ(slots[0], 7u);
    EXPECT_EQ(slots[1], 8u);
    EXPECT_EQ(slots[2], 9u);
    EXPECT_EQ(slots[3], UINT32_MAX);
    ASSERT_EQ(numAbsent, 1u);
    EXPECT_EQ(absentPos[0], 3u);
}

TEST_P(IngestKernelTiers, AccumProbeBlockSkipsTombstones)
{
    using namespace accum_layout;
    // A tombstone-ridden home group: tombstones must neither match a
    // probe tag nor stop the chain, while an empty lane ends it.
    SyntheticIndex ix(2);
    const uint64_t h = SyntheticIndex::hashFor(1, 0x01);
    // Tag payload 0x01 makes fullTag 0x81 — distinct from the
    // tombstone byte 0x01, which the probe must never treat as a hit.
    ASSERT_EQ(fullTag(h), 0x81);
    for (size_t l = 0; l < kGroupLanes; ++l)
        ix.tags[1 * kGroupLanes + l] = kTombstoneTag;
    const Tuple buried{42, 42};
    ix.place(1 * kGroupLanes + 9, h, buried, 3);
    // Full-of-tombstones group 1 must chain into group 0; the key
    // there is found even though every home lane is dead.
    const Tuple next{43, 43};
    ix.place(0 * kGroupLanes + 2, h, next, 4);
    ix.tags[0 * kGroupLanes + 3] = kEmptyTag;

    const Tuple block[] = {buried, next, {44, 44}};
    const uint64_t hashes[] = {h, h, h};
    uint32_t slots[3];
    uint32_t absentPos[3];
    Tuple absentTuples[3];
    uint32_t hitPos[3];
    const size_t numAbsent = kernels().accumProbeBlock(
        ix.view(), block, hashes, 3, slots, absentPos, absentTuples,
        hitPos);
    EXPECT_EQ(slots[0], 3u);
    EXPECT_EQ(slots[1], 4u);
    EXPECT_EQ(slots[2], UINT32_MAX);
    EXPECT_EQ(numAbsent, 1u);
}

TEST_P(IngestKernelTiers, BumpMinBlockMatchesReference)
{
    const uint64_t saturation = (uint64_t{1} << 24) - 1;
    for (const unsigned n : {1u, 4u, 8u}) {
        for (uint64_t seed = 0; seed < 6; ++seed) {
            // Dense index rows, one per absent event (the caller
            // compacts before hashing, so row j is event j's indexes).
            const size_t numAbsent = 24;
            Rng rng(seed * 17 + n);
            BankFixture got(n, saturation, seed * 31 + n);
            std::vector<uint32_t> idx(numAbsent * n);
            for (size_t j = 0; j < numAbsent; ++j)
                for (unsigned i = 0; i < n; ++i)
                    idx[j * n + i] = i * 64 +
                                     static_cast<uint32_t>(
                                         rng.nextBelow(64));
            BankFixture want = got;
            // A threshold low enough that mid-block stops happen.
            const uint64_t threshold = saturation - 3;
            for (const size_t start : {size_t{0}, numAbsent / 2}) {
                uint64_t gotStop = 0, wantStop = 1;
                const size_t g = kernels().bumpMinBlock(
                    got.bank.data(), idx.data(), n, start, numAbsent,
                    saturation, threshold, &gotStop);
                const size_t w = kernel_ref::bumpMinBlock(
                    want.bank.data(), idx.data(), n, start, numAbsent,
                    saturation, threshold, &wantStop);
                EXPECT_EQ(g, w) << "n=" << n << " seed=" << seed;
                if (w < numAbsent) {
                    EXPECT_EQ(gotStop, wantStop);
                }
                EXPECT_EQ(got.bank, want.bank)
                    << "n=" << n << " seed=" << seed;
            }
        }
    }
}

TEST_P(IngestKernelTiers, BumpMinConservativeBlockMatchesReference)
{
    const uint64_t saturation = 40;
    for (const unsigned n : {1u, 4u, 8u}) {
        for (uint64_t seed = 0; seed < 6; ++seed) {
            const size_t numAbsent = 24;
            Rng rng(seed * 23 + n);
            BankFixture got(n, saturation, seed * 53 + n);
            std::vector<uint32_t> idx(numAbsent * n);
            for (size_t j = 0; j < numAbsent; ++j)
                for (unsigned i = 0; i < n; ++i)
                    idx[j * n + i] = i * 64 +
                                     static_cast<uint32_t>(
                                         rng.nextBelow(64));
            BankFixture want = got;
            const uint64_t threshold = saturation - 2;
            uint64_t gotStop = 0, wantStop = 1;
            const size_t g = kernels().bumpMinConservativeBlock(
                got.bank.data(), idx.data(), n, 0, numAbsent,
                saturation, threshold, &gotStop);
            const size_t w = kernel_ref::bumpMinConservativeBlock(
                want.bank.data(), idx.data(), n, 0, numAbsent,
                saturation, threshold, &wantStop);
            EXPECT_EQ(g, w) << "n=" << n << " seed=" << seed;
            if (w < numAbsent) {
                EXPECT_EQ(gotStop, wantStop);
            }
            EXPECT_EQ(got.bank, want.bank)
                << "n=" << n << " seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AvailableTiers, IngestKernelTiers,
    ::testing::ValuesIn(availableTiers()),
    [](const ::testing::TestParamInfo<IsaTier> &info) {
        return isaTierName(info.param);
    });

/**
 * Pin a tier, run a full profiling workload, and return the interval
 * snapshots. Profilers capture their kernels at construction, so the
 * pin wraps the whole run.
 */
std::vector<IntervalSnapshot>
runPinned(IsaTier tier, const std::string &arch)
{
    setIsaTierForTesting(tier);
    std::unique_ptr<HardwareProfiler> profiler;
    if (arch == "sampler-tagged" || arch == "sampler") {
        StratifiedSamplerConfig sc;
        sc.entries = 256;
        sc.samplingThreshold = 4;
        sc.tagged = (arch == "sampler-tagged");
        profiler = std::make_unique<StratifiedSampler>(sc, 20);
    } else {
        ProfilerConfig c;
        c.intervalLength = 2000;
        c.candidateThreshold = 0.01;
        c.totalHashEntries = 256;
        c.numHashTables = arch[0] == 's' ? 1 : 4;
        c.conservativeUpdate = arch.find("C1") != std::string::npos;
        c.resetOnPromote = arch.find("R1") != std::string::npos;
        c.retaining = arch.find("P1") != std::string::npos;
        profiler = makeProfiler(c);
    }
    setIsaTierForTesting(std::nullopt);

    auto source = makeValueWorkload("gcc", 3);
    std::vector<Tuple> events;
    events.reserve(8000);
    while (events.size() < 8000 && !source->done())
        events.push_back(source->next());

    std::vector<IntervalSnapshot> snapshots;
    for (size_t base = 0; base < events.size(); base += 2000) {
        const size_t m = std::min<size_t>(2000, events.size() - base);
        // Odd batch size: exercises ragged kernel tails every block.
        for (size_t i = 0; i < m; i += 613)
            profiler->onEvents(events.data() + base + i,
                               std::min<size_t>(613, m - i));
        snapshots.push_back(profiler->endInterval());
    }
    return snapshots;
}

TEST(IngestKernelDispatch, ProfilerOutputIdenticalAcrossTiers)
{
    for (const char *arch :
         {"sh-R1P1", "mh4-C1R1P1", "mh4-C0R0P0", "sampler",
          "sampler-tagged"}) {
        const auto reference = runPinned(IsaTier::Scalar, arch);
        for (const IsaTier tier : availableTiers()) {
            const auto got = runPinned(tier, arch);
            ASSERT_EQ(got.size(), reference.size());
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i], reference[i])
                    << arch << " tier=" << isaTierName(tier)
                    << " interval=" << i;
            }
        }
    }
}

TEST(IngestKernelDispatch, ActiveTableMatchesActiveTier)
{
    // The process-default dispatch must resolve to a compiled-in,
    // supported tier (possibly below activeIsaTier() if that tier's
    // kernels were compiled out).
    const IngestKernels &kern = ingestKernels();
    EXPECT_TRUE(isaTierSupported(kern.tier));
    EXPECT_NE(ingestKernelsFor(kern.tier), nullptr);
}

TEST(IngestKernelDispatch, ScalarTierAlwaysPresent)
{
    ASSERT_NE(ingestKernelsFor(IsaTier::Scalar), nullptr);
    EXPECT_EQ(ingestKernelsFor(IsaTier::Scalar)->tier, IsaTier::Scalar);
}

TEST(IngestKernelDispatch, UnsupportedTierResolvesToNull)
{
    for (const IsaTier tier :
         {IsaTier::Sse42, IsaTier::Avx2, IsaTier::Avx512}) {
        if (!isaTierSupported(tier)) {
            EXPECT_EQ(ingestKernelsFor(tier), nullptr);
        }
    }
}

} // namespace
} // namespace mhp
