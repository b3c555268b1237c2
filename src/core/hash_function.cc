#include "core/hash_function.h"

#include <algorithm>
#include <bit>

#include "support/bit_util.h"
#include "support/panic.h"
#include "support/rng.h"

namespace mhp {

namespace {

/**
 * The loop form of kernel_ref::randomize over a raw 256-word table —
 * the reference path behind signature()/index(); the unrolled
 * kernel_ref::randomize used by indexHot() is bit-identical.
 */
uint64_t
randomizeRef(const uint64_t *tb, uint64_t v)
{
    uint64_t r = 0;
    for (unsigned i = 0; i < 8; ++i) {
        const auto byte = static_cast<uint8_t>(v >> (8 * i));
        const uint64_t word = tb[byte];
        // Rotate by the byte position so "0x12 in byte 0" and
        // "0x12 in byte 3" map to different contributions.
        const unsigned rot = (8 * i) & 63u;
        r ^= (word << rot) | (word >> ((64 - rot) & 63u));
    }
    return r;
}

unsigned
checkedBits(uint64_t tableSize)
{
    MHP_REQUIRE(isPowerOfTwo(tableSize),
                "hash table size must be a power of two");
    MHP_REQUIRE(tableSize >= 2, "hash table needs at least two entries");
    return floorLog2(tableSize);
}

/**
 * XOR of one tuple's 16 contribution entries, W words each, into
 * acc[0, W). The pc and value bytes run as two independent chains.
 */
template <unsigned W>
inline void
xorContributions(const uint64_t *tab, const Tuple &t, uint64_t *acc)
{
    uint64_t pc[W] = {};
    uint64_t val[W] = {};
    uint64_t pcBytes = t.first;
    uint64_t valBytes = t.second;
#pragma GCC unroll 8
    for (unsigned k = 0; k < 8; ++k) {
        const uint64_t *p = tab + (k * 256 + (pcBytes & 0xff)) * W;
        const uint64_t *v = tab + ((8 + k) * 256 + (valBytes & 0xff)) * W;
        pcBytes >>= 8;
        valBytes >>= 8;
        for (unsigned w = 0; w < W; ++w) {
            pc[w] ^= p[w];
            val[w] ^= v[w];
        }
    }
    for (unsigned w = 0; w < W; ++w)
        acc[w] = pc[w] ^ val[w];
}

/** Where a table's member fields sit, read once per block. */
struct FieldLayout
{
    unsigned members;
    unsigned bits;
    unsigned perWord;
    uint64_t mask;

    explicit FieldLayout(const ContributionTable &ct)
        : members(ct.members()), bits(ct.fieldBits()),
          perWord(ct.fieldsPerWord()), mask((uint64_t{1} << bits) - 1)
    {
    }
};

/**
 * Shift members [0, n) out of their packed words: member i is the
 * fieldBits-wide field at (i mod fieldsPerWord) * fieldBits of word
 * i / fieldsPerWord, pre-offset by i * addendStride.
 */
inline void
storeFields(const uint64_t *acc, unsigned n, const FieldLayout &fl,
            uint32_t *row, uint32_t addendStride)
{
    unsigned i = 0;
    for (unsigned w = 0; i < n; ++w) {
        uint64_t v = acc[w];
        for (unsigned f = 0; f < fl.perWord && i < n; ++f, ++i) {
            row[i] =
                static_cast<uint32_t>(v & fl.mask) + i * addendStride;
            v >>= fl.bits;
        }
    }
}

/**
 * ContributionTable::indexBlock with W words per entry and, when N is
 * not 0, the member count fixed at compile time (so the field loop
 * unrolls); N = 0 reads it from the table.
 */
template <unsigned W, unsigned N>
void
indexBlockFixed(const ContributionTable &ct, const Tuple *block, size_t m,
                uint32_t *out, uint32_t addendStride)
{
    const uint64_t *const tab = ct.data();
    const FieldLayout fl(ct);
    const unsigned n = N != 0 ? N : fl.members;
    for (size_t j = 0; j < m; ++j) {
        uint64_t acc[W];
        xorContributions<W>(tab, block[j], acc);
        storeFields(acc, n, fl, out + j * n, addendStride);
    }
}

/**
 * indexBlockFixed for any word count (many members or wide indexes),
 * with one accumulator chain per word.
 */
void
indexBlockWide(const ContributionTable &ct, const Tuple *block, size_t m,
               uint32_t *out, uint32_t addendStride)
{
    const uint64_t *const tab = ct.data();
    const FieldLayout fl(ct);
    const unsigned width = ct.wordsPerEntry();
    std::vector<uint64_t> acc(width);
    for (size_t j = 0; j < m; ++j) {
        std::fill(acc.begin(), acc.end(), 0);
        uint64_t pcBytes = block[j].first;
        uint64_t valBytes = block[j].second;
        for (unsigned k = 0; k < 8; ++k) {
            const uint64_t *p = tab + (k * 256 + (pcBytes & 0xff)) * width;
            const uint64_t *v =
                tab + ((8 + k) * 256 + (valBytes & 0xff)) * width;
            pcBytes >>= 8;
            valBytes >>= 8;
            for (unsigned w = 0; w < width; ++w)
                acc[w] ^= p[w] ^ v[w];
        }
        storeFields(acc.data(), fl.members, fl, out + j * fl.members,
                    addendStride);
    }
}

} // namespace

ContributionTable::ContributionTable(const uint64_t *blocks,
                                     unsigned members,
                                     unsigned fieldBits)
    : numMembers(members), bits(fieldBits)
{
    MHP_REQUIRE(members >= 1, "contribution table needs a member");
    MHP_REQUIRE(fieldBits >= 1 && fieldBits <= 64,
                "contribution fields are 1 to 64 bits wide");
    MHP_REQUIRE(fieldBits < 64 || members == 1,
                "unfolded contributions hold one member");
    perWord = 64 / fieldBits;
    width = (members + perWord - 1) / perWord;
    words.assign(size_t{kPositions} * 256 * width, 0);
    for (unsigned i = 0; i < members; ++i) {
        const uint64_t *const block = blocks + i * TupleHasher::kTableWords;
        const unsigned word = i / perWord;
        const unsigned shift = (i % perWord) * fieldBits;
        for (unsigned p = 0; p < kPositions; ++p) {
            const bool pcByte = p < 8;
            const uint64_t *const tb = pcByte ? block : block + 256;
            const int rot = static_cast<int>(8 * (p % 8));
            for (unsigned v = 0; v < 256; ++v) {
                uint64_t c = std::rotl(tb[v], rot);
                if (pcByte)
                    c = byteFlip(c);
                if (fieldBits < 64)
                    c = xorFoldHot(c, fieldBits);
                words[(size_t{p} * 256 + v) * width + word] |= c << shift;
            }
        }
    }
}

void
ContributionTable::indexBlock(const Tuple *block, size_t m, uint32_t *out,
                              uint32_t addendStride) const
{
    MHP_ASSERT(numMembers != 0 && bits < 64,
               "indexBlock needs a folded contribution table");
    // Specialised on the words per entry, and on the member counts of
    // the paper's configs at 2048 entries: BSH, mh2, mh4 and mh8 take
    // one word, mh16 two.
    if (width == 1) {
        switch (numMembers) {
          case 1:
            return indexBlockFixed<1, 1>(*this, block, m, out,
                                         addendStride);
          case 2:
            return indexBlockFixed<1, 2>(*this, block, m, out,
                                         addendStride);
          case 4:
            return indexBlockFixed<1, 4>(*this, block, m, out,
                                         addendStride);
          case 8:
            return indexBlockFixed<1, 8>(*this, block, m, out,
                                         addendStride);
          default:
            return indexBlockFixed<1, 0>(*this, block, m, out,
                                         addendStride);
        }
    }
    if (width == 2 && numMembers == 16)
        return indexBlockFixed<2, 16>(*this, block, m, out, addendStride);
    if (width == 2)
        return indexBlockFixed<2, 0>(*this, block, m, out, addendStride);
    indexBlockWide(*this, block, m, out, addendStride);
}

void
ContributionTable::signatureBlock(const Tuple *block, size_t m,
                                  uint64_t *out) const
{
    MHP_ASSERT(bits == 64, "signatureBlock needs an unfolded table");
    const uint64_t *const tab = words.data();
    for (size_t j = 0; j < m; ++j)
        xorContributions<1>(tab, block[j], out + j);
}

void
TupleHasher::fillTables(uint64_t seed, uint64_t *out)
{
    Rng pc(SplitMix64(seed).next());
    for (size_t i = 0; i < 256; ++i)
        out[i] = pc.next();
    Rng value(SplitMix64(seed ^ 0x76a1ebeefULL).next());
    for (size_t i = 0; i < 256; ++i)
        out[256 + i] = value.next();
}

TupleHasher::TupleHasher(uint64_t seed, uint64_t tableSize)
    : own(kTableWords), size(tableSize), bits(checkedBits(tableSize))
{
    fillTables(seed, own.data());
    words = own.data();
    packed = ContributionTable(words, 1, bits);
}

TupleHasher::TupleHasher(const uint64_t *tables, uint64_t tableSize)
    : words(tables), size(tableSize), bits(checkedBits(tableSize))
{
}

uint64_t
TupleHasher::signature(const Tuple &t) const
{
    const uint64_t npc = byteFlip(randomizeRef(words, t.first));
    const uint64_t nv = randomizeRef(words + 256, t.second);
    return npc ^ nv;
}

uint64_t
TupleHasher::index(const Tuple &t) const
{
    return xorFold(signature(t), bits);
}

TupleHasherFamily::TupleHasherFamily(uint64_t seed, unsigned numFunctions,
                                     uint64_t tableSize)
{
    MHP_REQUIRE(numFunctions >= 1, "family needs at least one function");
    words.resize(static_cast<size_t>(numFunctions) *
                 TupleHasher::kTableWords);
    members.reserve(numFunctions);
    SplitMix64 sm(seed);
    for (unsigned i = 0; i < numFunctions; ++i) {
        uint64_t *const block =
            words.data() + i * TupleHasher::kTableWords;
        TupleHasher::fillTables(sm.next(), block);
        members.emplace_back(block, tableSize);
    }
    packed = ContributionTable(words.data(), numFunctions,
                               members[0].indexBits());
}

} // namespace mhp
