#include "core/hash_function.h"

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

} // namespace

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
}

} // namespace mhp
