/**
 * @file
 * The paper's tuple hash function (Section 5.3) and families thereof.
 *
 * For a tuple <pc, value> the index is computed as
 *
 *     npc   = flip(randomize(pc))
 *     nv    = randomize(value)
 *     index = xor-fold(npc ^ nv, log2(table size))
 *
 * randomize magnifies the small variation between temporally close PCs
 * and values; flip moves the PC's variation into the high-order bytes
 * so xor-ing with the value yields a greater degree of variation.
 *
 * A TupleHasherFamily provides n independent functions by giving each
 * member its own random tables, exactly as the paper does.
 *
 * Layout contract (docs/PERF.md): one hasher's two 256-entry random
 * tables are a single contiguous block of 512 64-bit words — the PC
 * table at [0, 256), the value table at [256, 512) — and a family
 * packs its members' blocks back to back. The SIMD ingest kernels
 * (core/ingest_kernels.h) gather straight out of these blocks, so the
 * layout is part of the kernel ABI, not an implementation detail.
 */

#ifndef MHP_CORE_HASH_FUNCTION_H
#define MHP_CORE_HASH_FUNCTION_H

#include <cstdint>
#include <vector>

#include "core/ingest_kernels_ref.h"
#include "support/bit_util.h"
#include "trace/tuple.h"

namespace mhp {

/** One hardware hash function over tuples. */
class TupleHasher
{
  public:
    /** 64-bit words in one hasher's table block (two 256-entry tables). */
    static constexpr size_t kTableWords = 512;

    /**
     * @param seed Seed for this function's two random tables (one for
     *        each tuple member).
     * @param tableSize Number of entries in the indexed table; must be
     *        a power of two (the xor-fold width is log2 of it).
     */
    TupleHasher(uint64_t seed, uint64_t tableSize);

    /**
     * View over an externally owned, already-filled 512-word table
     * block (a TupleHasherFamily's contiguous storage). The block must
     * outlive the hasher.
     */
    TupleHasher(const uint64_t *tables, uint64_t tableSize);

    // The view form aliases external storage, so copying cannot be
    // made uniformly safe; moving is (the owning buffer is on the
    // heap, so its address survives the move).
    TupleHasher(const TupleHasher &) = delete;
    TupleHasher &operator=(const TupleHasher &) = delete;
    TupleHasher(TupleHasher &&) = default;
    TupleHasher &operator=(TupleHasher &&) = default;

    /**
     * Fill a 512-word block with the two random tables derived from
     * `seed` — the single definition of the seeding scheme, shared by
     * the owning constructor and TupleHasherFamily.
     */
    static void fillTables(uint64_t seed, uint64_t *out);

    /** The table index for a tuple, in [0, tableSize). */
    uint64_t index(const Tuple &t) const;

    /** The full 64-bit signature before folding (for tests). */
    uint64_t signature(const Tuple &t) const;

    /**
     * Header-inline index computation for ingest loops.
     * Bit-identical to index(); kept separate so index() stays the
     * out-of-line loop-form reference while onEvents() kernels fold
     * the whole randomize/flip/fold pipeline into their inner loops.
     */
    uint64_t
    indexHot(const Tuple &t) const
    {
        return kernel_ref::index(words, bits, t);
    }

    /**
     * This hasher's 512-word pc||value table block — the `tables`
     * argument of the ingest kernels.
     */
    const uint64_t *tableWords() const { return words; }

    uint64_t tableSize() const { return size; }
    unsigned indexBits() const { return bits; }

  private:
    /** 512 words when owning; empty when viewing family storage. */
    std::vector<uint64_t> own;
    /** own.data() or the external block. */
    const uint64_t *words;
    uint64_t size;
    unsigned bits;
};

/** n independent hash functions for an n-table multi-hash profiler. */
class TupleHasherFamily
{
  public:
    /**
     * @param seed Family seed; member i derives its tables from
     *        (seed, i).
     * @param numFunctions Number of independent members.
     * @param tableSize Entries per indexed table (power of two).
     */
    TupleHasherFamily(uint64_t seed, unsigned numFunctions,
                      uint64_t tableSize);

    // Members view the family's contiguous table storage; see
    // TupleHasher for why that makes the family move-only.
    TupleHasherFamily(const TupleHasherFamily &) = delete;
    TupleHasherFamily &operator=(const TupleHasherFamily &) = delete;
    TupleHasherFamily(TupleHasherFamily &&) = default;
    TupleHasherFamily &operator=(TupleHasherFamily &&) = default;

    const TupleHasher &function(unsigned i) const { return members[i]; }
    unsigned size() const { return members.size(); }

    /**
     * All members' table blocks, contiguous: member i's 512-word
     * pc||value block starts at tableWords() + i * kTableWords.
     */
    const uint64_t *tableWords() const { return words.data(); }

    /** Member i's 512-word block (== function(i).tableWords()). */
    const uint64_t *
    memberTables(unsigned i) const
    {
        return words.data() + i * TupleHasher::kTableWords;
    }

  private:
    std::vector<uint64_t> words;
    std::vector<TupleHasher> members;
};

} // namespace mhp

#endif // MHP_CORE_HASH_FUNCTION_H
