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
 * packs its members' blocks back to back. These blocks are the source
 * of the hashers' ContributionTable and the operand of the reference
 * (kernel_ref::index / indexMulti); production ingest hashes through
 * the ContributionTable only.
 */

#ifndef MHP_CORE_HASH_FUNCTION_H
#define MHP_CORE_HASH_FUNCTION_H

#include <cstdint>
#include <vector>

#include "core/ingest_kernels_ref.h"
#include "support/bit_util.h"
#include "trace/tuple.h"

namespace mhp {

/**
 * Byte-position contribution tables: every hash index of a hasher or
 * family, precomputed per key byte (docs/PERF.md "Hashing").
 *
 * randomize XORs one rotated random-table word per key byte, and the
 * steps after it (byteFlip, xor-fold) are linear over XOR. So a
 * tuple's signature is the XOR, over its 16 key bytes (the 8 pc bytes
 * from least significant up, then the 8 value bytes), of a word that
 * depends only on the byte's position and value:
 *
 *     pc byte k = v:     byteFlip(rotl(pcTable[v], 8k))
 *     value byte k = v:  rotl(valueTable[v], 8k)
 *
 * and each member's index is the XOR of those words' folds. The table
 * stores every member's folded contribution as a fieldBits-wide field,
 * ⌊64 / fieldBits⌋ fields per word: member i sits in word
 * i / fieldsPerWord() at shift (i mod fieldsPerWord()) * fieldBits.
 * XOR never carries across fields, so one 16-load XOR per word yields
 * all of its members' indexes at once. Layout:
 * [16 positions][256 byte values][wordsPerEntry() words], W x 32 KiB.
 *
 * fieldBits = 64 stores the unfolded contributions of one member; the
 * XOR is then the signature itself (the stratified sampler's tags).
 */
class ContributionTable
{
  public:
    /** Key-byte positions: 8 pc bytes, then 8 value bytes. */
    static constexpr unsigned kPositions = 16;

    /** Empty table (a family member's view hasher carries none). */
    ContributionTable() = default;

    /**
     * Build from `members` consecutive 512-word pc||value blocks.
     * @param fieldBits Index width in [1, 63], or 64 for unfolded
     *        signatures (then members must be 1).
     */
    ContributionTable(const uint64_t *blocks, unsigned members,
                      unsigned fieldBits);

    /**
     * The one hash kernel: for j in [0, m) and i in [0, members()),
     *   out[j * members() + i] = member i's index of block[j]
     *                            + i * addendStride
     * == kernel_ref::indexMulti. `addendStride` pre-offsets each index
     * into a structure-of-arrays counter bank. Folded tables only.
     */
    void indexBlock(const Tuple *block, size_t m, uint32_t *out,
                    uint32_t addendStride) const;

    /**
     * out[j] = the unfolded signature of block[j]
     * (== kernel_ref::signature). fieldBits = 64 tables only.
     */
    void signatureBlock(const Tuple *block, size_t m,
                        uint64_t *out) const;

    unsigned members() const { return numMembers; }
    unsigned fieldBits() const { return bits; }
    unsigned fieldsPerWord() const { return perWord; }
    unsigned wordsPerEntry() const { return width; }

    /** The packed words, [position][byte value][word]. */
    const uint64_t *data() const { return words.data(); }

  private:
    std::vector<uint64_t> words;
    unsigned numMembers = 0;
    unsigned bits = 0;
    unsigned perWord = 0;
    unsigned width = 0;
};

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
     * outlive the hasher. A view builds no ContributionTable: the
     * family's table hashes all of its members.
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
     * Header-inline index computation (kernel_ref::index over this
     * hasher's block) for one-off repairs inside ingest loops.
     * Bit-identical to index().
     */
    uint64_t
    indexHot(const Tuple &t) const
    {
        return kernel_ref::index(words, bits, t);
    }

    /**
     * This hasher's contribution table (one member, indexBits() wide);
     * empty for a family member's view.
     */
    const ContributionTable &contributions() const { return packed; }

    /** This hasher's 512-word pc||value random-table block. */
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
    /** Built from `own`; empty for a view. */
    ContributionTable packed;
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

    /** Every member's index width (log2 of the table size). */
    unsigned indexBits() const { return members[0].indexBits(); }

    /** All members' indexes in one table (ContributionTable). */
    const ContributionTable &contributions() const { return packed; }

    /**
     * All members' table blocks, contiguous: member i's 512-word
     * pc||value block starts at tableWords() + i * kTableWords.
     */
    const uint64_t *tableWords() const { return words.data(); }

  private:
    std::vector<uint64_t> words;
    std::vector<TupleHasher> members;
    ContributionTable packed;
};

} // namespace mhp

#endif // MHP_CORE_HASH_FUNCTION_H
