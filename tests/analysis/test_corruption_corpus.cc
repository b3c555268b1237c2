/**
 * @file
 * Exhaustive corruption corpus over every on-disk format.
 *
 * For each reader (profile v2, legacy profile v1, trace) we generate a
 * small valid file, then (a) truncate it at every possible length and
 * (b) flip every single bit, asserting that reading always ends in a
 * clean Status or a clean success — never a crash, hang, or oversized
 * allocation. CI runs this suite under ASan+UBSan (ctest -R
 * CorruptionCorpus), so an out-of-bounds read or overflow in any parse
 * path fails loudly here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/profile_io.h"
#include "support/bytes.h"
#include "support/crc32.h"
#include "trace/trace_io.h"

namespace mhp {
namespace {

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    // Unlink and create instead of truncating in place: on some file
    // systems truncating a non-empty file costs ~100x more, and the
    // corpus loops rewrite one small file thousands of times.
    std::filesystem::remove(path);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::string
tempName(const char *stem)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("mhp_corpus_") + stem + "_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()))
        .string();
}

/**
 * Drive a profile file all the way through: open, then next() to the
 * end. The
 * test only cares that this never crashes; whether a given mutation is
 * detected (almost all) or benign (e.g. a flip in v1's uncheck-summed
 * records) is the format's business.
 */
void
consumeProfile(const std::string &path)
{
    auto opened = ProfileReader::open(path);
    if (!opened.isOk()) {
        EXPECT_FALSE(opened.status().message().empty());
        return;
    }
    for (;;) {
        auto got = opened->next();
        if (!got.isOk()) {
            EXPECT_FALSE(got.status().message().empty());
            return;
        }
        if (!got->has_value())
            return;
    }
}

void
consumeTrace(const std::string &path)
{
    auto opened = TraceReader::open(path);
    if (!opened.isOk()) {
        EXPECT_FALSE(opened.status().message().empty());
        return;
    }
    while (!(*opened)->done())
        (void)(*opened)->next();
}

void
runCorpus(const std::string &path, const std::vector<uint8_t> &valid,
          void (*consume)(const std::string &))
{
    // Every truncation point, including the empty file.
    for (size_t len = 0; len < valid.size(); ++len) {
        writeFile(path, {valid.begin(), valid.begin() + len});
        consume(path);
    }
    // Every single-bit flip.
    std::vector<uint8_t> mutant = valid;
    for (size_t byte = 0; byte < mutant.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            mutant[byte] ^= static_cast<uint8_t>(1 << bit);
            writeFile(path, mutant);
            consume(path);
            mutant[byte] ^= static_cast<uint8_t>(1 << bit);
        }
    }
    std::remove(path.c_str());
}

TEST(CorruptionCorpusProfileV2, SurvivesAllTruncationsAndBitFlips)
{
    const std::string path = tempName("v2");
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        ASSERT_TRUE(w.ok());
        ASSERT_TRUE(w.writeInterval({{Tuple{1, 10}, 500},
                                     {Tuple{2, 20}, 300}})
                        .isOk());
        ASSERT_TRUE(w.writeInterval({{Tuple{3, 30}, 999}}).isOk());
        ASSERT_TRUE(w.writeInterval({}).isOk());
        ASSERT_TRUE(w.close().isOk());
    }
    const std::vector<uint8_t> valid = readFile(path);
    ASSERT_GT(valid.size(), 44u);
    runCorpus(path, valid, consumeProfile);
}

TEST(CorruptionCorpusProfileV1, SurvivesAllTruncationsAndBitFlips)
{
    // v1 has no writer anymore; build the legacy layout by hand.
    ByteBuffer b;
    const char magic[8] = {'M', 'H', 'P', 'R', 'O', 'F', '1', '\0'};
    for (char c : magic)
        b.u8(static_cast<uint8_t>(c));
    b.u8(1); // kind: edge
    for (int i = 0; i < 7; ++i)
        b.u8(0);
    b.u64(5000); // intervalLength
    b.u64(50);   // thresholdCount
    b.u64(2);    // interval: candidateCount
    b.u64(1);
    b.u64(10);
    b.u64(700); // record {1,10} x700
    b.u64(2);
    b.u64(20);
    b.u64(300); // record {2,20} x300
    b.u64(0);   // second interval: empty
    const std::vector<uint8_t> valid(b.data(), b.data() + b.size());

    const std::string path = tempName("v1");
    writeFile(path, valid);
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    EXPECT_EQ(opened->formatVersion(), 1u);
    for (int iv = 0; iv < 2; ++iv) {
        auto got = opened->next();
        ASSERT_TRUE(got.isOk()) << got.status().toString();
        ASSERT_TRUE(got->has_value());
    }
    auto end = opened->next();
    ASSERT_TRUE(end.isOk()) << end.status().toString();
    EXPECT_FALSE(end->has_value());

    runCorpus(path, valid, consumeProfile);
}

TEST(CorruptionCorpusTrace, SurvivesAllTruncationsAndBitFlips)
{
    const std::string path = tempName("mht");
    {
        TraceWriter w(path, ProfileKind::Value);
        ASSERT_TRUE(w.ok());
        for (uint64_t i = 0; i < 6; ++i)
            w.accept(Tuple{i, i * i});
        ASSERT_TRUE(w.close().isOk());
    }
    const std::vector<uint8_t> valid = readFile(path);
    ASSERT_EQ(valid.size(), 24u + 6u * 16u);
    runCorpus(path, valid, consumeTrace);
}

TEST(CorruptionCorpusProfileV2, AdversarialLengthFieldsStayBounded)
{
    // Beyond single-bit flips: plant maximal 64-bit values in every
    // length-carrying field. All must be rejected by the remaining-
    // file-size bound, not passed to an allocator.
    const std::string path = tempName("adversarial");
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        ASSERT_TRUE(w.ok());
        ASSERT_TRUE(w.writeInterval({{Tuple{1, 10}, 500}}).isOk());
        ASSERT_TRUE(w.close().isOk());
    }
    const std::vector<uint8_t> valid = readFile(path);
    for (size_t offset : {size_t{32}, size_t{44}}) {
        for (uint64_t planted :
             {~0ULL, 1ULL << 62, 1ULL << 32, 0x7FFFFFFFFFFFFFFFULL}) {
            std::vector<uint8_t> mutant = valid;
            putLe64(mutant.data() + offset, planted);
            // Refresh the header CRC when mutating a header field so
            // the planted value actually reaches the bounds check.
            if (offset < 40)
                putLe32(mutant.data() + 40, crc32(mutant.data(), 40));
            writeFile(path, mutant);
            consumeProfile(path);
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace mhp
