#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/profile_io.h"
#include "support/bytes.h"
#include "support/crc32.h"
#include "trace/event_class.h"

namespace mhp {
namespace {

/** Every remaining snapshot, pulled through the next() cursor. */
StatusOr<std::vector<IntervalSnapshot>>
collect(ProfileReader &reader)
{
    std::vector<IntervalSnapshot> all;
    for (;;) {
        StatusOr<std::optional<IntervalSnapshot>> got = reader.next();
        if (!got.isOk())
            return got.status();
        if (!got->has_value())
            return all;
        all.push_back(std::move(**got));
    }
}

class ProfileIoTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = (std::filesystem::temp_directory_path() /
                (std::string("mhp_profile_") +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name() +
                 ".mhp"))
                   .string();
    }

    void
    TearDown() override
    {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }

    std::string path;
};

TEST_F(ProfileIoTest, RoundTripsSnapshots)
{
    const IntervalSnapshot first{{Tuple{1, 10}, 500},
                                 {Tuple{2, 20}, 300}};
    const IntervalSnapshot second{{Tuple{3, 30}, 999}};
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        ASSERT_TRUE(w.ok());
        EXPECT_TRUE(w.writeInterval(first).isOk());
        EXPECT_TRUE(w.writeInterval(second).isOk());
        EXPECT_EQ(w.intervalsWritten(), 2u);
        EXPECT_TRUE(w.close().isOk());
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    ProfileReader &r = *opened;
    EXPECT_EQ(r.kind(), ProfileKind::Value);
    EXPECT_EQ(r.intervalLength(), 10'000u);
    EXPECT_EQ(r.thresholdCount(), 100u);
    EXPECT_EQ(r.formatVersion(), 3u);
    EXPECT_EQ(r.declaredIntervals(), 2u);

    IntervalSnapshot snap;
    auto got = r.readInterval(snap);
    ASSERT_TRUE(got.isOk()) << got.status().toString();
    ASSERT_TRUE(*got);
    EXPECT_EQ(snap, first);
    got = r.readInterval(snap);
    ASSERT_TRUE(got.isOk());
    ASSERT_TRUE(*got);
    EXPECT_EQ(snap, second);
    got = r.readInterval(snap);
    ASSERT_TRUE(got.isOk());
    EXPECT_FALSE(*got);
    EXPECT_EQ(snap, second); // untouched at EOF
}

TEST_F(ProfileIoTest, EmptyIntervalsRoundTrip)
{
    {
        ProfileWriter w(path, ProfileKind::Edge, 1'000'000, 1000);
        EXPECT_TRUE(w.writeInterval({}).isOk());
        EXPECT_TRUE(w.writeInterval({}).isOk());
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    EXPECT_EQ(opened->kind(), ProfileKind::Edge);
    auto all = collect(*opened);
    ASSERT_TRUE(all.isOk()) << all.status().toString();
    ASSERT_EQ(all->size(), 2u);
    EXPECT_TRUE((*all)[0].empty());
    EXPECT_TRUE((*all)[1].empty());
}

TEST_F(ProfileIoTest, ReadAllCollectsEverything)
{
    {
        ProfileWriter w(path, ProfileKind::CacheMiss, 10'000, 100);
        for (uint64_t iv = 0; iv < 5; ++iv)
            EXPECT_TRUE(
                w.writeInterval({{Tuple{iv, iv * 2}, iv + 1}}).isOk());
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    EXPECT_EQ(opened->kind(), ProfileKind::CacheMiss);
    auto all = collect(*opened);
    ASSERT_TRUE(all.isOk()) << all.status().toString();
    ASSERT_EQ(all->size(), 5u);
    for (uint64_t iv = 0; iv < 5; ++iv) {
        ASSERT_EQ((*all)[iv].size(), 1u);
        EXPECT_EQ((*all)[iv][0].tuple.first, iv);
        EXPECT_EQ((*all)[iv][0].count, iv + 1);
    }
}

TEST_F(ProfileIoTest, NextCursorsThroughEveryInterval)
{
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        for (uint64_t iv = 0; iv < 4; ++iv)
            ASSERT_TRUE(
                w.writeInterval({{Tuple{iv, iv + 1}, iv + 2}}).isOk());
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    for (uint64_t iv = 0; iv < 4; ++iv) {
        auto got = opened->next();
        ASSERT_TRUE(got.isOk()) << got.status().toString();
        ASSERT_TRUE(got->has_value()) << "interval " << iv;
        ASSERT_EQ((*got)->size(), 1u);
        EXPECT_EQ((**got)[0], (CandidateCount{{iv, iv + 1}, iv + 2}));
    }
    // The clean end is nullopt, and stays nullopt on re-poll.
    auto end = opened->next();
    ASSERT_TRUE(end.isOk()) << end.status().toString();
    EXPECT_FALSE(end->has_value());
    end = opened->next();
    ASSERT_TRUE(end.isOk());
    EXPECT_FALSE(end->has_value());
}

TEST_F(ProfileIoTest, NextRejectsTrailingGarbage)
{
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        ASSERT_TRUE(w.writeInterval({{Tuple{1, 2}, 3}}).isOk());
    }
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f << "extra";
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    auto got = opened->next();
    ASSERT_TRUE(got.isOk()) << got.status().toString();
    ASSERT_TRUE(got->has_value()); // the real interval still reads
    got = opened->next();
    ASSERT_FALSE(got.isOk()); // ...but the end is not clean
    EXPECT_EQ(got.status().code(), StatusCode::CorruptData);
    EXPECT_NE(got.status().message().find("trailing garbage"),
              std::string::npos);
}

TEST_F(ProfileIoTest, MissingFileIsError)
{
    auto opened = ProfileReader::open("/nonexistent/profile.mhp");
    ASSERT_FALSE(opened.isOk());
    EXPECT_EQ(opened.status().code(), StatusCode::NotFound);
    EXPECT_NE(opened.status().message().find("cannot open"),
              std::string::npos);
}

TEST_F(ProfileIoTest, BadMagicIsError)
{
    {
        std::ofstream bad(path, std::ios::binary);
        bad << "THIS-IS-NOT-A-PROFILE-FILE-AT-ALL";
    }
    auto opened = ProfileReader::open(path);
    ASSERT_FALSE(opened.isOk());
    EXPECT_EQ(opened.status().code(), StatusCode::CorruptData);
    EXPECT_NE(opened.status().message().find("bad profile magic"),
              std::string::npos);
}

TEST_F(ProfileIoTest, AllProfileKindsSurvive)
{
    for (const auto kind : allProfileKinds()) {
        {
            ProfileWriter w(path, kind, 1, 1);
            EXPECT_TRUE(w.writeInterval({}).isOk());
        }
        auto opened = ProfileReader::open(path);
        ASSERT_TRUE(opened.isOk()) << opened.status().toString();
        EXPECT_EQ(opened->kind(), kind);
    }
}

TEST_F(ProfileIoTest, WriterIsAtomic)
{
    // Before close(), nothing exists under the final name; the data
    // lives in the .tmp file, so readers can never see half a profile.
    ProfileWriter w(path, ProfileKind::Value, 10, 1);
    ASSERT_TRUE(w.writeInterval({{Tuple{1, 2}, 3}}).isOk());
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
    EXPECT_TRUE(w.close().isOk());
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(ProfileIoTest, WriteAfterCloseIsError)
{
    ProfileWriter w(path, ProfileKind::Value, 10, 1);
    EXPECT_TRUE(w.close().isOk());
    const Status bad = w.writeInterval({});
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), StatusCode::FailedPrecondition);
}

TEST_F(ProfileIoTest, UnterminatedWriterIsDetected)
{
    // Simulate a crash mid-write: the header still carries the
    // "writer open" sentinel count instead of the real one (what a
    // reader finds if it grabs the .tmp of a crashed writer).
    ProfileWriter w(path, ProfileKind::Value, 10, 1);
    ASSERT_TRUE(w.writeInterval({{Tuple{1, 2}, 3}}).isOk());
    std::filesystem::copy_file(path + ".tmp", path);
    ASSERT_TRUE(w.close().isOk());

    // Restore the crashed header state onto the published file.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        uint8_t header[44];
        f.read(reinterpret_cast<char *>(header), sizeof(header));
        putLe64(header + 32, UINT64_MAX);
        putLe32(header + 40, crc32(header, 40));
        f.seekp(0);
        f.write(reinterpret_cast<const char *>(header), sizeof(header));
    }
    auto opened = ProfileReader::open(path);
    ASSERT_FALSE(opened.isOk());
    EXPECT_EQ(opened.status().code(), StatusCode::CorruptData);
    EXPECT_NE(opened.status().message().find("unterminated"),
              std::string::npos);
}

TEST_F(ProfileIoTest, HeaderCorruptionIsDetected)
{
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        ASSERT_TRUE(w.writeInterval({{Tuple{1, 2}, 3}}).isOk());
    }
    // Flip one bit in the intervalLength field: the header CRC must
    // catch it.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(16);
        char byte;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x01);
        f.seekp(16);
        f.write(&byte, 1);
    }
    auto opened = ProfileReader::open(path);
    ASSERT_FALSE(opened.isOk());
    EXPECT_EQ(opened.status().code(), StatusCode::CorruptData);
    EXPECT_NE(opened.status().message().find("CRC"), std::string::npos);
}

TEST_F(ProfileIoTest, RecordCorruptionIsDetected)
{
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        ASSERT_TRUE(
            w.writeInterval({{Tuple{1, 2}, 3}, {Tuple{4, 5}, 6}})
                .isOk());
    }
    // Flip a bit inside the second candidate's count field.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(44 + 8 + 24 + 16);
        char byte;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(44 + 8 + 24 + 16);
        f.write(&byte, 1);
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    auto all = collect(*opened);
    ASSERT_FALSE(all.isOk());
    EXPECT_EQ(all.status().code(), StatusCode::CorruptData);
    EXPECT_NE(all.status().message().find("CRC mismatch"),
              std::string::npos);
    // The diagnostic names the file and an offset.
    EXPECT_NE(all.status().message().find(path), std::string::npos);
    EXPECT_NE(all.status().message().find("offset"), std::string::npos);
}

TEST_F(ProfileIoTest, OversizedCandidateCountIsBounded)
{
    // A corrupt candidate count must produce a clean error before any
    // allocation sized from it (the file is only a few dozen bytes).
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        ASSERT_TRUE(w.writeInterval({{Tuple{1, 2}, 3}}).isOk());
    }
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        uint8_t countLe[8];
        putLe64(countLe, 1ULL << 60); // ~27 exabytes of records
        f.seekp(44);
        f.write(reinterpret_cast<const char *>(countLe), 8);
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    IntervalSnapshot snap;
    auto got = opened->readInterval(snap);
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::CorruptData);
    EXPECT_NE(got.status().message().find(
                  "candidate count exceeds remaining file size"),
              std::string::npos);
}

TEST_F(ProfileIoTest, TruncatedFileIsDetected)
{
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        for (int iv = 0; iv < 3; ++iv)
            ASSERT_TRUE(w.writeInterval({{Tuple{1, 2}, 3}}).isOk());
    }
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 10);

    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    auto all = collect(*opened);
    ASSERT_FALSE(all.isOk());
    EXPECT_EQ(all.status().code(), StatusCode::CorruptData);
}

TEST_F(ProfileIoTest, TrailingGarbageIsDetected)
{
    {
        ProfileWriter w(path, ProfileKind::Value, 10'000, 100);
        ASSERT_TRUE(w.writeInterval({{Tuple{1, 2}, 3}}).isOk());
    }
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        f << "extra-bytes-after-the-declared-intervals";
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    auto all = collect(*opened);
    ASSERT_FALSE(all.isOk());
    EXPECT_EQ(all.status().code(), StatusCode::CorruptData);
    EXPECT_NE(all.status().message().find("trailing garbage"),
              std::string::npos);
}

/**
 * Rewrite an on-disk v3 header in place: set the magic's version
 * character and the kind byte, then recompute the header CRC so only
 * the targeted field is "wrong".
 */
void
patchHeader(const std::string &path, char versionChar, uint8_t kindByte)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    uint8_t header[40];
    f.read(reinterpret_cast<char *>(header), sizeof(header));
    header[6] = static_cast<uint8_t>(versionChar);
    header[8] = kindByte;
    uint8_t crcLe[4];
    putLe32(crcLe, crc32(header, sizeof(header)));
    f.seekp(0);
    f.write(reinterpret_cast<const char *>(header), sizeof(header));
    f.write(reinterpret_cast<const char *>(crcLe), sizeof(crcLe));
}

TEST_F(ProfileIoTest, ReadsV2FilesWithPreRegistryKinds)
{
    {
        ProfileWriter w(path, ProfileKind::Value, 5000, 50);
        ASSERT_TRUE(w.writeInterval({{Tuple{1, 2}, 3}}).isOk());
    }
    patchHeader(path, '2', 1); // Edge, in the v2 range
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    EXPECT_EQ(opened->formatVersion(), 2u);
    EXPECT_EQ(opened->kind(), ProfileKind::Edge);
    auto all = collect(*opened);
    ASSERT_TRUE(all.isOk()) << all.status().toString();
    EXPECT_EQ((*all)[0][0], (CandidateCount{{1, 2}, 3}));
}

TEST_F(ProfileIoTest, V2RejectsPostRegistryKindBytes)
{
    {
        ProfileWriter w(path, ProfileKind::Path, 5000, 50);
        ASSERT_TRUE(w.writeInterval({}).isOk());
    }
    // Path (4) postdates v2: a v2 header claiming it is corrupt.
    patchHeader(path, '2', 4);
    auto opened = ProfileReader::open(path);
    ASSERT_FALSE(opened.isOk());
    EXPECT_EQ(opened.status().code(), StatusCode::CorruptData);
}

TEST_F(ProfileIoTest, V3RejectsUnregisteredKindBytes)
{
    {
        ProfileWriter w(path, ProfileKind::Value, 5000, 50);
        ASSERT_TRUE(w.writeInterval({}).isOk());
    }
    patchHeader(path, '3', 9); // no registered kind has byte 9
    auto opened = ProfileReader::open(path);
    ASSERT_FALSE(opened.isOk());
    EXPECT_EQ(opened.status().code(), StatusCode::CorruptData);
    EXPECT_NE(opened.status().message().find("kind"),
              std::string::npos);
}

TEST_F(ProfileIoTest, ReadsLegacyV1Files)
{
    // Hand-write a v1 profile: 32-byte header, raw intervals, no CRCs.
    {
        std::ofstream f(path, std::ios::binary);
        uint8_t header[32] = {};
        std::memcpy(header, "MHPROF1\0", 8);
        header[8] = 1; // Edge
        putLe64(header + 16, 5000);
        putLe64(header + 24, 50);
        f.write(reinterpret_cast<const char *>(header), sizeof(header));

        ByteBuffer interval;
        interval.u64(2);
        interval.u64(11);
        interval.u64(22);
        interval.u64(33);
        interval.u64(44);
        interval.u64(55);
        interval.u64(66);
        f.write(reinterpret_cast<const char *>(interval.data()),
                static_cast<std::streamsize>(interval.size()));
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    EXPECT_EQ(opened->formatVersion(), 1u);
    EXPECT_EQ(opened->kind(), ProfileKind::Edge);
    EXPECT_EQ(opened->intervalLength(), 5000u);
    EXPECT_EQ(opened->thresholdCount(), 50u);
    auto all = collect(*opened);
    ASSERT_TRUE(all.isOk()) << all.status().toString();
    ASSERT_EQ(all->size(), 1u);
    ASSERT_EQ((*all)[0].size(), 2u);
    EXPECT_EQ((*all)[0][0], (CandidateCount{{11, 22}, 33}));
    EXPECT_EQ((*all)[0][1], (CandidateCount{{44, 55}, 66}));
}

TEST_F(ProfileIoTest, V1OversizedCountIsBoundedToo)
{
    {
        std::ofstream f(path, std::ios::binary);
        uint8_t header[32] = {};
        std::memcpy(header, "MHPROF1\0", 8);
        f.write(reinterpret_cast<const char *>(header), sizeof(header));
        uint8_t countLe[8];
        putLe64(countLe, 1ULL << 61);
        f.write(reinterpret_cast<const char *>(countLe), 8);
    }
    auto opened = ProfileReader::open(path);
    ASSERT_TRUE(opened.isOk()) << opened.status().toString();
    auto all = collect(*opened);
    ASSERT_FALSE(all.isOk());
    EXPECT_EQ(all.status().code(), StatusCode::CorruptData);
}

} // namespace
} // namespace mhp
