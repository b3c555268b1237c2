/**
 * Frozen checkpoint bytes of the factory's profiler configurations.
 *
 * test_profiler_state.cc checks that a checkpoint restores to the same
 * future behaviour, but a blob layout change that both saveState and
 * loadState agree on would pass it while breaking every checkpoint a
 * daemon wrote before the change. This test pins the saveState size
 * and an FNV-1a digest of its bytes for sh-R1P1, sh-R0P0 and
 * mh4-C1R0P1 (bestSingleHashConfig, the same without resetting or
 * retaining, and bestMultiHashConfig) after a fixed seeded stream has
 * closed a few intervals and stopped mid-interval. It then restores
 * the blob onto a fresh profiler and checks every later snapshot
 * against the uninterrupted run. A change that moves a literal breaks
 * existing checkpoints and must say so.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/factory.h"
#include "support/bytes.h"
#include "support/rng.h"

namespace mhp {
namespace {

constexpr uint64_t kIntervalLength = 10'000;
constexpr int kClosedIntervals = 3;
constexpr uint64_t kMidInterval = 4321;
constexpr int kLaterIntervals = 3;

/**
 * Seeded three-level stream: a quarter of the events go to 16 hot
 * tuples (~156 per interval, well over the 1% threshold), a quarter
 * to 32 warm ones (~78, close enough below it that aliasing promotes
 * some), and half to 4096 cold ones.
 */
std::vector<Tuple>
seededStream(uint64_t count)
{
    Rng rng(0x5eed0c4eULL);
    std::vector<Tuple> events(count);
    for (Tuple &t : events) {
        const uint64_t r = rng.next();
        uint64_t key;
        switch (r & 3) {
          case 0: key = (r >> 2) % 16; break;
          case 1: key = 16 + (r >> 2) % 32; break;
          default: key = 48 + (r >> 2) % 4096; break;
        }
        t = Tuple{0x400000 + 4 * key, key * 7 + 1};
    }
    return events;
}

uint64_t
fnv1a(const uint8_t *data, size_t size)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Feed events [from, to) in blocks of 1000 (one onEvents per block). */
void
feed(HardwareProfiler &p, const std::vector<Tuple> &events, uint64_t from,
     uint64_t to)
{
    for (uint64_t at = from; at < to; at += 1000)
        p.onEvents(events.data() + at, std::min<uint64_t>(1000, to - at));
}

void
expectGoldenState(const ProfilerConfig &config, const char *name,
                  size_t size, uint64_t digest)
{
    const uint64_t stop = kClosedIntervals * kIntervalLength + kMidInterval;
    const std::vector<Tuple> events =
        seededStream((kClosedIntervals + kLaterIntervals) * kIntervalLength);

    std::unique_ptr<HardwareProfiler> original = makeProfiler(config);
    ASSERT_EQ(original->name(), name);
    for (int i = 0; i < kClosedIntervals; ++i) {
        feed(*original, events, i * kIntervalLength,
             (i + 1) * kIntervalLength);
        original->endInterval();
    }
    feed(*original, events, kClosedIntervals * kIntervalLength, stop);

    ByteBuffer blob;
    ASSERT_TRUE(original->saveState(blob).isOk());
    EXPECT_EQ(blob.size(), size) << name;
    EXPECT_EQ(fnv1a(blob.data(), blob.size()), digest)
        << name << ": 0x" << std::hex
        << fnv1a(blob.data(), blob.size());

    std::unique_ptr<HardwareProfiler> restored = makeProfiler(config);
    ByteCursor cursor(blob.data(), blob.size());
    const Status loaded = restored->loadState(cursor);
    ASSERT_TRUE(loaded.isOk()) << loaded.toString();
    EXPECT_TRUE(cursor.atEnd());

    // The first later interval finishes the one the checkpoint split.
    uint64_t at = stop;
    for (int i = 0; i < kLaterIntervals; ++i) {
        const uint64_t end = (kClosedIntervals + 1 + i) * kIntervalLength;
        feed(*original, events, at, end);
        feed(*restored, events, at, end);
        at = end;
        const IntervalSnapshot a = original->endInterval();
        const IntervalSnapshot b = restored->endInterval();
        ASSERT_FALSE(a.empty()) << name;
        ASSERT_EQ(a, b) << name << " diverged in later interval " << i;
    }
}

TEST(ProfilerStateGolden, BestSingleHash)
{
    expectGoldenState(bestSingleHashConfig(kIntervalLength, 0.01),
                      "sh-R1P1", 19349,
                      0x83500f021942386eULL);
}

TEST(ProfilerStateGolden, SingleHashNoResetNoRetain)
{
    ProfilerConfig c = bestSingleHashConfig(kIntervalLength, 0.01);
    c.resetOnPromote = false;
    c.retaining = false;
    expectGoldenState(c, "sh-R0P0", 19409, 0x9acd17fdd5c7ee75ULL);
}

TEST(ProfilerStateGolden, BestMultiHash)
{
    expectGoldenState(bestMultiHashConfig(kIntervalLength, 0.01),
                      "mh4-C1R0P1", 19381,
                      0xafad50dace0891e9ULL);
}

} // namespace
} // namespace mhp
