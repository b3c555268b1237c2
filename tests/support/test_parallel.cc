#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "support/parallel.h"

namespace mhp {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    const size_t n = 10'000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ZeroIterationsIsNoop)
{
    bool called = false;
    parallelFor(0, [&](size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadIsOrdered)
{
    std::vector<size_t> order;
    parallelFor(100, [&](size_t i) { order.push_back(i); },
                /*threads=*/1);
    ASSERT_EQ(order.size(), 100u);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ResultsMatchSerialExecution)
{
    // Slot-indexed writes: the parallel result must equal serial.
    const size_t n = 500;
    std::vector<uint64_t> serial(n), parallel(n);
    auto work = [](size_t i) {
        uint64_t acc = i;
        for (int k = 0; k < 100; ++k)
            acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
        return acc;
    };
    for (size_t i = 0; i < n; ++i)
        serial[i] = work(i);
    parallelFor(n, [&](size_t i) { parallel[i] = work(i); },
                /*threads=*/4);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelFor, MoreThreadsThanWorkIsFine)
{
    std::vector<std::atomic<int>> hits(3);
    parallelFor(3, [&](size_t i) { ++hits[i]; }, /*threads=*/16);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, LaterIndexMayWaitOnAnEarlierOne)
{
    // Index i spins until index i - 1 is done. In-order claiming makes
    // this finish on any thread count, even with fewer threads than
    // indices.
    for (const unsigned threads : {1u, 2u, 4u}) {
        const size_t n = 16;
        std::vector<std::atomic<bool>> done(n);
        parallelFor(
            n,
            [&](size_t i) {
                while (i > 0 && !done[i - 1].load())
                    std::this_thread::yield();
                done[i].store(true);
            },
            threads, /*grain=*/1);
        for (const auto &d : done)
            EXPECT_TRUE(d.load());
    }
}

TEST(ParallelWorkers, MatchesTheLoopsThreadCount)
{
    EXPECT_EQ(parallelWorkers(3, 16), 3u);
    EXPECT_EQ(parallelWorkers(100, 2), 2u);
    EXPECT_EQ(parallelWorkers(1, 0), 1u);
    EXPECT_GE(parallelWorkers(100, 0), 1u);
}

TEST(ParallelForDeathTest, RejectsEmptyBody)
{
    EXPECT_EXIT(parallelFor(1, nullptr), ::testing::ExitedWithCode(1),
                "");
}

} // namespace
} // namespace mhp
