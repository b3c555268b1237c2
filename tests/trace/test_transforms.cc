#include <gtest/gtest.h>

#include "fixtures/vector_source.h"
#include "trace/transforms.h"

namespace mhp {
namespace {

TEST(TakeSource, CapsLength)
{
    VectorSource inner({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
    TakeSource take(inner, 2);
    EXPECT_EQ(take.next(), (Tuple{1, 1}));
    EXPECT_EQ(take.next(), (Tuple{2, 2}));
    EXPECT_TRUE(take.done());
    EXPECT_FALSE(inner.done());
}

TEST(TakeSource, EndsEarlyIfInnerDry)
{
    VectorSource inner({{1, 1}});
    TakeSource take(inner, 100);
    EXPECT_EQ(take.next(), (Tuple{1, 1}));
    EXPECT_TRUE(take.done());
}

TEST(TakeSource, PropagatesKind)
{
    VectorSource inner({}, ProfileKind::Edge);
    TakeSource take(inner, 5);
    EXPECT_EQ(take.kind(), ProfileKind::Edge);
}

TEST(InterleaveSource, DrainsAllInputs)
{
    VectorSource a({{1, 0}, {1, 1}});
    VectorSource b({{2, 0}, {2, 1}, {2, 2}});
    InterleaveSource merged({&a, &b}, {1.0, 1.0}, 42);
    int from_a = 0, from_b = 0;
    while (!merged.done()) {
        const Tuple t = merged.next();
        (t.first == 1 ? from_a : from_b)++;
    }
    EXPECT_EQ(from_a, 2);
    EXPECT_EQ(from_b, 3);
}

TEST(InterleaveSource, WeightsBiasSelection)
{
    std::vector<Tuple> many_a(10000, Tuple{1, 0});
    std::vector<Tuple> many_b(10000, Tuple{2, 0});
    VectorSource a(std::move(many_a));
    VectorSource b(std::move(many_b));
    InterleaveSource merged({&a, &b}, {9.0, 1.0}, 7);
    int from_a = 0;
    for (int i = 0; i < 1000; ++i)
        from_a += merged.next().first == 1 ? 1 : 0;
    // ~900 expected from the 9:1 weighting.
    EXPECT_GT(from_a, 800);
    EXPECT_LT(from_a, 980);
}

TEST(InterleaveSource, IsDeterministicPerSeed)
{
    auto run = [](uint64_t seed) {
        VectorSource a({{1, 0}, {1, 1}, {1, 2}});
        VectorSource b({{2, 0}, {2, 1}, {2, 2}});
        InterleaveSource merged({&a, &b}, {1.0, 1.0}, seed);
        std::vector<Tuple> out;
        while (!merged.done())
            out.push_back(merged.next());
        return out;
    };
    EXPECT_EQ(run(5), run(5));
}

TEST(MapSource, RewritesTuples)
{
    VectorSource inner({{1, 100}, {2, 200}});
    MapSource mapped(inner, [](const Tuple &t) {
        return Tuple{t.first, t.second / 100};
    });
    EXPECT_EQ(mapped.next(), (Tuple{1, 1}));
    EXPECT_EQ(mapped.next(), (Tuple{2, 2}));
    EXPECT_TRUE(mapped.done());
}

TEST(Collect, GathersUpToLimit)
{
    VectorSource src({{1, 1}, {2, 2}, {3, 3}});
    const auto all = collect(src, 100);
    EXPECT_EQ(all.size(), 3u);

    src.reset();
    const auto some = collect(src, 2);
    EXPECT_EQ(some.size(), 2u);
}

} // namespace
} // namespace mhp
