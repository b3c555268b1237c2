#include <gtest/gtest.h>

#include "fixtures/vector_source.h"

namespace mhp {
namespace {

TEST(VectorSource, ReplaysInOrder)
{
    VectorSource src({{1, 10}, {2, 20}, {3, 30}});
    EXPECT_FALSE(src.done());
    EXPECT_EQ(src.next(), (Tuple{1, 10}));
    EXPECT_EQ(src.next(), (Tuple{2, 20}));
    EXPECT_EQ(src.next(), (Tuple{3, 30}));
    EXPECT_TRUE(src.done());
}

TEST(VectorSource, EmptyIsImmediatelyDone)
{
    VectorSource src({});
    EXPECT_TRUE(src.done());
}

TEST(VectorSource, ResetRewinds)
{
    VectorSource src({{1, 1}, {2, 2}});
    (void)src.next();
    (void)src.next();
    EXPECT_TRUE(src.done());
    src.reset();
    EXPECT_FALSE(src.done());
    EXPECT_EQ(src.next(), (Tuple{1, 1}));
}

TEST(VectorSource, KindAndName)
{
    VectorSource src({}, ProfileKind::Edge, "my-trace");
    EXPECT_EQ(src.kind(), ProfileKind::Edge);
    EXPECT_EQ(src.name(), "my-trace");
    EXPECT_EQ(src.size(), 0u);
}

TEST(VectorSource, PumpIntoSink)
{
    struct CountingSink : EventSink
    {
        uint64_t n = 0;
        void accept(const Tuple &) override { ++n; }
    };

    VectorSource src({{1, 1}, {2, 2}, {3, 3}});
    CountingSink sink;
    EXPECT_EQ(pump(src, sink, 10), 3u);
    EXPECT_EQ(sink.n, 3u);

    src.reset();
    CountingSink sink2;
    EXPECT_EQ(pump(src, sink2, 2), 2u);
    EXPECT_EQ(sink2.n, 2u);
    EXPECT_FALSE(src.done());
}

} // namespace
} // namespace mhp
