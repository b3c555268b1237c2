#include <gtest/gtest.h>

#include <cstdlib>

#include "support/env.h"

namespace mhp {
namespace {

TEST(Env, DoubleParsing)
{
    ::setenv("MHP_TEST_D", "2.5", 1);
    EXPECT_DOUBLE_EQ(envDouble("MHP_TEST_D", 1.0), 2.5);
    ::setenv("MHP_TEST_D", "garbage", 1);
    EXPECT_DOUBLE_EQ(envDouble("MHP_TEST_D", 1.0), 1.0);
    ::unsetenv("MHP_TEST_D");
    EXPECT_DOUBLE_EQ(envDouble("MHP_TEST_D", 3.0), 3.0);
}

TEST(Env, IntParsing)
{
    ::setenv("MHP_TEST_I", "42", 1);
    EXPECT_EQ(envInt("MHP_TEST_I", 0), 42);
    ::setenv("MHP_TEST_I", "", 1);
    EXPECT_EQ(envInt("MHP_TEST_I", 7), 7);
    ::unsetenv("MHP_TEST_I");
}

TEST(Env, ScaledCountRespectsScaleAndFloor)
{
    ::setenv("MHP_SCALE", "0.5", 1);
    EXPECT_DOUBLE_EQ(experimentScale(), 0.5);
    EXPECT_EQ(scaledCount(100), 50u);
    EXPECT_EQ(scaledCount(1, 10), 10u); // floored at minimum
    ::setenv("MHP_SCALE", "-3", 1);
    EXPECT_DOUBLE_EQ(experimentScale(), 1.0); // nonsense -> 1.0
    ::unsetenv("MHP_SCALE");
    EXPECT_EQ(scaledCount(100), 100u);
}

} // namespace
} // namespace mhp
