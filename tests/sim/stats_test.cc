/**
 * @file
 * Tests for SummaryStats.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace bpsim
{
namespace
{

// Pins the documented empty-state contract: EVERY accessor of an
// empty collector returns exactly 0 (not NaN, not a sentinel), so
// zero-trial shards and empty analyzer windows serialize cleanly.
TEST(SummaryStats, EmptyIsAllZero)
{
    SummaryStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(SummaryStats, SingleSample)
{
    SummaryStats s;
    s.add(4.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 4.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(SummaryStats, KnownMoments)
{
    SummaryStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0); // classic textbook example
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStats, NegativeValues)
{
    SummaryStats s;
    s.add(-3.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

} // namespace
} // namespace bpsim
