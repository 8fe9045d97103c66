/**
 * @file
 * Tests for the online campaign statistics: the per-metric aggregate
 * (moments, quantile readouts, the chunk fold) and Wilson binomial
 * intervals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/json.hh"
#include "campaign/online_stats.hh"
#include "sim/random.hh"

namespace bpsim
{
namespace
{

TEST(MergingMetric, QuantilesExactForSmallSamples)
{
    MergingMetric m;
    m.add(3.0);
    EXPECT_DOUBLE_EQ(m.p50(), 3.0);
    m.add(1.0);
    EXPECT_DOUBLE_EQ(m.p50(), 2.0); // interpolated median of {1, 3}
    m.add(2.0);
    EXPECT_DOUBLE_EQ(m.p50(), 2.0);
}

TEST(MergingMetric, MedianOfUniformStream)
{
    MergingMetric m;
    Rng rng(42);
    for (int i = 0; i < 100000; ++i)
        m.add(rng.nextDouble());
    EXPECT_NEAR(m.p50(), 0.5, 0.01);
}

TEST(MergingMetric, TailQuantilesOfUniformStream)
{
    MergingMetric m;
    Rng rng(7);
    for (int i = 0; i < 100000; ++i)
        m.add(rng.nextDouble());
    EXPECT_NEAR(m.p95(), 0.95, 0.01);
    EXPECT_NEAR(m.p99(), 0.99, 0.01);
}

TEST(MergingMetric, TracksExponentialTail)
{
    // Heavy-tailed input: P95 of Exp(mean=10) is -10 ln(0.05) ~= 30.
    MergingMetric m;
    Rng rng(11);
    for (int i = 0; i < 200000; ++i)
        m.add(rng.exponential(10.0));
    EXPECT_NEAR(m.p95(), 29.96, 1.0);
}

TEST(MergingMetric, DeterministicForSameSequence)
{
    MergingMetric a, b;
    Rng ra(3), rb(3);
    for (int i = 0; i < 10000; ++i) {
        a.add(ra.nextDouble());
        b.add(rb.nextDouble());
    }
    EXPECT_EQ(a.p95(), b.p95()); // bitwise
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.stddev(), b.stddev());
}

TEST(Wilson, BracketsTheObservedFraction)
{
    const auto ci = wilsonInterval(90, 100);
    EXPECT_DOUBLE_EQ(ci.fraction, 0.9);
    EXPECT_LT(ci.lo, 0.9);
    EXPECT_GT(ci.hi, 0.9);
    EXPECT_NEAR(ci.lo, 0.825, 0.01); // textbook value for 90/100 @95%
    EXPECT_NEAR(ci.hi, 0.944, 0.01);
}

TEST(Wilson, BehavesAtTheBoundaries)
{
    const auto all = wilsonInterval(50, 50);
    EXPECT_DOUBLE_EQ(all.fraction, 1.0);
    EXPECT_DOUBLE_EQ(all.hi, 1.0);
    EXPECT_LT(all.lo, 1.0);
    EXPECT_GT(all.lo, 0.9); // 50/50 is strong evidence

    const auto none = wilsonInterval(0, 50);
    EXPECT_DOUBLE_EQ(none.fraction, 0.0);
    EXPECT_DOUBLE_EQ(none.lo, 0.0);
    EXPECT_GT(none.hi, 0.0);
    EXPECT_LT(none.hi, 0.1);

    const auto empty = wilsonInterval(0, 0);
    EXPECT_DOUBLE_EQ(empty.fraction, 0.0);
    EXPECT_DOUBLE_EQ(empty.lo, 0.0);
    EXPECT_DOUBLE_EQ(empty.hi, 0.0);
}

TEST(Wilson, NarrowsWithMoreTrials)
{
    const auto small = wilsonInterval(9, 10);
    const auto large = wilsonInterval(900, 1000);
    EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(MergingMetric, CombinesMomentsAndQuantiles)
{
    MergingMetric m;
    for (int i = 1; i <= 1000; ++i)
        m.add(static_cast<double>(i));
    EXPECT_EQ(m.count(), 1000u);
    EXPECT_DOUBLE_EQ(m.mean(), 500.5);
    EXPECT_DOUBLE_EQ(m.min(), 1.0);
    EXPECT_DOUBLE_EQ(m.max(), 1000.0);
    EXPECT_NEAR(m.p50(), 500.5, 15.0);
    EXPECT_NEAR(m.p95(), 950.0, 15.0);
    EXPECT_NEAR(m.p99(), 990.0, 15.0);
}

TEST(MergingMetric, MeanCiHalfWidthMatchesFormula)
{
    MergingMetric m;
    for (int i = 0; i < 100; ++i)
        m.add(i % 2 == 0 ? 0.0 : 1.0);
    const double expect = 1.96 * m.stddev() / 10.0;
    EXPECT_DOUBLE_EQ(m.meanCiHalfWidth(), expect);

    MergingMetric one;
    one.add(5.0);
    EXPECT_DOUBLE_EQ(one.meanCiHalfWidth(), 0.0);
}

std::string
stateOf(const MergingMetric &m)
{
    std::ostringstream os;
    JsonWriter w(os);
    m.writeJson(w);
    return os.str();
}

TEST(FlushSchedule, AdvanceCountsDownThenRepeats)
{
    const FlushSchedule s{5, 800};
    EXPECT_EQ(s.advance(0).until, 5u);
    EXPECT_EQ(s.advance(4).until, 1u);
    EXPECT_EQ(s.advance(5).until, 800u);
    EXPECT_EQ(s.advance(805).until, 800u);
    EXPECT_EQ(s.advance(1000).until, 605u);
    EXPECT_EQ(s.advance(1000).every, 800u);
}

TEST(MergingMetric, FoldChunkMatchesAddsWithAndWithoutChunkSums)
{
    // Chunks of every shape: one value, pieces cut at flush points,
    // and more values than a flush cycle. Half the values are zeros,
    // the first one -0.0 and the rest +0.0, on the minimum side
    // (side +1) or the maximum side (side -1). There the digest keeps
    // a singleton centroid, so the bytes show which zero sorts first
    // (sort stability) and which one min() and max() report (the
    // first, as std::min/std::max fold them).
    for (const double side : {1.0, -1.0}) {
        Rng rng(9);
        std::vector<double> xs(6000);
        for (auto &x : xs)
            x = rng.nextU64() % 2 == 0 ? 0.0 : side * rng.exponential(3.0);
        xs[0] = -0.0;
        for (const bool chunkSums : {true, false}) {
            MergingMetric one, chunked;
            for (std::size_t begin = 0; begin < xs.size();) {
                const std::size_t n = std::min<std::size_t>(
                    xs.size() - begin, 1 + rng.nextU64() % 2000);
                MetricChunk c;
                c.prepare(xs.data() + begin, n, chunked.flushSchedule(),
                          chunkSums);
                for (std::size_t i = begin; i < begin + n; ++i) {
                    one.add(xs[i]);
                    if (!chunkSums)
                        chunked.addSums(xs[i]);
                }
                chunked.foldChunk(xs.data() + begin, c);
                ASSERT_EQ(stateOf(chunked), stateOf(one))
                    << "side " << side << " after " << begin + n
                    << " chunk sums " << chunkSums;
                begin += n;
            }
        }
    }
}

} // namespace
} // namespace bpsim
