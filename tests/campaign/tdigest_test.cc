/**
 * @file
 * Property tests for the t-digest quantile sketch: rank-error bounds
 * against exact order statistics on uniform/lognormal/bimodal data,
 * merge associativity (approximate), determinism, and bitwise JSON
 * round-tripping — the guarantees the shard merge layer leans on —
 * and bit-identity of presorted runs (addRun) with single adds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/json.hh"
#include "campaign/tdigest.hh"
#include "sim/random.hh"

namespace bpsim
{
namespace
{

/** Exact quantile of a sorted sample (nearest-rank interpolation). */
double
exactQuantile(const std::vector<double> &sorted, double q)
{
    const double pos = q * (static_cast<double>(sorted.size()) - 1.0);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/** Empirical rank of `x` in the sorted sample (mid-rank). */
double
rankOf(const std::vector<double> &sorted, double x)
{
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), x);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), x);
    const double mid =
        0.5 * (static_cast<double>(lo - sorted.begin()) +
               static_cast<double>(hi - sorted.begin()));
    return mid / static_cast<double>(sorted.size());
}

std::vector<double>
sampleUniform(std::uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = rng.uniform(-5.0, 12.0);
    return xs;
}

std::vector<double>
sampleLognormal(std::uint64_t seed, int n)
{
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = std::exp(rng.gaussian(0.0, 1.5));
    return xs;
}

std::vector<double>
sampleBimodal(std::uint64_t seed, int n)
{
    // Two well-separated modes — the shape annual downtime takes when
    // most years are loss-free and a few see multi-hour outages.
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = rng.nextDouble() < 0.8 ? rng.gaussian(2.0, 0.5)
                                   : rng.gaussian(400.0, 60.0);
    return xs;
}

/**
 * Assert the digest's quantile estimates stay within a rank-error
 * budget of the exact order statistics. The k1 scale function bounds
 * rank error by O(q(1-q)/delta); `budget` is the allowed |rank(est) -
 * q| at the checked quantiles, generous enough to be robust across
 * sample shapes.
 */
void
expectRankAccurate(const TDigest &td, std::vector<double> sorted,
                   double budget)
{
    std::sort(sorted.begin(), sorted.end());
    for (const double q :
         {0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
        const double est = td.quantile(q);
        const double r = rankOf(sorted, est);
        EXPECT_NEAR(r, q, budget)
            << "q=" << q << " est=" << est
            << " exact=" << exactQuantile(sorted, q);
    }
    // Extremes are anchored exactly.
    EXPECT_EQ(td.quantile(0.0), sorted.front());
    EXPECT_EQ(td.quantile(1.0), sorted.back());
}

TDigest
digestOf(const std::vector<double> &xs, double compression = 100.0)
{
    TDigest td(compression);
    for (const double x : xs)
        td.add(x);
    return td;
}

TEST(TDigest, EmptyAndSingleton)
{
    TDigest td;
    EXPECT_EQ(td.count(), 0u);
    EXPECT_EQ(td.quantile(0.5), 0.0); // documented empty behaviour
    td.add(7.25);
    EXPECT_EQ(td.count(), 1u);
    EXPECT_EQ(td.quantile(0.0), 7.25);
    EXPECT_EQ(td.quantile(0.5), 7.25);
    EXPECT_EQ(td.quantile(1.0), 7.25);
}

TEST(TDigest, SmallSamplesAreExact)
{
    // Fewer samples than centroids: every point is its own centroid,
    // so the median interpolates the true order statistics.
    TDigest td;
    for (const double x : {1.0, 2.0, 3.0, 4.0})
        td.add(x);
    EXPECT_EQ(td.quantile(0.0), 1.0);
    EXPECT_EQ(td.quantile(1.0), 4.0);
    EXPECT_NEAR(td.quantile(0.5), 2.5, 1e-12);
}

TEST(TDigest, RankErrorUniform)
{
    const auto xs = sampleUniform(21, 10000);
    auto sorted = xs;
    expectRankAccurate(digestOf(xs), sorted, 0.012);
}

TEST(TDigest, RankErrorLognormal)
{
    const auto xs = sampleLognormal(22, 10000);
    expectRankAccurate(digestOf(xs), xs, 0.012);
}

TEST(TDigest, RankErrorBimodal)
{
    const auto xs = sampleBimodal(23, 10000);
    expectRankAccurate(digestOf(xs), xs, 0.012);
}

TEST(TDigest, CompressionBoundsCentroidCount)
{
    const auto xs = sampleLognormal(3, 50000);
    for (const double delta : {50.0, 100.0, 200.0}) {
        const TDigest td = digestOf(xs, delta);
        // Dunning's bound: at most ~2*delta centroids after flush.
        EXPECT_LE(td.centroids().size(),
                  static_cast<std::size_t>(2.0 * delta) + 2)
            << "delta=" << delta;
        EXPECT_EQ(td.count(), xs.size());
    }
}

TEST(TDigest, DeterministicForSameSequence)
{
    const auto xs = sampleBimodal(5, 20000);
    const TDigest a = digestOf(xs);
    const TDigest b = digestOf(xs);
    ASSERT_EQ(a.centroids().size(), b.centroids().size());
    for (std::size_t i = 0; i < a.centroids().size(); ++i) {
        EXPECT_EQ(a.centroids()[i].mean, b.centroids()[i].mean);
        EXPECT_EQ(a.centroids()[i].weight, b.centroids()[i].weight);
    }
}

TEST(TDigest, MergePreservesCountMinMax)
{
    const auto xs = sampleLognormal(9, 6000);
    TDigest merged;
    // Merge in 6 uneven chunks.
    std::size_t i = 0;
    for (const std::size_t len : {100u, 900u, 2000u, 1500u, 1400u, 100u}) {
        TDigest part;
        for (std::size_t j = i; j < i + len; ++j)
            part.add(xs[j]);
        merged.merge(part);
        i += len;
    }
    ASSERT_EQ(i, xs.size());
    EXPECT_EQ(merged.count(), xs.size());
    auto sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(merged.min(), sorted.front());
    EXPECT_EQ(merged.max(), sorted.back());
}

TEST(TDigest, MergeIsRankAccurateForAnyPartitioning)
{
    // The sharding guarantee: whatever way trials are split across
    // shards, the merged digest answers quantiles within the same
    // rank-error budget as the unsharded one.
    const auto xs = sampleBimodal(31, 10000);
    for (const int shards : {1, 2, 7, 16}) {
        TDigest merged;
        const std::size_t per =
            (xs.size() + static_cast<std::size_t>(shards) - 1) /
            static_cast<std::size_t>(shards);
        for (int s = 0; s < shards; ++s) {
            TDigest part;
            const std::size_t lo = static_cast<std::size_t>(s) * per;
            const std::size_t hi = std::min(lo + per, xs.size());
            for (std::size_t j = lo; j < hi; ++j)
                part.add(xs[j]);
            merged.merge(part);
        }
        expectRankAccurate(merged, xs, 0.02);
    }
}

TEST(TDigest, MergeAssociativityApproximate)
{
    // (A + B) + C vs A + (B + C): centroids differ, but quantile
    // answers must agree to within the rank-error budget.
    const auto a_xs = sampleUniform(41, 4000);
    const auto b_xs = sampleLognormal(42, 4000);
    const auto c_xs = sampleBimodal(43, 4000);
    const TDigest a = digestOf(a_xs), b = digestOf(b_xs),
                  c = digestOf(c_xs);

    TDigest left = a;
    left.merge(b);
    left.merge(c);
    TDigest bc = b;
    bc.merge(c);
    TDigest right = a;
    right.merge(bc);

    std::vector<double> all;
    all.insert(all.end(), a_xs.begin(), a_xs.end());
    all.insert(all.end(), b_xs.begin(), b_xs.end());
    all.insert(all.end(), c_xs.begin(), c_xs.end());
    std::sort(all.begin(), all.end());

    EXPECT_EQ(left.count(), right.count());
    for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
        const double rl = rankOf(all, left.quantile(q));
        const double rr = rankOf(all, right.quantile(q));
        EXPECT_NEAR(rl, q, 0.02) << "left q=" << q;
        EXPECT_NEAR(rr, q, 0.02) << "right q=" << q;
    }
}

TEST(TDigest, JsonRoundTripIsBitwise)
{
    const auto xs = sampleLognormal(17, 8000);
    const TDigest td = digestOf(xs);

    std::ostringstream os;
    {
        JsonWriter w(os);
        td.writeJson(w);
    }
    const auto parsed = parseJson(os.str());
    ASSERT_TRUE(parsed.has_value());
    const TDigest back = TDigest::fromJson(*parsed);

    EXPECT_EQ(back.count(), td.count());
    EXPECT_EQ(back.compression(), td.compression());
    EXPECT_EQ(back.min(), td.min());
    EXPECT_EQ(back.max(), td.max());
    ASSERT_EQ(back.centroids().size(), td.centroids().size());
    for (std::size_t i = 0; i < td.centroids().size(); ++i) {
        EXPECT_EQ(back.centroids()[i].mean, td.centroids()[i].mean);
        EXPECT_EQ(back.centroids()[i].weight, td.centroids()[i].weight);
    }
    for (const double q : {0.01, 0.5, 0.95, 0.99})
        EXPECT_EQ(back.quantile(q), td.quantile(q));
}

TEST(TDigest, WeightedAdds)
{
    // add(x, w) counts w observations and stays rank-accurate against
    // the expanded sample (exact cluster boundaries may differ from w
    // singleton adds, so equivalence is statistical, not bitwise).
    Rng rng(55);
    TDigest td;
    std::vector<double> expanded;
    for (int i = 0; i < 3000; ++i) {
        const double x = rng.exponential(20.0);
        const double w = 1.0 + static_cast<double>(rng.nextU64() % 4);
        td.add(x, w);
        for (int j = 0; j < static_cast<int>(w); ++j)
            expanded.push_back(x);
    }
    EXPECT_EQ(td.count(), expanded.size());
    expectRankAccurate(td, expanded, 0.012);
}

/** Both serializations of @p td: exact state, then flushed. */
std::string
bytesOf(const TDigest &td)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginArray();
    td.writeStateJson(w);
    td.writeJson(w);
    w.endArray();
    return os.str();
}

/**
 * Values with many exact ties, both zeros among them. With @p side
 * +1 every value is >= 0 and with -1 every value is <= 0, so the
 * zeros are the minimum or the maximum: there the digest keeps a
 * singleton centroid, and which zero sorts first or last (sort
 * stability) and which one min()/max() report (std::min/std::max's
 * leftmost choice) show in the bytes. Side 0 mixes signs.
 */
std::vector<double>
tiedSample(std::uint64_t seed, std::size_t n, int side = 0)
{
    Rng rng(seed);
    const double pool[] = {-0.0, 0.0, 1.0, 2.5, -3.0, 1e-300, 7.0};
    std::vector<double> xs(n);
    for (auto &x : xs) {
        const std::uint64_t k = rng.nextU64() % 10;
        x = k < 7 ? pool[k] : rng.uniform(-5.0, 12.0);
        if (side != 0 && x != 0.0)
            x = side * std::abs(x);
    }
    return xs;
}

/**
 * Feed xs[0, n) to @p td as runs of random lengths up to 2000, so most
 * runs cross one or more flushes, each with the stable permutation a
 * worker computes. Every other run keeps only a prefix of the values
 * its permutation covers, as a stop part-way through a chunk leaves
 * it; the next run starts right after the kept prefix.
 */
void
addAsRuns(TDigest &td, const double *xs, std::size_t n, Rng &rng)
{
    for (std::size_t begin = 0; begin < n;) {
        const std::size_t kept = std::min(
            n - begin, static_cast<std::size_t>(1 + rng.nextU64() % 2000));
        const std::size_t extra =
            rng.nextU64() % 2 == 0 ? 0 : rng.nextU64() % 300;
        const std::size_t length = std::min(n - begin, kept + extra);
        std::vector<std::uint16_t> order(length);
        std::iota(order.begin(), order.end(), std::uint16_t{0});
        const double *run = xs + begin;
        std::stable_sort(order.begin(), order.end(),
                         [run](std::uint16_t a, std::uint16_t b) {
                             return run[a] < run[b];
                         });
        td.addRun(run, order.data(), length, kept);
        begin += kept;
    }
}

TEST(TDigestRuns, MatchSingleAddsAtEveryFlushOffset)
{
    // Each pre-fill puts the first run at a different buffer offset,
    // so runs end at, just before and just after every flush point.
    const std::vector<double> sides[] = {
        tiedSample(3, 1800, 0), tiedSample(4, 1800, 1),
        tiedSample(5, 1800, -1)};
    for (std::size_t fill = 0; fill < 800; ++fill) {
        const std::vector<double> &xs = sides[fill % 3];
        TDigest one, runs;
        for (std::size_t i = 0; i < fill; ++i) {
            one.add(xs[i]);
            runs.add(xs[i]);
        }
        for (std::size_t i = fill; i < xs.size(); ++i)
            one.add(xs[i]);
        Rng rng(fill);
        addAsRuns(runs, xs.data() + fill, xs.size() - fill, rng);
        ASSERT_EQ(bytesOf(runs), bytesOf(one)) << "pre-fill " << fill;
    }
}

TEST(TDigestRuns, MatchSingleAddsRunByRun)
{
    // The unflushed state matches after every run, not only at the end.
    for (const int side : {0, 1, -1}) {
        const auto xs = tiedSample(8, 5000, side);
        TDigest one, runs;
        Rng rng(8);
        for (std::size_t begin = 0; begin < xs.size();) {
            const std::size_t len =
                std::min(xs.size() - begin,
                         static_cast<std::size_t>(1 + rng.nextU64() % 2500));
            for (std::size_t i = begin; i < begin + len; ++i)
                one.add(xs[i]);
            addAsRuns(runs, xs.data() + begin, len, rng);
            ASSERT_EQ(bytesOf(runs), bytesOf(one))
                << "side " << side << " after " << begin + len;
            begin += len;
        }
    }
}

TEST(TDigestRuns, MatchSingleAddsAfterARestoredPartialBuffer)
{
    const auto xs = tiedSample(21, 3000, 1);
    TDigest one;
    for (std::size_t i = 0; i < 1234; ++i)
        one.add(xs[i]);
    std::ostringstream os;
    {
        JsonWriter w(os);
        one.writeStateJson(w);
    }
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    auto runs = TDigest::fromStateJson(*doc);
    ASSERT_TRUE(runs.has_value());
    for (std::size_t i = 1234; i < xs.size(); ++i)
        one.add(xs[i]);
    Rng rng(21);
    addAsRuns(*runs, xs.data() + 1234, xs.size() - 1234, rng);
    EXPECT_EQ(bytesOf(*runs), bytesOf(one));
}

TEST(TDigestRuns, MatchSingleAddsAfterAMerge)
{
    // merge() leaves weighted centroids in the buffer, so the next
    // flush merges runs with a sorted range of unequal weights.
    const auto xs = tiedSample(34, 4000, -1);
    for (const std::size_t split : {300, 799, 1234}) {
        TDigest head, other;
        for (std::size_t i = 0; i < split; ++i)
            head.add(xs[i]);
        for (std::size_t i = split; i < 2 * split; ++i)
            other.add(xs[i]);
        head.merge(other);
        TDigest one = head, runs = head;
        for (std::size_t i = 2 * split; i < xs.size(); ++i)
            one.add(xs[i]);
        Rng rng(split);
        addAsRuns(runs, xs.data() + 2 * split, xs.size() - 2 * split, rng);
        EXPECT_EQ(bytesOf(runs), bytesOf(one)) << "split " << split;
    }
}

} // namespace
} // namespace bpsim
