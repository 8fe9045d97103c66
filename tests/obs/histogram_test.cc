/**
 * @file
 * Histogram layout, quantile and merge-algebra tests, plus the shard
 * integration invariants: per-shard histogram deltas ride the shard
 * aggregate file next to the counters sidecar, survive a JSON round
 * trip exactly, and merge bit-identically for any shard partition or
 * merge order.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/shard.hh"
#include "core/backup_config.hh"
#include "obs/obs.hh"
#include "sim/random.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

using obs::Histogram;
using obs::HistogramSnapshot;

TEST(HistogramLayout, EdgeValuesLandInSentinelBuckets)
{
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(-1.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(std::nan("")), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1e-30), 0u); // below 2^kMinExp
    EXPECT_EQ(Histogram::bucketIndex(1e300),
              Histogram::kBuckets - 1); // overflow
    EXPECT_EQ(Histogram::bucketIndex(
                  std::numeric_limits<double>::infinity()),
              Histogram::kBuckets - 1);
}

TEST(HistogramLayout, BoundsContainTheirValues)
{
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        // Log-uniform across the whole representable range.
        const double v = std::exp(rng.uniform(std::log(2e-5),
                                              std::log(1e14)));
        const std::uint32_t b = Histogram::bucketIndex(v);
        ASSERT_GT(b, 0u) << v;
        ASSERT_LT(b, Histogram::kBuckets - 1) << v;
        EXPECT_GE(v, Histogram::bucketLowerBound(b)) << v;
        EXPECT_LT(v, Histogram::bucketUpperBound(b)) << v;
    }
}

TEST(HistogramLayout, IndexIsMonotoneAndBoundsTile)
{
    for (std::uint32_t b = 1; b + 1 < Histogram::kBuckets - 1; ++b) {
        // Consecutive buckets share an edge...
        EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(b),
                         Histogram::bucketLowerBound(b + 1));
        // ...and the lower bound maps back to its own bucket.
        EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketLowerBound(b)),
                  b);
    }
}

TEST(HistogramLayout, RelativeBucketWidthIsBounded)
{
    // Log-linear promise: width / lower bound <= 1 / kSubBuckets
    // (with a little slack for the first sub-bucket of each octave).
    for (std::uint32_t b = 1; b < Histogram::kBuckets - 1; ++b) {
        const double lo = Histogram::bucketLowerBound(b);
        const double w = Histogram::bucketUpperBound(b) - lo;
        EXPECT_LE(w / lo, 1.0 / Histogram::kSubBuckets + 1e-12)
            << "bucket " << b;
    }
}

TEST(Histogram, QuantilesTrackTheSample)
{
    Histogram h;
    Rng rng(7);
    std::vector<double> xs(20000);
    for (auto &x : xs) {
        x = rng.exponential(90.0);
        h.record(x);
    }
    EXPECT_EQ(h.count(), xs.size());

    std::sort(xs.begin(), xs.end());
    for (const double q : {0.10, 0.50, 0.90, 0.99}) {
        const double exact =
            xs[static_cast<std::size_t>(q * (xs.size() - 1))];
        const double approx = h.quantile(q);
        // Bucket resolution: 1/kSubBuckets relative error.
        EXPECT_NEAR(approx, exact, exact / Histogram::kSubBuckets + 1e-9)
            << "q=" << q;
    }
}

TEST(Histogram, SnapshotSumIsDerivedFromBuckets)
{
    Histogram h;
    h.record(10.0);
    h.record(10.0);
    h.record(1000.0);
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count(), 3u);
    // sum = counts x midpoints, within bucket resolution of the truth.
    EXPECT_NEAR(s.sum(), 1020.0, 1020.0 / Histogram::kSubBuckets);
}

HistogramSnapshot
randomSnapshot(Rng &rng, int n)
{
    Histogram h;
    for (int i = 0; i < n; ++i)
        h.record(rng.exponential(50.0));
    return h.snapshot();
}

TEST(HistogramMerge, AssociativeCommutativeWithIdentity)
{
    using Map = std::map<std::string, HistogramSnapshot>;
    Rng rng(3);
    const Map a = {{"m", randomSnapshot(rng, 100)},
                   {"only_a", randomSnapshot(rng, 10)}};
    const Map b = {{"m", randomSnapshot(rng, 200)}};
    const Map c = {{"m", randomSnapshot(rng, 50)},
                   {"only_c", randomSnapshot(rng, 5)}};

    // (a + b) + c == a + (b + c)
    Map left = a;
    obs::mergeHistograms(left, b);
    obs::mergeHistograms(left, c);
    Map bc = b;
    obs::mergeHistograms(bc, c);
    Map right = a;
    obs::mergeHistograms(right, bc);
    EXPECT_EQ(left, right);

    // a + b == b + a
    Map ab = a, ba = b;
    obs::mergeHistograms(ab, b);
    obs::mergeHistograms(ba, a);
    EXPECT_EQ(ab, ba);

    // a + {} == a
    Map id = a;
    obs::mergeHistograms(id, Map{});
    EXPECT_EQ(id, a);
}

// ---------------------------------------------------------------------
// Shard integration: histogram deltas ride shard files and merge
// bit-identically for any partition.

constexpr std::uint64_t kSeed = 2014;
constexpr std::uint64_t kTrials = 8;

AnnualCampaignSpec
dgSpec()
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::ThrottleSleep, 5, 0, fromMinutes(4.0),
                      true};
    spec.config = dgSmallPUpsConfig();
    return spec;
}

/** One shard of the DG campaign, recording into a fresh Context. */
ShardResult
runRecordedShard(std::uint64_t index, std::uint64_t count)
{
    obs::Context evidence;
    ShardOptions opts;
    opts.obs = &evidence;
    return runAnnualShard(dgSpec(), shardOf(kSeed, kTrials, index, count),
                          opts);
}

MergedCampaign
runPartitioned(std::uint64_t shard_count, bool reverse_merge)
{
    std::vector<ShardResult> shards;
    for (std::uint64_t i = 0; i < shard_count; ++i)
        shards.push_back(runRecordedShard(i, shard_count));
    if (reverse_merge)
        std::reverse(shards.begin(), shards.end());
    std::string err;
    auto merged = mergeShards(std::move(shards), nullptr, &err);
    EXPECT_TRUE(merged.has_value()) << err;
    return *merged;
}

TEST(ShardHistograms, RideTheShardFileExactly)
{
    const ShardResult shard = runRecordedShard(0, 1);
    ASSERT_FALSE(shard.histograms.empty());
    ASSERT_NE(shard.histograms.find("campaign.trial_downtime_min"),
              shard.histograms.end());
    EXPECT_EQ(shard.histograms.at("campaign.trial_downtime_min").count(),
              kTrials);

    std::ostringstream os;
    writeShardJson(os, shard);
    std::string err;
    const auto back = readShardJson(os.str(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->histograms, shard.histograms);
}

TEST(ShardHistograms, BitIdenticalForAnyPartitionAndMergeOrder)
{
    const auto whole = runPartitioned(1, false);
    ASSERT_FALSE(whole.histograms.empty());
    for (const std::uint64_t parts : {2ull, 4ull}) {
        EXPECT_EQ(runPartitioned(parts, false).histograms,
                  whole.histograms)
            << parts << " shards";
        EXPECT_EQ(runPartitioned(parts, true).histograms,
                  whole.histograms)
            << parts << " shards, reversed merge";
    }
}

TEST(ShardHistograms, OmittedFromFileWhenObsDisabled)
{
    ASSERT_FALSE(obs::enabled());
    const ShardResult shard =
        runAnnualShard(dgSpec(), shardOf(kSeed, 2, 0, 1));
    EXPECT_TRUE(shard.histograms.empty());
    std::ostringstream os;
    writeShardJson(os, shard);
    // Schema v1 bytes: no "histograms" member at all.
    EXPECT_EQ(os.str().find("\"histograms\""), std::string::npos);
}

} // namespace
} // namespace bpsim
