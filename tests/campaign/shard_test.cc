/**
 * @file
 * Tests for the distributed sharding layer: the acceptance gate is
 * that merging 1, 2, 7 or 16 shard runs of the same campaign yields
 * bit-identical counts, means, CIs and Wilson intervals, quantiles
 * within the t-digest rank-error budget, an identical early-stop
 * replay, and a byte-stable on-disk format (golden fixture).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/shard.hh"
#include "core/backup_config.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

/** Same cheap scenario campaign_test.cc uses. */
AnnualCampaignSpec
testSpec()
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = noDgConfig();
    return spec;
}

constexpr std::uint64_t kSeed = 99;
constexpr std::uint64_t kTrials = 64;

/** Run the test campaign as @p count shards and merge. */
MergedCampaign
runSharded(std::uint64_t count, std::uint64_t checkpoint_every = 0,
           const EarlyStopRule *rule = nullptr)
{
    std::vector<ShardResult> shards;
    ShardOptions opts;
    opts.checkpointEvery = checkpoint_every;
    for (std::uint64_t i = 0; i < count; ++i)
        shards.push_back(runAnnualShard(
            testSpec(), shardOf(kSeed, kTrials, i, count), opts));
    // Merge in reverse order: the result must not care.
    std::reverse(shards.begin(), shards.end());
    std::string err;
    const auto merged = mergeShards(std::move(shards), rule, &err);
    EXPECT_TRUE(merged.has_value()) << err;
    return *merged;
}

/** Every merged field that must be bitwise shard-count invariant. */
std::vector<double>
fingerprint(const MergedCampaign &m)
{
    std::vector<double> f;
    f.push_back(static_cast<double>(m.trials));
    f.push_back(static_cast<double>(m.lossFreeTrials));
    for (const MergingMetric *metric :
         {&m.downtimeMin, &m.lossesPerYear, &m.meanPerf, &m.batteryKwh,
          &m.worstGapMin}) {
        f.push_back(static_cast<double>(metric->count()));
        f.push_back(metric->mean());
        f.push_back(metric->variance());
        f.push_back(metric->meanCiHalfWidth());
        f.push_back(metric->min());
        f.push_back(metric->max());
    }
    f.push_back(m.lossFree.fraction);
    f.push_back(m.lossFree.lo);
    f.push_back(m.lossFree.hi);
    return f;
}

TEST(ShardSpec, BalancedContiguousPartition)
{
    for (const std::uint64_t count : {1u, 2u, 7u, 16u, 63u, 64u}) {
        std::uint64_t next = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            const ShardSpec s = shardOf(kSeed, kTrials, i, count);
            EXPECT_EQ(s.lo, next);
            EXPECT_GE(s.width(), kTrials / count);
            EXPECT_LE(s.width(), kTrials / count + 1);
            EXPECT_EQ(s.seed, kSeed);
            EXPECT_EQ(s.campaignTrials, kTrials);
            EXPECT_EQ(s.shardIndex, i);
            EXPECT_EQ(s.shardCount, count);
            next = s.hi;
        }
        EXPECT_EQ(next, kTrials);
    }
}

TEST(ShardMerge, BitIdenticalForAnyShardCount)
{
    const auto baseline = fingerprint(runSharded(1));
    ASSERT_FALSE(baseline.empty());
    EXPECT_GT(baseline[0], 0.0);
    for (const std::uint64_t count : {2u, 7u, 16u}) {
        const auto f = fingerprint(runSharded(count));
        ASSERT_EQ(f.size(), baseline.size());
        for (std::size_t i = 0; i < f.size(); ++i)
            EXPECT_EQ(f[i], baseline[i])
                << "field " << i << " differs at " << count << " shards";
    }
}

TEST(ShardMerge, QuantilesWithinDigestToleranceOfExact)
{
    // Width-1 shards expose the exact per-trial downtime values
    // (each singleton's mean IS the trial's observation).
    std::vector<double> exact;
    for (std::uint64_t i = 0; i < kTrials; ++i) {
        const auto s =
            runAnnualShard(testSpec(), shardOf(kSeed, kTrials, i, kTrials));
        EXPECT_EQ(s.trials, 1u);
        exact.push_back(s.downtimeMin.mean());
    }
    std::sort(exact.begin(), exact.end());

    for (const std::uint64_t count : {1u, 16u}) {
        const MergedCampaign m = runSharded(count);
        for (const double q : {0.50, 0.95, 0.99}) {
            const double est = m.downtimeMin.quantile(q);
            // Empirical rank of the estimate (mid-rank for ties).
            const double lo = static_cast<double>(
                std::lower_bound(exact.begin(), exact.end(), est) -
                exact.begin());
            const double hi = static_cast<double>(
                std::upper_bound(exact.begin(), exact.end(), est) -
                exact.begin());
            const double rank =
                0.5 * (lo + hi) / static_cast<double>(exact.size());
            // n=64 with delta=100 keeps every point its own centroid,
            // so rank error is dominated by interpolation: allow one
            // rank position either way.
            EXPECT_NEAR(rank, q, 1.5 / static_cast<double>(kTrials))
                << "q=" << q << " at " << count << " shards";
        }
        EXPECT_EQ(m.downtimeMin.quantile(0.0), exact.front());
        EXPECT_EQ(m.downtimeMin.quantile(1.0), exact.back());
    }
}

TEST(ShardMerge, EarlyStopReplayIsShardCountInvariant)
{
    EarlyStopRule rule;
    rule.minTrials = 16;
    rule.ciRelTol = 0.25; // loose enough to fire inside 64 trials
    const MergedCampaign base = runSharded(1, 1, &rule);
    for (const std::uint64_t count : {2u, 7u, 16u}) {
        const MergedCampaign m = runSharded(count, 1, &rule);
        EXPECT_EQ(m.earlyStop.fired, base.earlyStop.fired);
        EXPECT_EQ(m.earlyStop.stopTrial, base.earlyStop.stopTrial);
        EXPECT_EQ(m.earlyStop.halfWidth, base.earlyStop.halfWidth);
        EXPECT_EQ(m.earlyStop.mean, base.earlyStop.mean);
    }
}

TEST(ShardMerge, EarlyStopReplayMatchesSingleMachineRule)
{
    // The coordinator replay at checkpointEvery=1 must agree with the
    // live single-machine early stop on where to cut the campaign.
    EarlyStopRule rule;
    rule.minTrials = 16;
    rule.ciRelTol = 0.25;

    AnnualCampaignOptions opts;
    opts.maxTrials = kTrials;
    opts.seed = kSeed;
    opts.minTrials = rule.minTrials;
    opts.ciRelTol = rule.ciRelTol;
    const auto live = runAnnualCampaign(testSpec(), opts);

    const MergedCampaign replay = runSharded(4, 1, &rule);
    EXPECT_EQ(replay.earlyStop.fired, live.stoppedEarly);
    if (live.stoppedEarly) {
        EXPECT_EQ(replay.earlyStop.stopTrial, live.trials);
    }
}

TEST(ShardIo, RoundTripIsLossless)
{
    ShardOptions opts;
    opts.checkpointEvery = 4;
    const ShardResult out =
        runAnnualShard(testSpec(), shardOf(kSeed, kTrials, 1, 7), opts);

    std::ostringstream os;
    writeShardJson(os, out);
    std::string err;
    const auto back = readShardJson(os.str(), &err);
    ASSERT_TRUE(back.has_value()) << err;

    // Re-serialization must be byte-identical (canonical format).
    std::ostringstream os2;
    writeShardJson(os2, *back);
    EXPECT_EQ(os.str(), os2.str());

    EXPECT_EQ(back->spec.lo, out.spec.lo);
    EXPECT_EQ(back->spec.hi, out.spec.hi);
    EXPECT_EQ(back->trials, out.trials);
    EXPECT_EQ(back->lossFreeTrials, out.lossFreeTrials);
    EXPECT_EQ(back->checkpoints.size(), out.checkpoints.size());
    EXPECT_EQ(back->downtimeMin.mean(), out.downtimeMin.mean());
    EXPECT_EQ(back->downtimeMin.meanCiHalfWidth(),
              out.downtimeMin.meanCiHalfWidth());
    EXPECT_EQ(back->downtimeMin.p99(), out.downtimeMin.p99());
}

/**
 * The golden shard: synthetic, with dyadic-rational observations (so
 * every double prints exactly) and a pinned build string — any change
 * to the serialized bytes is a schema change and must bump
 * kShardSchemaVersion plus regenerate the fixture
 * (BPSIM_WRITE_FIXTURES=1 ./shard_test).
 */
ShardResult
goldenShard()
{
    ShardResult r;
    r.spec.seed = 7;
    r.spec.campaignTrials = 4;
    r.spec.lo = 0;
    r.spec.hi = 2;
    r.spec.shardIndex = 0;
    r.spec.shardCount = 2;
    r.trials = 2;
    const double d0 = 1.5, d1 = 2.25;
    r.downtimeMin.add(d0);
    r.downtimeMin.add(d1);
    r.lossesPerYear.add(0.0);
    r.lossesPerYear.add(1.0);
    r.meanPerf.add(0.875);
    r.meanPerf.add(0.75);
    r.batteryKwh.add(12.5);
    r.batteryKwh.add(0.0);
    r.worstGapMin.add(0.0);
    r.worstGapMin.add(8.125);
    r.lossFreeTrials = 1;
    ShardCheckpoint c0;
    c0.trials = 1;
    c0.sum.add(d0);
    c0.sumSq.add(d0 * d0);
    r.checkpoints = {c0};
    r.build = "golden-fixture";
    return r;
}

TEST(ShardIo, GoldenFileIsByteStable)
{
    const std::string path =
        std::string(BPSIM_FIXTURE_DIR) + "/shard_v2.json";
    std::ostringstream os;
    writeShardJson(os, goldenShard());

    if (std::getenv("BPSIM_WRITE_FIXTURES") != nullptr) {
        std::ofstream f(path);
        ASSERT_TRUE(f.good()) << path;
        f << os.str();
        GTEST_SKIP() << "fixture regenerated: " << path;
    }

    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << "missing fixture " << path;
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(os.str(), want.str())
        << "shard schema drifted: bump kShardSchemaVersion and "
           "regenerate with BPSIM_WRITE_FIXTURES=1";

    // And the committed fixture parses back to the same aggregates.
    std::string err;
    const auto back = readShardJson(want.str(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->downtimeMin.mean(), goldenShard().downtimeMin.mean());
    EXPECT_EQ(back->build, "golden-fixture");
}

TEST(ShardIo, LegacyFileWithoutIncidentsParsesAndMerges)
{
    // Shard files from uninstrumented runs carry no "incidents" key.
    // They keep the plain schema-v2 bytes (the golden test above pins
    // that), parse back with an empty aggregate, and merge cleanly
    // with shards that do carry forensics.
    std::ostringstream os;
    writeShardJson(os, goldenShard());
    const std::string text = os.str();
    ASSERT_EQ(text.find("\"incidents\""), std::string::npos)
        << "uninstrumented shard files must not grow an incidents key";

    std::string err;
    const auto legacy = readShardJson(text, &err);
    ASSERT_TRUE(legacy.has_value()) << err;
    EXPECT_TRUE(legacy->incidents.empty());

    // The other half of the same campaign, written by a newer binary
    // with forensics enabled.
    ShardResult upper = goldenShard();
    upper.spec.lo = 2;
    upper.spec.hi = 4;
    upper.spec.shardIndex = 1;
    upper.checkpoints.clear();
    obs::TrialForensics t;
    t.trial = 2;
    t.reportedDowntimeMin = 1.5;
    t.attributedMin[static_cast<std::size_t>(
        obs::RootCause::CapacityShortfall)] = 1.5;
    t.hasTrialEnd = true;
    upper.incidents.addTrial(t);

    std::ostringstream os2;
    writeShardJson(os2, upper);
    EXPECT_NE(os2.str().find("\"incidents\""), std::string::npos);
    const auto newer = readShardJson(os2.str(), &err);
    ASSERT_TRUE(newer.has_value()) << err;

    const auto merged = mergeShards({*legacy, *newer}, nullptr, &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(merged->trials, 4u);
    EXPECT_EQ(merged->incidents.trials(), 1u);
    EXPECT_DOUBLE_EQ(merged->incidents.attributedTotalMin(), 1.5);
}

TEST(ShardIo, RejectsForeignSchema)
{
    std::ostringstream os;
    writeShardJson(os, goldenShard());
    std::string text = os.str();

    // Not JSON at all.
    std::string err;
    EXPECT_FALSE(readShardJson("{oops", &err).has_value());
    EXPECT_FALSE(err.empty());

    // Wrong schema name.
    std::string renamed = text;
    const auto name_at = renamed.find(kShardSchemaName);
    ASSERT_NE(name_at, std::string::npos);
    renamed.replace(name_at, std::string(kShardSchemaName).size(),
                    "someone.elses.schema");
    EXPECT_FALSE(readShardJson(renamed, &err).has_value());

    // Future schema version.
    std::string bumped = text;
    const std::string ver =
        "\"schema_version\":" + std::to_string(kShardSchemaVersion);
    const auto ver_at = bumped.find(ver);
    ASSERT_NE(ver_at, std::string::npos);
    bumped.replace(ver_at, ver.size(), "\"schema_version\":999");
    EXPECT_FALSE(readShardJson(bumped, &err).has_value());
    EXPECT_NE(err.find("version"), std::string::npos);
}

TEST(ShardIo, RejectsTruncatedAndIncompleteFilesWithoutAsserting)
{
    ShardOptions opts;
    opts.checkpointEvery = 4;
    ShardResult shard =
        runAnnualShard(testSpec(), shardOf(kSeed, kTrials, 1, 4), opts);
    shard.counters["campaign.trials"] = shard.trials;
    shard.histograms["campaign.trial_downtime_min"].buckets[3] = 2;
    std::ostringstream os;
    writeShardJson(os, shard);
    const std::string good = os.str();
    ASSERT_TRUE(readShardJson(good).has_value());

    // Every 8-byte truncation: a parse error or a missing member,
    // reported, never an abort.
    for (std::size_t len = 0; len < good.size(); len += 8) {
        std::string err;
        EXPECT_FALSE(readShardJson(good.substr(0, len), &err).has_value())
            << len;
        EXPECT_FALSE(err.empty()) << len;
    }

    // Parseable documents that lack members.
    for (const std::string &doc :
         {"{\"schema\":\"bpsim.campaign.shard\",\"schema_version\":" +
              std::to_string(kShardSchemaVersion) + ",\"seed\":1}",
          std::string("[]"), std::string("7")}) {
        std::string err;
        EXPECT_FALSE(readShardJson(doc, &err).has_value()) << doc;
        EXPECT_FALSE(err.empty()) << doc;
    }
}

TEST(ShardMerge, RejectsInconsistentShardSets)
{
    auto run = [](std::uint64_t seed, std::uint64_t trials,
                  std::uint64_t i, std::uint64_t n) {
        return runAnnualShard(testSpec(), shardOf(seed, trials, i, n));
    };
    const auto a = run(kSeed, 8, 0, 2);
    const auto b = run(kSeed, 8, 1, 2);

    std::string err;
    // Complete set is fine.
    EXPECT_TRUE(mergeShards({a, b}, nullptr, &err).has_value()) << err;
    // Missing shard -> gap.
    EXPECT_FALSE(mergeShards({a}, nullptr, &err).has_value());
    // Duplicate shard -> overlap.
    EXPECT_FALSE(mergeShards({a, a, b}, nullptr, &err).has_value());
    // Seed mismatch.
    const auto foreign = run(kSeed + 1, 8, 1, 2);
    EXPECT_FALSE(mergeShards({a, foreign}, nullptr, &err).has_value());
    EXPECT_FALSE(err.empty());
    // Campaign-size mismatch.
    const auto other_n = run(kSeed, 12, 1, 2);
    EXPECT_FALSE(mergeShards({a, other_n}, nullptr, &err).has_value());
    // Empty input.
    EXPECT_FALSE(mergeShards({}, nullptr, &err).has_value());
}

TEST(ShardRun, ThreadCountDoesNotChangeAggregates)
{
    ShardOptions serial;
    serial.threads = 1;
    ShardOptions wide;
    wide.threads = 8;
    const auto spec = shardOf(kSeed, 32, 0, 1);
    const auto a = runAnnualShard(testSpec(), spec, serial);
    const auto b = runAnnualShard(testSpec(), spec, wide);
    EXPECT_EQ(a.downtimeMin.mean(), b.downtimeMin.mean());
    EXPECT_EQ(a.downtimeMin.variance(), b.downtimeMin.variance());
    EXPECT_EQ(a.downtimeMin.p99(), b.downtimeMin.p99());
    EXPECT_EQ(a.lossFreeTrials, b.lossFreeTrials);
}

} // namespace
} // namespace bpsim
