/**
 * @file
 * Campaign checkpoint tests: extending a checkpointed K-trial campaign
 * to M trials must be bit-identical to running M trials fresh — at the
 * summary-JSON layer, at the serialized-checkpoint layer (exact sums,
 * t-digest centroids AND unflushed buffer, obs deltas), across
 * mismatched batch sizes and thread counts on either side of the
 * boundary, and through the early-stop rule including the masked
 * budget-boundary stop. A checkpoint is the shard file of its trials
 * [0, K) and merges like one. The defensive reader must turn every
 * malformed document into nullopt, never an assert.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/checkpoint.hh"
#include "campaign/json.hh"
#include "campaign/shard.hh"
#include "core/backup_config.hh"
#include "obs/context.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

constexpr std::uint64_t kSeed = 2014;

AnnualCampaignSpec
testSpec()
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = minCostConfig();
    return spec;
}

AnnualCampaignOptions
fixedOpts(std::uint64_t trials, std::uint64_t batch = 0, int threads = 1)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = trials;
    opts.seed = kSeed;
    opts.threads = threads;
    opts.batch = batch;
    return opts;
}

std::string
summaryJson(const AnnualCampaignSummary &s)
{
    std::ostringstream os;
    CampaignJsonOptions jopts;
    jopts.includeTiming = false;
    writeCampaignJson(os, s, jopts);
    return os.str();
}

std::string
checkpointJson(const CampaignCheckpoint &c)
{
    std::ostringstream os;
    writeCheckpointJson(os, c);
    return os.str();
}

/** runResumableCampaign recording into a fresh obs::Context. */
ResumableOutcome
runRecorded(const AnnualCampaignSpec &spec, AnnualCampaignOptions opts,
            const CampaignCheckpoint *from)
{
    obs::Context evidence;
    opts.obs = &evidence;
    return runResumableCampaign(spec, opts, from);
}

TEST(CampaignCheckpoint, ExtensionMatchesFreshRunBitExactly)
{
    const auto spec = testSpec();
    constexpr std::uint64_t kK = 40, kM = 96;
    const std::string fresh =
        summaryJson(runAnnualCampaign(spec, fixedOpts(kM)));

    // Producing batch/threads and extending batch/threads are all
    // free parameters; every combination must land on the same bytes.
    for (const std::uint64_t b1 : {0ULL, 8ULL}) {
        for (const std::uint64_t b2 : {0ULL, 8ULL}) {
            for (const int threads : {1, 4}) {
                const auto base = runResumableCampaign(
                    spec, fixedOpts(kK, b1, threads), nullptr);
                EXPECT_EQ(base.executedTrials, kK);
                auto opts = fixedOpts(kM, b2, threads);
                const auto ext =
                    runResumableCampaign(spec, opts, &base.checkpoint);
                EXPECT_EQ(ext.executedTrials, kM - kK);
                EXPECT_EQ(summaryJson(ext.summary), fresh)
                    << "b1=" << b1 << " b2=" << b2
                    << " threads=" << threads;
            }
        }
    }
}

TEST(CampaignCheckpoint, CheckpointOfExtensionMatchesFreshCheckpoint)
{
    // The whole checkpoint document — metric internals, obs counter /
    // histogram / incident deltas — must be identical whether the M
    // trials ran in one go or as K + (M - K), so a checkpoint can be
    // extended any number of times without drift.
    const auto spec = testSpec();
    constexpr std::uint64_t kK = 24, kM = 64;
    const auto fresh = runRecorded(spec, fixedOpts(kM), nullptr);
    ASSERT_FALSE(fresh.checkpoint.counters.empty());
    ASSERT_FALSE(fresh.checkpoint.histograms.empty());

    const auto base = runRecorded(spec, fixedOpts(kK), nullptr);
    const auto ext = runRecorded(spec, fixedOpts(kM), &base.checkpoint);
    EXPECT_EQ(checkpointJson(ext.checkpoint),
              checkpointJson(fresh.checkpoint));
}

TEST(CampaignCheckpoint, JsonRoundTripPreservesResumeTrajectory)
{
    const auto spec = testSpec();
    constexpr std::uint64_t kK = 32, kM = 80;
    const auto base = runResumableCampaign(spec, fixedOpts(kK), nullptr);

    const std::string bytes = checkpointJson(base.checkpoint);
    std::string err;
    const auto restored = readCheckpointJson(bytes, &err);
    ASSERT_TRUE(restored) << err;
    EXPECT_EQ(checkpointJson(*restored), bytes);

    const std::string fresh =
        summaryJson(runAnnualCampaign(spec, fixedOpts(kM)));
    const auto ext =
        runResumableCampaign(spec, fixedOpts(kM), &*restored);
    EXPECT_EQ(summaryJson(ext.summary), fresh);
}

TEST(CampaignCheckpoint, ExtendToSameBudgetIsAPureReplay)
{
    const auto spec = testSpec();
    constexpr std::uint64_t kK = 48;
    const auto base = runResumableCampaign(spec, fixedOpts(kK), nullptr);
    const auto same =
        runResumableCampaign(spec, fixedOpts(kK), &base.checkpoint);
    EXPECT_EQ(same.executedTrials, 0u);
    EXPECT_EQ(summaryJson(same.summary), summaryJson(base.summary));
}

AnnualCampaignOptions
earlyStopOpts(std::uint64_t trials)
{
    auto opts = fixedOpts(trials);
    opts.minTrials = 16;
    opts.ciRelTol = 0.30;
    return opts;
}

TEST(CampaignCheckpoint, EarlyStopTrajectorySurvivesResume)
{
    const auto spec = testSpec();
    const auto fresh = runAnnualCampaign(spec, earlyStopOpts(400));
    ASSERT_TRUE(fresh.stoppedEarly)
        << "fixture tolerance never fired; tighten ciRelTol";
    const std::uint64_t stop = fresh.trials;
    ASSERT_GT(stop, 16u);
    const std::string want = summaryJson(fresh);

    // Checkpoint strictly before the stop: the extension must stop at
    // the very same trial.
    const auto before = runResumableCampaign(
        spec, earlyStopOpts(stop / 2), nullptr);
    ASSERT_FALSE(before.summary.stoppedEarly);
    const auto resumed = runResumableCampaign(spec, earlyStopOpts(400),
                                              &before.checkpoint);
    EXPECT_EQ(summaryJson(resumed.summary), want);

    // Checkpoint of a run that already stopped early: pure replay with
    // the planned budget rewritten.
    const auto after =
        runResumableCampaign(spec, earlyStopOpts(400), nullptr);
    ASSERT_TRUE(after.summary.stoppedEarly);
    const auto replay = runResumableCampaign(spec, earlyStopOpts(400),
                                             &after.checkpoint);
    EXPECT_EQ(replay.executedTrials, 0u);
    EXPECT_EQ(summaryJson(replay.summary), want);
}

TEST(CampaignCheckpoint, MaskedBudgetBoundaryStopIsReDerived)
{
    // A campaign whose budget is exactly its stopping point records
    // stoppedEarly == false (the stop is masked at the boundary). A
    // longer fresh run stops right there with stoppedEarly == true;
    // the resume path must re-derive that decision from the restored
    // state instead of running more trials.
    const auto spec = testSpec();
    const auto fresh = runAnnualCampaign(spec, earlyStopOpts(400));
    ASSERT_TRUE(fresh.stoppedEarly);
    const std::uint64_t stop = fresh.trials;

    const auto boundary =
        runResumableCampaign(spec, earlyStopOpts(stop), nullptr);
    ASSERT_FALSE(boundary.summary.stoppedEarly);
    ASSERT_EQ(boundary.summary.trials, stop);

    const auto resumed = runResumableCampaign(spec, earlyStopOpts(400),
                                              &boundary.checkpoint);
    EXPECT_EQ(resumed.executedTrials, 0u);
    EXPECT_EQ(summaryJson(resumed.summary), summaryJson(fresh));
}

TEST(CampaignCheckpoint, BatchedResumeFromAMergedAggregateMatchesScalar)
{
    // A merge leaves each metric's digest buffer at its own fill, so
    // each metric's digest cuts the batched chunks at different flush
    // points. Without and with a stop rule that fires mid-chunk, the
    // batched resume must equal the scalar one.
    const auto spec = testSpec();
    ShardSpec head = shardOf(kSeed, 2600, 0, 1), tail = head;
    head.hi = tail.lo = 100;
    CampaignAggregate from = runAnnualShard(spec, head);
    from.merge(runAnnualShard(spec, tail));
    std::vector<std::size_t> fills;
    for (const auto &[name, field] : CampaignAggregate::kMetrics) {
        std::ostringstream os;
        {
            JsonWriter w(os);
            (from.*field).digest().writeStateJson(w);
        }
        const auto state = parseJson(os.str());
        ASSERT_TRUE(state.has_value()) << name;
        fills.push_back(state->at("buffer").size());
    }
    bool differ = false;
    for (const std::size_t fill : fills)
        differ = differ || fill != fills[0];
    ASSERT_TRUE(differ) << "the merged digests share one buffer fill";

    for (const double tol : {0.0, 0.05}) {
        auto scalar = fixedOpts(4000);
        scalar.minTrials = 16;
        scalar.ciRelTol = tol;
        auto batched = scalar;
        batched.batch = 256;
        batched.threads = 4;
        const auto want = resumeAnnualCampaign(spec, scalar, from);
        if (tol > 0.0) {
            ASSERT_TRUE(want.stoppedEarly) << "tolerance never fired";
            ASSERT_NE((want.trials - from.trials) % 256, 0u)
                << "the stop fell on a chunk boundary";
        }
        EXPECT_EQ(summaryJson(resumeAnnualCampaign(spec, batched, from)),
                  summaryJson(want))
            << "tolerance " << tol;
    }
}

TEST(CampaignCheckpoint, EarlyStoppedRecordingHoldsOnlyFoldedTrials)
{
    // Workers run trials past the stop index speculatively; those
    // trials are dropped with their records, so the checkpoint's obs
    // deltas describe exactly the folded prefix — byte-identical for
    // any thread count and run to run.
    const auto spec = testSpec();
    std::string want;
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (const int threads : {1, 4}) {
            auto opts = earlyStopOpts(400);
            opts.threads = threads;
            const auto out = runRecorded(spec, opts, nullptr);
            ASSERT_TRUE(out.summary.stoppedEarly);
            EXPECT_EQ(out.checkpoint.incidents.trials(),
                      out.checkpoint.trials);
            const std::string got = checkpointJson(out.checkpoint);
            if (want.empty())
                want = got;
            EXPECT_EQ(got, want)
                << "repeat " << repeat << ", " << threads << " threads";
        }
    }
}

TEST(CampaignCheckpointReader, RejectsMalformedDocumentsWithoutAsserting)
{
    const auto spec = testSpec();
    const auto base = runResumableCampaign(spec, fixedOpts(16), nullptr);
    const std::string good = checkpointJson(base.checkpoint);
    ASSERT_TRUE(readCheckpointJson(good));

    // Truncations at every eighth byte: parse errors or missing
    // members, never a crash.
    for (std::size_t len = 0; len < good.size(); len += 8)
        EXPECT_FALSE(readCheckpointJson(good.substr(0, len)));

    EXPECT_FALSE(readCheckpointJson("{}"));
    EXPECT_FALSE(readCheckpointJson(
        R"({"schema":"bpsim.campaign.shard","schema_version":1})"));

    // Field-level corruption that stays valid JSON.
    const auto corrupt = [&good](const std::string &from,
                                 const std::string &to) {
        std::string s = good;
        const auto pos = s.find(from);
        EXPECT_NE(pos, std::string::npos) << from;
        s.replace(pos, from.size(), to);
        return s;
    };
    const std::string version =
        "\"schema_version\":" + std::to_string(kShardSchemaVersion);
    EXPECT_FALSE(readCheckpointJson(
        corrupt(version, "\"schema_version\":999"))); // version bump
    EXPECT_FALSE(readCheckpointJson(
        corrupt("\"trials\":16", "\"trials\":16.5"))); // non-integral
    EXPECT_FALSE(readCheckpointJson(
        corrupt("\"trials\":16", "\"trials\":0"))); // empty checkpoint
    EXPECT_FALSE(readCheckpointJson(
        corrupt("\"count\":16", "\"count\":15"))); // metric/trials skew
    EXPECT_FALSE(readCheckpointJson(
        corrupt("\"sign\":1", "\"sign\":2"))); // sum out of range
    EXPECT_FALSE(readCheckpointJson(
        corrupt("\"trial_lo\":0", "\"trial_lo\":false"))); // mistyped

    // A shard that does not start at trial 0 is no checkpoint.
    std::ostringstream tail;
    writeShardJson(tail, runAnnualShard(spec, shardOf(kSeed, 32, 1, 2)));
    std::string err;
    ASSERT_TRUE(readShardJson(tail.str(), &err)) << err;
    EXPECT_FALSE(readCheckpointJson(tail.str(), &err));
    EXPECT_NE(err.find("trial 0"), std::string::npos) << err;
}

TEST(CampaignCheckpoint, MergesWithATailShardLikeAnyShard)
{
    // The checkpoint of trials [0, K) is the shard file of [0, K):
    // merged with a shard [K, N), it reproduces a one-shard N-trial
    // run bit for bit in every exact aggregate.
    const auto spec = testSpec();
    constexpr std::uint64_t kK = 24, kN = 56;
    const auto base = runResumableCampaign(spec, fixedOpts(kK), nullptr);
    std::string err;
    auto head = readCheckpointJson(checkpointJson(base.checkpoint), &err);
    ASSERT_TRUE(head) << err;
    // Same trials, relabelled as the first of two shards of N.
    head->spec = {kSeed, kN, 0, kK, 0, 2};
    ShardResult tail = runAnnualShard(spec, {kSeed, kN, kK, kN, 1, 2});

    const auto merged = mergeShards({*head, tail}, nullptr, &err);
    ASSERT_TRUE(merged) << err;
    const auto whole =
        mergeShards({runAnnualShard(spec, shardOf(kSeed, kN, 0, 1))},
                    nullptr, &err);
    ASSERT_TRUE(whole) << err;
    EXPECT_EQ(merged->trials, kN);
    EXPECT_EQ(merged->lossFreeTrials, whole->lossFreeTrials);
    EXPECT_EQ(merged->lossFree.fraction, whole->lossFree.fraction);
    EXPECT_EQ(merged->lossFree.lo, whole->lossFree.lo);
    EXPECT_EQ(merged->lossFree.hi, whole->lossFree.hi);
    for (const auto &[name, field] : CampaignAggregate::kMetrics) {
        const MergingMetric &a = *merged.*field;
        const MergingMetric &b = *whole.*field;
        EXPECT_EQ(a.count(), b.count()) << name;
        EXPECT_EQ(a.mean(), b.mean()) << name;
        EXPECT_EQ(a.stddev(), b.stddev()) << name;
        EXPECT_EQ(a.min(), b.min()) << name;
        EXPECT_EQ(a.max(), b.max()) << name;
    }
}

} // namespace
} // namespace bpsim
