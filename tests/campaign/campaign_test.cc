/**
 * @file
 * Tests for the campaign runner: strict in-order consumption,
 * deterministic early stop, and bit-identical aggregates across
 * thread counts (the acceptance gate for the parallel engine). The
 * parallel speedup bar is a perf-gate lane (bench/campaign_speedup).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/json.hh"
#include "campaign/runner.hh"
#include "core/backup_config.hh"
#include "obs/context.hh"
#include "outage/trace.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

TEST(CampaignRunner, ConsumesInStrictTrialOrder)
{
    constexpr std::uint64_t kN = 500;
    std::uint64_t expected = 0;
    CampaignOptions opts;
    opts.threads = 4;
    const auto oc = runCampaign<std::uint64_t>(
        kN, [](std::uint64_t id) { return id * 3; },
        [&](std::uint64_t id, std::uint64_t &&r) {
            EXPECT_EQ(id, expected++);
            EXPECT_EQ(r, id * 3);
            return true;
        },
        opts);
    EXPECT_EQ(oc.consumed, kN);
    EXPECT_FALSE(oc.stoppedEarly);
}

TEST(CampaignRunner, EarlyStopIsDeterministicAcrossThreadCounts)
{
    for (int threads : {1, 2, 4, 8}) {
        std::vector<std::uint64_t> seen;
        CampaignOptions opts;
        opts.threads = threads;
        const auto oc = runCampaign<std::uint64_t>(
            10000, [](std::uint64_t id) { return id; },
            [&](std::uint64_t id, std::uint64_t &&) {
                seen.push_back(id);
                return id != 37; // stop after consuming trial 37
            },
            opts);
        ASSERT_EQ(oc.consumed, 38u) << "threads=" << threads;
        ASSERT_TRUE(oc.stoppedEarly);
        ASSERT_EQ(seen.size(), 38u);
        for (std::uint64_t i = 0; i < seen.size(); ++i)
            ASSERT_EQ(seen[i], i);
    }
}

TEST(CampaignRunner, ProgressCallbacksAreInOrderAndSerialized)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 95;
    opts.threads = 4;
    opts.progressEvery = 10;
    std::vector<std::uint64_t> ticks;
    std::atomic<int> inside{0};
    opts.progress = [&](const CampaignProgress &p) {
        EXPECT_EQ(inside.fetch_add(1), 0) << "callbacks overlap";
        EXPECT_EQ(p.total, 95u);
        EXPECT_FALSE(p.stopped);
        ticks.push_back(p.consumed);
        inside.fetch_sub(1);
    };
    runAnnualCampaign(
        [](std::uint64_t id, Rng &) {
            // Uneven trial cost lets later trials finish first.
            std::this_thread::sleep_for(
                std::chrono::microseconds(id % 3 == 0 ? 200 : 10));
            return AnnualResult{};
        },
        opts);
    // Every multiple of 10, plus the final 95.
    const std::vector<std::uint64_t> expect{10, 20, 30, 40, 50,
                                            60, 70, 80, 90, 95};
    EXPECT_EQ(ticks, expect);
}

TEST(CampaignRunner, ClaimsTrialsInIdOrder)
{
    // Each worker claims the next id only after starting its last
    // trial, so when trial `id` starts, at most threads - 1 smaller
    // ids (one per other worker) can still be waiting to start:
    // position + threads > id. Striped index ranges would start some
    // worker's first trial far ahead of the consumer.
    constexpr int kThreads = 4;
    constexpr std::uint64_t kN = 200;
    std::mutex m;
    std::vector<std::uint64_t> started;
    CampaignOptions opts;
    opts.threads = kThreads;
    runCampaign<std::uint64_t>(
        kN,
        [&](std::uint64_t id) {
            {
                std::lock_guard<std::mutex> lk(m);
                started.push_back(id);
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            return id;
        },
        [](std::uint64_t, std::uint64_t &&) { return true; }, opts);
    ASSERT_EQ(started.size(), kN);
    for (std::uint64_t pos = 0; pos < kN; ++pos)
        ASSERT_LT(started[pos], pos + kThreads) << "position " << pos;
}

TEST(ParallelMap, PreservesOrder)
{
    const auto out = parallelMap<double>(
        1000, [](std::uint64_t i) { return static_cast<double>(i) * 0.5; },
        4);
    ASSERT_EQ(out.size(), 1000u);
    for (std::uint64_t i = 0; i < out.size(); ++i)
        ASSERT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
}

/** Cheap standing scenario for the real-simulation campaigns. */
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

/** All deterministic aggregate state, for bitwise comparison. */
std::vector<double>
fingerprint(const AnnualCampaignSummary &s)
{
    std::vector<double> v;
    const auto metric = [&v](const MergingMetric &m) {
        v.push_back(static_cast<double>(m.count()));
        v.push_back(m.mean());
        v.push_back(m.variance());
        v.push_back(m.min());
        v.push_back(m.max());
        v.push_back(m.sum().value());
        v.push_back(m.p50());
        v.push_back(m.p95());
        v.push_back(m.p99());
    };
    metric(s.downtimeMin);
    metric(s.lossesPerYear);
    metric(s.meanPerf);
    metric(s.batteryKwh);
    metric(s.worstGapMin);
    v.push_back(static_cast<double>(s.trials));
    v.push_back(static_cast<double>(s.lossFreeTrials));
    v.push_back(s.lossFree.fraction);
    v.push_back(s.lossFree.lo);
    v.push_back(s.lossFree.hi);
    return v;
}

// The acceptance gate: a >= 64-trial campaign aggregated with 1, 4,
// and hardware_concurrency() threads is byte-identical per seed.
TEST(AnnualCampaign, BitIdenticalAcrossThreadCounts)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 64;
    opts.seed = 20140301;

    opts.threads = 1;
    const auto serial = fingerprint(runAnnualCampaign(testSpec(), opts));
    ASSERT_FALSE(serial.empty());

    for (int threads : {4, ThreadPool::hardwareThreads()}) {
        opts.threads = threads;
        const auto par = fingerprint(runAnnualCampaign(testSpec(), opts));
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            ASSERT_EQ(par[i], serial[i])
                << "field " << i << " differs at threads=" << threads;
        }
    }
}

TEST(AnnualCampaign, SameSeedSameResultsSameThreads)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 16;
    opts.seed = 99;
    opts.threads = 4;
    const auto a = fingerprint(runAnnualCampaign(testSpec(), opts));
    const auto b = fingerprint(runAnnualCampaign(testSpec(), opts));
    EXPECT_EQ(a, b);
}

TEST(AnnualCampaign, DifferentSeedsDiverge)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 16;
    opts.threads = 2;
    opts.seed = 1;
    const auto a = runAnnualCampaign(testSpec(), opts);
    opts.seed = 2;
    const auto b = runAnnualCampaign(testSpec(), opts);
    EXPECT_NE(a.downtimeMin.sum().value(), b.downtimeMin.sum().value());
}

TEST(AnnualCampaign, EarlyStopRespectsMinTrialsAndTolerance)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 200;
    opts.seed = 5;
    opts.threads = 2;
    opts.minTrials = 16;
    opts.ciRelTol = 1e9; // absurdly loose: stop at exactly minTrials
    const auto s = runAnnualCampaign(testSpec(), opts);
    EXPECT_EQ(s.trials, 16u);
    EXPECT_TRUE(s.stoppedEarly);
    EXPECT_EQ(s.planned, 200u);

    // And the early-stopped prefix matches a straight 16-trial run.
    AnnualCampaignOptions full;
    full.maxTrials = 16;
    full.seed = 5;
    full.threads = 1;
    const auto prefix = runAnnualCampaign(testSpec(), full);
    EXPECT_EQ(fingerprint(s), fingerprint(prefix));
}

TEST(AnnualCampaign, MatchesAnnualSimulatorSummary)
{
    // The campaign engine draws year y from Rng::stream(seed, y) and
    // runs it through AnnualSimulator::runYear, so its aggregates
    // equal a straight in-order fold of those per-year results.
    const auto spec = testSpec();
    AnnualCampaignOptions opts;
    opts.maxTrials = 12;
    opts.seed = 77;
    opts.threads = 2;
    const auto campaign = runAnnualCampaign(spec, opts);

    const auto gen = OutageTraceGenerator::figure1();
    const AnnualSimulator sim;
    CampaignAggregate years;
    for (std::uint64_t y = 0; y < 12; ++y) {
        Rng rng = Rng::stream(77, y);
        years.fold(sim.runYear(spec.profile, spec.nServers,
                               spec.technique, spec.config,
                               gen.generate(rng, 365LL * 24 * kHour)));
    }
    EXPECT_EQ(campaign.downtimeMin.mean(), years.downtimeMin.mean());
    EXPECT_EQ(campaign.batteryKwh.sum().value(),
              years.batteryKwh.sum().value());
    EXPECT_EQ(campaign.worstGapMin.max(), years.worstGapMin.max());
    EXPECT_EQ(campaign.lossFreeTrials, years.lossFreeTrials);
    EXPECT_EQ(campaign.meanPerf.p99(), years.meanPerf.p99());
}

TEST(AnnualCampaign, CustomTrialBodies)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 32;
    opts.seed = 3;
    opts.threads = 2;
    const auto s = runAnnualCampaign(
        [](std::uint64_t id, Rng &rng) {
            AnnualResult r;
            r.downtimeMin = rng.nextDouble();
            r.losses = id % 4 == 0 ? 1 : 0;
            return r;
        },
        opts);
    EXPECT_EQ(s.trials, 32u);
    EXPECT_EQ(s.lossFreeTrials, 24u);
    EXPECT_DOUBLE_EQ(s.lossFree.fraction, 0.75);
    EXPECT_GT(s.downtimeMin.mean(), 0.0);
    EXPECT_LT(s.downtimeMin.mean(), 1.0);
}

// A longer campaign on 1 thread and on at least 4 is bit-identical.
// Its wall-clock speedup bar lives in the perf gate
// (bench/campaign_speedup), where parallel test load cannot flake it.
TEST(AnnualCampaign, LongCampaignSerialMatchesParallel)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 200;
    opts.seed = 2014;

    opts.threads = 1;
    const auto serial = runAnnualCampaign(testSpec(), opts);
    opts.threads = std::max(4, ThreadPool::hardwareThreads());
    const auto parallel = runAnnualCampaign(testSpec(), opts);

    EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
}

TEST(AnnualCampaign, BatchedEarlyStopMidChunkMatchesScalar)
{
    // The stop rule fires part-way through a 256-trial chunk, past
    // the first digest flush: the batched fold must keep exactly the
    // same prefix, with the same bytes, as the trial-by-trial fold.
    AnnualCampaignOptions opts;
    opts.maxTrials = 4000;
    opts.seed = 2014;
    opts.minTrials = 16;
    opts.ciRelTol = 0.08;
    opts.threads = 1;
    const auto scalar = runAnnualCampaign(testSpec(), opts);
    ASSERT_TRUE(scalar.stoppedEarly);
    ASSERT_GT(scalar.trials, 800u);
    ASSERT_NE(scalar.trials % 256, 0u) << "the stop fell on a chunk boundary";

    opts.batch = 256;
    opts.threads = 4;
    const auto batched = runAnnualCampaign(testSpec(), opts);
    EXPECT_EQ(fingerprint(batched), fingerprint(scalar));
    EXPECT_EQ(batched.trials, scalar.trials);
    EXPECT_TRUE(batched.stoppedEarly);
}

TEST(AnnualCampaign, BatchAboveTheChunkCapMatchesBatch256)
{
    // A batch above MetricChunk::kMaxLength runs in chunks of at most
    // that many trials (65536 + 4464 here), with the same state as
    // 256-trial chunks: every metric's exact state, digest buffer
    // included.
    const auto spec = testSpec();
    ASSERT_TRUE(BatchAnnualKernel(spec.profile, spec.nServers,
                                  spec.technique, spec.config)
                    .fastPathEligible());
    const auto state = [&spec](std::uint64_t batch) {
        AnnualCampaignOptions opts;
        opts.maxTrials = 70000;
        opts.seed = 2014;
        opts.threads = 4;
        opts.batch = batch;
        const auto s = runAnnualCampaign(spec, opts);
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject();
        w.field("trials", s.trials);
        w.field("loss_free", s.lossFreeTrials);
        for (const auto &[name, field] : CampaignAggregate::kMetrics) {
            w.key(name);
            (s.*field).writeJson(w);
        }
        w.endObject();
        return os.str();
    };
    EXPECT_EQ(state(70000), state(256));
}

TEST(AnnualCampaign, EarlyStoppedRecordingRetainsOnlyAggregatedTrials)
{
    // campaign_sweep's shape: an early-stopped campaign recording into
    // a Context that keeps events. Workers run trials past the stop
    // index speculatively; the retained events and forensics must be
    // exactly the aggregated trials'.
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = minCostConfig();

    obs::Context evidence;
    evidence.keepEvents = true;
    AnnualCampaignOptions opts;
    opts.maxTrials = 400;
    opts.seed = 2014;
    opts.threads = 4;
    opts.minTrials = 16;
    opts.ciRelTol = 0.30;
    opts.obs = &evidence;
    const auto s = runAnnualCampaign(spec, opts);
    ASSERT_TRUE(s.stoppedEarly);

    std::uint64_t starts = 0;
    for (const auto &ev : evidence.events()) {
        EXPECT_LT(ev.trial, s.trials);
        starts += ev.kind == obs::EventKind::TrialStart;
    }
    EXPECT_EQ(starts, s.trials);
    EXPECT_EQ(evidence.deltas().incidents.trials(), s.trials);
}

} // namespace
} // namespace bpsim
