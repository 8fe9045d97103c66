/**
 * @file
 * Differential equivalence harness for the batched SoA trial kernel
 * (campaign/batch_kernel): the scalar event-driven AnnualSimulator is
 * the reference, and every batched result must match it BIT FOR BIT.
 * The sweeps cover Table 3 configurations x technique kinds x batch
 * sizes (1, 3, 8, 64, and one larger than the campaign, exercising
 * the remainder chunk) x thread counts, and assert equality at every
 * layer a consumer can observe: per-trial AnnualResults, campaign
 * summary JSON (means, CIs, P^2 and t-digest quantiles), shard file
 * bytes, obs histograms, and incident aggregates. The golden-fixture
 * replays prove the obs-enabled fallback path reproduces the exact
 * committed trace and incident bytes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/batch_kernel.hh"
#include "campaign/json.hh"
#include "campaign/shard.hh"
#include "core/backup_config.hh"
#include "obs/obs.hh"
#include "outage/trace.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

constexpr Time kYear = 365LL * 24 * kHour;
constexpr std::uint64_t kSeed = 2014;

/** Bit pattern of a double: stricter than == (distinguishes -0.0). */
std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

#define EXPECT_BITEQ(a, b) EXPECT_EQ(bits(a), bits(b))

void
expectResultBitEqual(const AnnualResult &got, const AnnualResult &want,
                     const std::string &context)
{
    EXPECT_EQ(got.outages, want.outages) << context;
    EXPECT_EQ(got.losses, want.losses) << context;
    EXPECT_BITEQ(got.downtimeMin, want.downtimeMin) << context;
    EXPECT_BITEQ(got.meanPerf, want.meanPerf) << context;
    EXPECT_BITEQ(got.batteryKwh, want.batteryKwh) << context;
    EXPECT_BITEQ(got.worstGapMin, want.worstGapMin) << context;
}

/** The cheap fast-path scenario the micro benchmarks also use. */
AnnualCampaignSpec
throttleSpec(const BackupConfigSpec &config)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = config;
    return spec;
}

/** One TechniqueSpec per kind, matching the sweeps' standing defenses. */
std::vector<TechniqueSpec>
allTechniqueKinds()
{
    std::vector<TechniqueSpec> specs;
    for (const TechniqueKind kind :
         {TechniqueKind::None, TechniqueKind::Throttle,
          TechniqueKind::Sleep, TechniqueKind::Hibernate,
          TechniqueKind::ProactiveHibernate, TechniqueKind::Migration,
          TechniqueKind::ProactiveMigration,
          TechniqueKind::MigrationSleep, TechniqueKind::ThrottleSleep,
          TechniqueKind::ThrottleHibernate, TechniqueKind::GeoFailover,
          TechniqueKind::Adaptive}) {
        specs.push_back({kind, 5, 0, fromMinutes(4.0), false});
    }
    return specs;
}

/** Deterministic summary serialization (timing fields omitted). */
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
runCampaignJson(const AnnualCampaignSpec &spec,
                std::uint64_t trials, std::uint64_t batch, int threads,
                double ci_rel_tol = 0.0)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = trials;
    opts.seed = kSeed;
    opts.threads = threads;
    opts.batch = batch;
    opts.minTrials = 8;
    opts.ciRelTol = ci_rel_tol;
    return summaryJson(runAnnualCampaign(spec, opts));
}

/** Shard file bytes with the wall clock (the one nondeterministic
 * field) normalized out. */
std::string
shardJson(ShardResult shard)
{
    shard.wallSeconds = 0.0;
    std::ostringstream os;
    writeShardJson(os, shard);
    return os.str();
}

TEST(BatchKernelEligibility, FastPathCoversTheCommonCampaignShapes)
{
    const auto eligible = [](const AnnualCampaignSpec &spec) {
        return BatchAnnualKernel(spec.profile, spec.nServers,
                                 spec.technique, spec.config)
            .fastPathEligible();
    };

    // UPS-less and offline-UPS configs under None/Throttle: fast path.
    EXPECT_TRUE(eligible(throttleSpec(noDgConfig())));
    EXPECT_TRUE(eligible(throttleSpec(minCostConfig())));
    AnnualCampaignSpec none = throttleSpec(noDgConfig());
    none.technique = {};
    EXPECT_TRUE(eligible(none));

    // Diesel generators need the event-driven start/transfer chain.
    EXPECT_FALSE(eligible(throttleSpec(noUpsConfig())));
    EXPECT_FALSE(eligible(throttleSpec(dgSmallPUpsConfig())));

    // Stateful techniques (sleep timers, migration) stay scalar.
    AnnualCampaignSpec sleeper = throttleSpec(noDgConfig());
    sleeper.technique = {TechniqueKind::ThrottleSleep, 5, 0,
                         fromMinutes(4.0), false};
    EXPECT_FALSE(eligible(sleeper));
}

TEST(BatchKernelEligibility, TraceEligibilityGuardsTheReplayWindow)
{
    const auto spec = throttleSpec(noDgConfig());
    const BatchAnnualKernel kernel(spec.profile, spec.nServers,
                                   spec.technique, spec.config);
    ASSERT_TRUE(kernel.fastPathEligible());

    EXPECT_TRUE(kernel.traceEligible({}));
    EXPECT_TRUE(kernel.traceEligible({{kHour, kMinute}}));
    // Outage running past the horizon.
    EXPECT_FALSE(kernel.traceEligible({{kYear - kMinute, kHour}}));
    // Zero-length outage.
    EXPECT_FALSE(kernel.traceEligible({{kHour, 0}}));
    // Outage at t=0: no settled steady state before it.
    EXPECT_FALSE(kernel.traceEligible({{0, kMinute}}));
    // Second outage inside the first one's recovery window.
    EXPECT_FALSE(kernel.traceEligible(
        {{kHour, kMinute}, {kHour + kMinute + fromSeconds(1.0), kMinute}}));

    // The Figure 1 generator's minimum gap (1 h) keeps every sampled
    // trace inside the replay window.
    const auto gen = OutageTraceGenerator::figure1();
    for (std::uint64_t id = 0; id < 256; ++id) {
        Rng rng = Rng::stream(kSeed, id);
        EXPECT_TRUE(kernel.traceEligible(gen.generate(rng, kYear)))
            << "trial " << id;
    }
}

TEST(BatchKernelPerTrial, FastReplayBitEqualsScalarSimulator)
{
    const auto gen = OutageTraceGenerator::figure1();
    const AnnualSimulator sim;
    for (const auto &config : table3Configs()) {
        const auto spec = throttleSpec(config);
        const BatchAnnualKernel kernel(spec.profile, spec.nServers,
                                       spec.technique, spec.config);
        if (!kernel.fastPathEligible())
            continue;
        for (std::uint64_t id = 0; id < 64; ++id) {
            Rng rng = Rng::stream(kSeed, id);
            const auto events = gen.generate(rng, kYear);
            ASSERT_TRUE(kernel.traceEligible(events));
            expectResultBitEqual(
                kernel.runFastTrace(events),
                sim.runYear(spec.profile, spec.nServers, spec.technique,
                            spec.config, events),
                config.name + " trial " + std::to_string(id));
        }
    }
}

TEST(BatchKernelPerTrial, RunBatchBitEqualsScalarForEveryPartition)
{
    constexpr std::uint64_t kTrials = 64;
    const auto gen = OutageTraceGenerator::figure1();
    const AnnualSimulator sim;
    const auto spec = throttleSpec(noDgConfig());
    const BatchAnnualKernel kernel(spec.profile, spec.nServers,
                                   spec.technique, spec.config);

    std::vector<AnnualResult> want(kTrials);
    for (std::uint64_t id = 0; id < kTrials; ++id) {
        Rng rng = Rng::stream(kSeed, id);
        want[id] = sim.runYear(spec.profile, spec.nServers,
                               spec.technique, spec.config,
                               gen.generate(rng, kYear));
    }

    for (const std::uint64_t batch : {1ull, 3ull, 8ull, 64ull, 1000ull}) {
        std::vector<AnnualResult> got(kTrials);
        for (std::uint64_t lo = 0; lo < kTrials;) {
            const std::uint64_t hi = std::min(lo + batch, kTrials);
            kernel.runBatch(kSeed, lo, hi, got.data() + lo);
            lo = hi;
        }
        for (std::uint64_t id = 0; id < kTrials; ++id)
            expectResultBitEqual(got[id], want[id],
                                 "batch " + std::to_string(batch) +
                                     " trial " + std::to_string(id));
    }
}

TEST(BatchCampaign, SummaryBytesInvariantAcrossBatchAndThreads)
{
    constexpr std::uint64_t kTrials = 64;
    for (const auto &config : table3Configs()) {
        const auto spec = throttleSpec(config);
        const std::string want = runCampaignJson(spec, kTrials, 0, 1);
        for (const std::uint64_t batch : {1ull, 3ull, 8ull, 64ull, 1000ull})
            for (const int threads : {1, 4, 16})
                EXPECT_EQ(runCampaignJson(spec, kTrials, batch, threads),
                          want)
                    << config.name << " batch " << batch << " threads "
                    << threads;
    }
}

TEST(BatchCampaign, AllTechniqueKindsMatchScalar)
{
    // Non-fast-path kinds exercise the lane-by-lane scalar fallback
    // through the batched chunk driver; the summary must still be
    // byte-identical for any batch and thread count.
    constexpr std::uint64_t kTrials = 24;
    for (const auto &technique : allTechniqueKinds()) {
        AnnualCampaignSpec spec = throttleSpec(noDgConfig());
        spec.technique = technique;
        const std::string want = runCampaignJson(spec, kTrials, 0, 1);
        for (const int threads : {1, 4})
            EXPECT_EQ(runCampaignJson(spec, kTrials, 7, threads), want)
                << "kind " << static_cast<int>(technique.kind)
                << " threads " << threads;
    }
}

TEST(BatchCampaign, EarlyStopFiresAtTheSameTrial)
{
    // A loose CI tolerance stops the campaign mid-flight; the batched
    // driver must stop after the SAME in-order trial prefix, for any
    // chunking, so trials/stopped_early/aggregates all serialize
    // identically.
    const auto spec = throttleSpec(noDgConfig());
    const std::string want = runCampaignJson(spec, 400, 0, 1, 0.25);
    {
        std::string err;
        const auto doc = parseJson(want, &err);
        ASSERT_TRUE(doc.has_value()) << err;
        ASSERT_TRUE(doc->at("stopped_early").asBool())
            << "tolerance did not trigger an early stop; sweep "
               "parameters need retuning: "
            << want;
    }
    for (const std::uint64_t batch : {1ull, 3ull, 8ull, 64ull})
        for (const int threads : {1, 4, 16})
            EXPECT_EQ(runCampaignJson(spec, 400, batch, threads, 0.25),
                      want)
                << "batch " << batch << " threads " << threads;
}

TEST(BatchShard, ShardFileBytesInvariantAcrossBatchAndThreads)
{
    constexpr std::uint64_t kTrials = 48;
    const auto spec = throttleSpec(noDgConfig());
    for (std::uint64_t index = 0; index < 3; ++index) {
        const ShardSpec sspec = shardOf(kSeed, kTrials, index, 3);
        ShardOptions base;
        base.threads = 1;
        base.checkpointEvery = 5;
        const std::string want =
            shardJson(runAnnualShard(spec, sspec, base));
        for (const std::uint64_t batch : {1ull, 3ull, 8ull, 64ull})
            for (const int threads : {1, 4, 16}) {
                ShardOptions opts = base;
                opts.threads = threads;
                opts.batch = batch;
                EXPECT_EQ(shardJson(runAnnualShard(spec, sspec, opts)),
                          want)
                    << "shard " << index << " batch " << batch
                    << " threads " << threads;
            }
    }
}

TEST(BatchShard, ObsHistogramsAndIncidentsMatchScalar)
{
    // A recording shard's file also carries counters,
    // histogram buckets, and the incident-forensics rollup; the
    // batched driver (which runs every lane through the scalar
    // fallback precisely so the trace stays identical) must reproduce
    // all of them byte for byte.
    constexpr std::uint64_t kTrials = 8;
    AnnualCampaignSpec spec = throttleSpec(minCostConfig());
    spec.technique = {TechniqueKind::ThrottleSleep, 5, 0,
                      fromMinutes(4.0), true};

    const auto run = [&](std::uint64_t batch, int threads) {
        obs::Context evidence;
        ShardOptions opts;
        opts.threads = threads;
        opts.batch = batch;
        opts.obs = &evidence;
        return shardJson(
            runAnnualShard(spec, shardOf(kSeed, kTrials, 0, 1), opts));
    };

    const std::string want = run(0, 1);
    EXPECT_NE(want.find("histograms"), std::string::npos);
    EXPECT_NE(want.find("incidents"), std::string::npos);
    for (const std::uint64_t batch : {1ull, 3ull, 8ull})
        for (const int threads : {1, 4})
            EXPECT_EQ(run(batch, threads), want)
                << "batch " << batch << " threads " << threads;
}

/**
 * @name Golden-fixture replays
 * The obs golden fixtures (tests/obs/fixtures/) pin the exact trace
 * and incident bytes of two reference shard runs. Re-running them
 * through the batched driver must reproduce the committed bytes —
 * the strongest possible statement that batching changed nothing a
 * consumer can see.
 */
///@{

std::string
readFixture(const std::string &name)
{
    const std::string path = std::string(BPSIM_OBS_FIXTURE_DIR) + "/" +
                             name;
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << "missing fixture " << path;
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

TEST(BatchGolden, TraceFixtureReproducedThroughBatchedDriver)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::ThrottleSleep, 5, 0,
                      fromMinutes(4.0), true};
    spec.config = dgSmallPUpsConfig();

    obs::Context evidence;
    evidence.keepEvents = true;
    ShardOptions opts;
    opts.threads = 1;
    opts.batch = 3;
    opts.obs = &evidence;
    runAnnualShard(spec, shardOf(2014, 8, 0, 1), opts);

    std::ostringstream os;
    obs::TraceExportOptions topts;
    topts.metadata = {{"build", "golden-fixture"}, {"seed", "2014"}};
    writeChromeTrace(os, evidence.events(), topts);
    EXPECT_EQ(os.str(), readFixture("trace_v1.json"))
        << "batched driver diverged from the committed golden trace";
}

TEST(BatchGolden, IncidentFixtureReproducedThroughBatchedDriver)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::ThrottleSleep, 5, 0,
                      fromMinutes(4.0), true};
    spec.config = minCostConfig();

    obs::Context evidence;
    ShardOptions opts;
    opts.threads = 1;
    opts.batch = 3;
    opts.obs = &evidence;
    const ShardResult shard =
        runAnnualShard(spec, shardOf(2014, 8, 0, 1), opts);

    std::ostringstream os;
    JsonWriter w(os);
    shard.incidents.writeJson(w);
    os << '\n';
    EXPECT_EQ(os.str(), readFixture("incidents_v1.json"))
        << "batched driver diverged from the committed incident "
           "aggregate";
}

///@}

} // namespace
} // namespace bpsim
