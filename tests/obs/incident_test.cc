/**
 * @file
 * Incident-engine tests: synthetic event streams pin the attribution
 * semantics (zero-downtime outages, back-to-back episodes, incidents
 * truncated by the trial horizon, cause classification, recompute
 * debt), and fixed-seed campaigns pin the determinism contract — the
 * merged IncidentAggregate is bit-identical for any worker thread
 * count and any shard partition, frozen by the committed golden
 * fixture tests/obs/fixtures/incidents_v1.json.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/json.hh"
#include "campaign/shard.hh"
#include "core/backup_config.hh"
#include "obs/incident.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

constexpr std::uint64_t kSeed = 2014;
constexpr std::uint64_t kTrials = 8;
/** The annual-trial horizon (same constant the shard runner uses). */
constexpr Time kYear = 365LL * 24 * kHour;

/** A downtime-heavy scenario so attribution has real minutes to
 *  bucket (the MinCost configuration loses power most years). */
AnnualCampaignSpec
lossySpec()
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::ThrottleSleep, 5, 0, fromMinutes(4.0),
                      true};
    spec.config = minCostConfig();
    return spec;
}

/** Shard @p index of @p shards of the lossy campaign on @p threads
 *  workers, recording into @p evidence. */
ShardResult
runLossy(obs::Context &evidence, int threads = 1, std::uint64_t index = 0,
         std::uint64_t shards = 1)
{
    ShardOptions opts;
    opts.threads = threads;
    opts.obs = &evidence;
    return runAnnualShard(lossySpec(), shardOf(kSeed, kTrials, index, shards),
                          opts);
}

/** Build one synthetic event (trial 0 unless overridden). */
obs::TraceEvent
ev(std::uint32_t seq, obs::EventKind kind, Time t, double a = 0.0,
   double b = 0.0, std::uint32_t incident = 0,
   std::uint64_t trial = 0)
{
    obs::TraceEvent e;
    e.trial = trial;
    e.seq = seq;
    e.incident = incident;
    e.kind = kind;
    e.simTime = t;
    e.a = a;
    e.b = b;
    return e;
}

/** Canonical JSON bytes of an aggregate (the bit-identity probe). */
std::string
aggregateJson(const obs::IncidentAggregate &a)
{
    std::ostringstream os;
    JsonWriter w(os);
    a.writeJson(w);
    return os.str();
}

double
causeMin(const obs::CauseMinutes &m, obs::RootCause c)
{
    return m[static_cast<std::size_t>(c)];
}

TEST(IncidentEngine, ZeroDowntimeOutageStillReconstructs)
{
    using obs::EventKind;
    std::vector<obs::TraceEvent> events = {
        ev(0, EventKind::TrialStart, 0),
        ev(1, EventKind::Availability, 0, 1.0),
        ev(2, EventKind::OutageStart, fromMinutes(10.0), 5000.0, 0.0, 1),
        ev(3, EventKind::UpsDischarge, fromMinutes(10.0), 5000.0, 0.0, 1),
        ev(4, EventKind::OutageEnd, fromMinutes(12.0), 0.0, 0.0, 1),
        ev(5, EventKind::TrialEnd, kYear, 0.0, 0.0),
    };
    const auto report = obs::buildIncidentReport(events);

    ASSERT_EQ(report.incidents.size(), 1u);
    const obs::Incident &inc = report.incidents[0];
    EXPECT_EQ(inc.id, 1u);
    EXPECT_EQ(inc.outageStart, fromMinutes(10.0));
    EXPECT_EQ(inc.outageEnd, fromMinutes(12.0));
    EXPECT_EQ(inc.windowEnd, kYear);
    EXPECT_FALSE(inc.truncated);
    EXPECT_TRUE(inc.upsDischarged);
    EXPECT_EQ(inc.powerLosses, 0u);
    EXPECT_DOUBLE_EQ(inc.downtimeMin(), 0.0);

    ASSERT_EQ(report.trials.size(), 1u);
    EXPECT_DOUBLE_EQ(report.trials[0].attributedTotalMin(), 0.0);
    EXPECT_DOUBLE_EQ(report.trials[0].residualMin(), 0.0);
    EXPECT_EQ(report.aggregate.incidents(), 1u);
    EXPECT_EQ(report.aggregate.lossIncidents(), 0u);
}

TEST(IncidentEngine, BackToBackOutagesSplitTheWindow)
{
    using obs::EventKind;
    // Episode 1: powered but half-degraded for 20 min (a technique
    // gap straddling restoration). Episode 2: fully dark for 10 min
    // with no DG in play (capacity shortfall).
    std::vector<obs::TraceEvent> events = {
        ev(0, EventKind::Availability, 0, 1.0),
        ev(1, EventKind::OutageStart, fromMinutes(60.0), 1000.0, 0.0, 1),
        ev(2, EventKind::Availability, fromMinutes(60.0), 0.5, 0.0, 1),
        ev(3, EventKind::OutageEnd, fromMinutes(70.0), 0.0, 0.0, 1),
        ev(4, EventKind::Availability, fromMinutes(80.0), 1.0),
        ev(5, EventKind::OutageStart, fromMinutes(100.0), 1000.0, 0.0, 2),
        ev(6, EventKind::PowerLost, fromMinutes(100.0), 1000.0, 0.0, 2),
        ev(7, EventKind::Availability, fromMinutes(100.0), 0.0, 0.0, 2),
        ev(8, EventKind::OutageEnd, fromMinutes(110.0), 0.0, 0.0, 2),
        ev(9, EventKind::Availability, fromMinutes(110.0), 1.0, 0.0, 2),
        ev(10, EventKind::TrialEnd, kYear, 20.0, 0.0),
    };
    const auto report = obs::buildIncidentReport(events);

    ASSERT_EQ(report.incidents.size(), 2u);
    const obs::Incident &first = report.incidents[0];
    const obs::Incident &second = report.incidents[1];

    EXPECT_EQ(first.id, 1u);
    // The first window ends where the second outage begins.
    EXPECT_EQ(first.windowEnd, fromMinutes(100.0));
    EXPECT_NEAR(causeMin(first.attributedMin,
                         obs::RootCause::TechniqueTransitionGap),
                10.0, 1e-9);
    EXPECT_EQ(first.primaryCause(),
              obs::RootCause::TechniqueTransitionGap);

    EXPECT_EQ(second.id, 2u);
    EXPECT_EQ(second.powerLosses, 1u);
    EXPECT_EQ(second.firstPowerLostAt, fromMinutes(100.0));
    EXPECT_EQ(second.darkTime, fromMinutes(10.0));
    EXPECT_NEAR(causeMin(second.attributedMin,
                         obs::RootCause::CapacityShortfall),
                10.0, 1e-9);

    ASSERT_EQ(report.trials.size(), 1u);
    const obs::TrialForensics &t = report.trials[0];
    EXPECT_EQ(t.incidents, 2u);
    EXPECT_NEAR(t.attributedTotalMin(), 20.0, 1e-9);
    EXPECT_NEAR(t.residualMin(), 0.0, 1e-9);
}

TEST(IncidentEngine, OpenIncidentAtTrialEndIsTruncated)
{
    using obs::EventKind;
    const Time start = kYear - fromMinutes(30.0);
    std::vector<obs::TraceEvent> events = {
        ev(0, EventKind::Availability, 0, 1.0),
        ev(1, EventKind::OutageStart, start, 1000.0, 0.0, 1),
        ev(2, EventKind::PowerLost, start, 1000.0, 0.0, 1),
        ev(3, EventKind::Availability, start, 0.0, 0.0, 1),
        ev(4, EventKind::TrialEnd, kYear, 30.0, 0.0),
    };
    const auto report = obs::buildIncidentReport(events);

    ASSERT_EQ(report.incidents.size(), 1u);
    const obs::Incident &inc = report.incidents[0];
    EXPECT_TRUE(inc.truncated);
    EXPECT_EQ(inc.outageEnd, kTimeNever);
    EXPECT_EQ(inc.windowEnd, kYear);
    EXPECT_EQ(inc.darkTime, fromMinutes(30.0));
    // The elapsed dark time still attributes, horizon-clipped.
    EXPECT_NEAR(causeMin(inc.attributedMin,
                         obs::RootCause::CapacityShortfall),
                30.0, 1e-9);
    EXPECT_NEAR(report.trials[0].residualMin(), 0.0, 1e-9);
    EXPECT_EQ(report.aggregate.truncatedIncidents(), 1u);
}

TEST(IncidentEngine, DarkCauseClassification)
{
    using obs::EventKind;
    // Trial 0: a DG start fails outright before the lights go out.
    // Trial 1: the DG is cranking but the battery dies first.
    std::vector<obs::TraceEvent> events = {
        ev(0, EventKind::Availability, 0, 1.0),
        ev(1, EventKind::OutageStart, fromMinutes(10.0), 1.0, 0.0, 1),
        ev(2, EventKind::DgStart, fromMinutes(10.0), 0.0, 0.0, 1),
        ev(3, EventKind::DgStartFailed, fromMinutes(10.0), 0.0, 0.0, 1),
        ev(4, EventKind::PowerLost, fromMinutes(15.0), 1.0, 0.0, 1),
        ev(5, EventKind::Availability, fromMinutes(15.0), 0.0, 0.0, 1),
        ev(6, EventKind::OutageEnd, fromMinutes(25.0), 0.0, 0.0, 1),
        ev(7, EventKind::Availability, fromMinutes(25.0), 1.0, 0.0, 1),
        ev(8, EventKind::TrialEnd, kYear, 10.0, 0.0),

        ev(0, EventKind::Availability, 0, 1.0, 0.0, 0, 1),
        ev(1, EventKind::OutageStart, fromMinutes(10.0), 1.0, 0.0, 1, 1),
        ev(2, EventKind::UpsDischarge, fromMinutes(10.0), 1.0, 0.0, 1, 1),
        ev(3, EventKind::DgStart, fromMinutes(10.0), 0.0, 0.0, 1, 1),
        ev(4, EventKind::BackupDepleted, fromMinutes(12.0), 0.0, 0.0, 1,
           1),
        ev(5, EventKind::PowerLost, fromMinutes(12.0), 1.0, 0.0, 1, 1),
        ev(6, EventKind::Availability, fromMinutes(12.0), 0.0, 0.0, 1, 1),
        ev(7, EventKind::OutageEnd, fromMinutes(20.0), 0.0, 0.0, 1, 1),
        ev(8, EventKind::Availability, fromMinutes(20.0), 1.0, 0.0, 1, 1),
        ev(9, EventKind::TrialEnd, kYear, 8.0, 0.0, 0, 1),
    };
    const auto report = obs::buildIncidentReport(events);

    ASSERT_EQ(report.incidents.size(), 2u);
    EXPECT_EQ(report.incidents[0].primaryCause(),
              obs::RootCause::DgStartFailure);
    EXPECT_NEAR(causeMin(report.incidents[0].attributedMin,
                         obs::RootCause::DgStartFailure),
                10.0, 1e-9);

    EXPECT_TRUE(report.incidents[1].backupDepleted);
    EXPECT_EQ(report.incidents[1].primaryCause(),
              obs::RootCause::UpsExhaustedBeforeDg);
    EXPECT_NEAR(causeMin(report.incidents[1].attributedMin,
                         obs::RootCause::UpsExhaustedBeforeDg),
                8.0, 1e-9);

    EXPECT_EQ(report.aggregate.incidentsByPrimaryCause(
                  obs::RootCause::DgStartFailure),
              1u);
    EXPECT_EQ(report.aggregate.incidentsByPrimaryCause(
                  obs::RootCause::UpsExhaustedBeforeDg),
              1u);
}

TEST(IncidentEngine, RecomputeDebtLandsInThePrevailingCause)
{
    using obs::EventKind;
    std::vector<obs::TraceEvent> events = {
        ev(0, EventKind::Availability, 0, 1.0),
        ev(1, EventKind::OutageStart, fromMinutes(10.0), 1.0, 0.0, 1),
        ev(2, EventKind::PowerLost, fromMinutes(10.0), 1.0, 0.0, 1),
        ev(3, EventKind::Availability, fromMinutes(10.0), 0.0, 0.0, 1),
        // 120 s of recompute debt charged while the floor is dark.
        ev(4, EventKind::Recompute, fromMinutes(10.0), 120.0, 0.0, 1),
        ev(5, EventKind::OutageEnd, fromMinutes(15.0), 0.0, 0.0, 1),
        ev(6, EventKind::Availability, fromMinutes(15.0), 1.0, 0.0, 1),
        ev(7, EventKind::TrialEnd, kYear, 7.0, 0.0),
    };
    const auto report = obs::buildIncidentReport(events);
    ASSERT_EQ(report.incidents.size(), 1u);
    // 5 dark minutes + 2 minutes of recompute debt, same bucket.
    EXPECT_NEAR(causeMin(report.incidents[0].attributedMin,
                         obs::RootCause::CapacityShortfall),
                7.0, 1e-9);
    EXPECT_NEAR(report.trials[0].residualMin(), 0.0, 1e-9);
}

TEST(IncidentEngine, AggregateJsonRoundTrips)
{
    obs::Context evidence;
    const ShardResult shard = runLossy(evidence);
    ASSERT_FALSE(shard.incidents.empty());

    const std::string first = aggregateJson(shard.incidents);
    std::string err;
    const auto doc = parseJson(first, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const auto rebuilt = obs::IncidentAggregate::fromJson(*doc);
    EXPECT_EQ(aggregateJson(rebuilt), first);
}

TEST(IncidentForensics, PerCauseMinutesSumExactlyToTrialTotal)
{
    obs::Context evidence;
    evidence.keepEvents = true;
    runLossy(evidence);
    const auto report = obs::buildIncidentReport(evidence.events());

    ASSERT_EQ(report.trials.size(), kTrials);
    double attributed_any = 0.0;
    for (const auto &t : report.trials) {
        ASSERT_TRUE(t.hasTrialEnd);
        // The per-cause buckets ARE the total: summing them in enum
        // order reproduces attributedTotalMin() bit for bit.
        double sum = 0.0;
        for (const double m : t.attributedMin)
            sum += m;
        EXPECT_EQ(sum, t.attributedTotalMin());
        // And the engine's integral reconciles with the simulator's
        // own downtime accounting to float noise.
        EXPECT_NEAR(t.residualMin(), 0.0,
                    1e-6 * std::max(1.0, t.reportedDowntimeMin));
        attributed_any += sum;
    }
    EXPECT_GT(attributed_any, 0.0)
        << "the lossy scenario must produce downtime to attribute";
}

TEST(IncidentForensics, IncidentIdsAreSequentialPerTrial)
{
    obs::Context evidence;
    evidence.keepEvents = true;
    runLossy(evidence);
    const auto &events = evidence.events();

    std::uint64_t trial = ~0ull;
    std::uint32_t last = 0, outages = 0;
    for (const auto &e : events) {
        if (e.trial != trial) {
            trial = e.trial;
            last = 0;
        }
        if (e.kind == obs::EventKind::OutageStart) {
            ++outages;
            EXPECT_EQ(e.incident, last + 1)
                << "trial " << trial << " outage ids must be dense";
            last = e.incident;
        }
    }
    EXPECT_GT(outages, 0u);
}

TEST(IncidentForensics, AggregateBitIdenticalForAnyThreadCount)
{
    const auto run = [](int threads) {
        obs::Context evidence;
        return aggregateJson(runLossy(evidence, threads).incidents);
    };
    const std::string serial = run(1);
    EXPECT_FALSE(serial.empty());
    for (const int threads : {4, 16})
        EXPECT_EQ(serial, run(threads))
            << "aggregate differs at " << threads << " threads";
}

TEST(IncidentForensics, AggregateBitIdenticalForAnyShardPartition)
{
    const auto merged = [](std::uint64_t shards) {
        std::vector<ShardResult> parts;
        for (std::uint64_t i = 0; i < shards; ++i) {
            obs::Context evidence;
            parts.push_back(runLossy(evidence, 1, i, shards));
        }
        std::string err;
        const auto m = mergeShards(std::move(parts), nullptr, &err);
        EXPECT_TRUE(m.has_value()) << err;
        return aggregateJson(m->incidents);
    };
    const std::string whole = merged(1);
    EXPECT_FALSE(whole.empty());
    for (const std::uint64_t shards : {2ull, 7ull})
        EXPECT_EQ(whole, merged(shards))
            << "merged aggregate differs at " << shards << " shards";
}

TEST(IncidentForensics, AggregateByteStableAgainstFixture)
{
    const std::string path =
        std::string(BPSIM_FIXTURE_DIR) + "/incidents_v1.json";

    obs::Context evidence;
    const ShardResult shard = runLossy(evidence);
    std::string got = aggregateJson(shard.incidents);
    got += '\n';

    if (std::getenv("BPSIM_WRITE_FIXTURES") != nullptr) {
        std::ofstream f(path);
        ASSERT_TRUE(f.good()) << path;
        f << got;
        GTEST_SKIP() << "fixture regenerated: " << path;
    }

    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << "missing fixture " << path;
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(got, want.str())
        << "incident aggregate drifted from the golden fixture: "
           "regenerate with BPSIM_WRITE_FIXTURES=1 if intentional";
}

TEST(IncidentForensics, ShardFileCarriesIncidentsAndRoundTrips)
{
    obs::Context evidence;
    const ShardResult shard = runLossy(evidence);
    ASSERT_FALSE(shard.incidents.empty());

    std::ostringstream os;
    writeShardJson(os, shard);
    EXPECT_NE(os.str().find("\"incidents\""), std::string::npos);

    std::string err;
    const auto back = readShardJson(os.str(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(aggregateJson(back->incidents),
              aggregateJson(shard.incidents));
}

} // namespace
} // namespace bpsim
