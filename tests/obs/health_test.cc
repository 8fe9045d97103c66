/**
 * @file
 * Health-engine tests: every declared rule is provoked by a synthetic
 * violation and verified silent on legal input, and a fixed-seed
 * campaign (trace + sampled signals + incident report) must come back
 * fully healthy — the rules exist to catch simulator defects, not to
 * second-guess correct physics.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/shard.hh"
#include "core/backup_config.hh"
#include "obs/health.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

/** The annual-trial horizon (same constant the shard runner uses). */
constexpr Time kYear = 365LL * 24 * kHour;

/** Build one synthetic event on trial 0. */
obs::TraceEvent
ev(std::uint32_t seq, obs::EventKind kind, Time t, double a = 0.0,
   double b = 0.0, std::uint32_t incident = 0)
{
    obs::TraceEvent e;
    e.trial = 0;
    e.seq = seq;
    e.incident = incident;
    e.kind = kind;
    e.simTime = t;
    e.a = a;
    e.b = b;
    return e;
}

/** Count findings for @p rule in @p report. */
std::uint64_t
count(const obs::HealthReport &report, const std::string &rule)
{
    const auto it = report.byRule.find(rule);
    return it == report.byRule.end() ? 0 : it->second;
}

TEST(HealthRules, TableIsDeclaredOnceAndWellFormed)
{
    const auto &rules = obs::healthRules();
    EXPECT_EQ(rules.size(), 8u);
    std::set<std::string> names;
    for (const auto &r : rules) {
        ASSERT_NE(r.name, nullptr);
        ASSERT_NE(r.description, nullptr);
        EXPECT_NE(std::string(r.name), "");
        EXPECT_NE(std::string(r.description), "");
        names.insert(r.name);
    }
    EXPECT_EQ(names.size(), rules.size()) << "rule names must be unique";
}

TEST(HealthChecks, SocOutOfBoundsIsCritical)
{
    const std::vector<obs::TraceEvent> events = {
        ev(0, obs::EventKind::BatterySoc, fromMinutes(1.0), 1.5, 1.0),
    };
    const auto report = obs::checkHealth(events);
    EXPECT_FALSE(report.healthy());
    EXPECT_EQ(count(report, "soc-bounds"), 1u);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].severity, obs::Severity::Critical);
    EXPECT_DOUBLE_EQ(report.findings[0].value, 1.5);
}

TEST(HealthChecks, SocRisingOnBatteryIsAWarning)
{
    const std::vector<obs::TraceEvent> events = {
        ev(0, obs::EventKind::OutageStart, 0, 1.0, 0.0, 1),
        ev(1, obs::EventKind::UpsDischarge, 0, 1.0, 0.0, 1),
        ev(2, obs::EventKind::BatterySoc, fromMinutes(1.0), 0.5, 0.5, 1),
        ev(3, obs::EventKind::BatterySoc, fromMinutes(2.0), 0.6, 0.6, 1),
    };
    const auto report = obs::checkHealth(events);
    EXPECT_EQ(count(report, "soc-monotone-on-battery"), 1u);
    // A falling SoC on battery is legal and stays silent.
    const std::vector<obs::TraceEvent> falling = {
        ev(0, obs::EventKind::OutageStart, 0, 1.0, 0.0, 1),
        ev(1, obs::EventKind::UpsDischarge, 0, 1.0, 0.0, 1),
        ev(2, obs::EventKind::BatterySoc, fromMinutes(1.0), 0.5, 0.5, 1),
        ev(3, obs::EventKind::BatterySoc, fromMinutes(2.0), 0.4, 0.4, 1),
    };
    EXPECT_EQ(count(obs::checkHealth(falling),
                    "soc-monotone-on-battery"),
              0u);
}

TEST(HealthChecks, IllegalDgTransitionIsCritical)
{
    const std::vector<obs::TraceEvent> events = {
        ev(0, obs::EventKind::OutageStart, 0, 1.0, 0.0, 1),
        ev(1, obs::EventKind::DgOnline, fromMinutes(1.0), 0.0, 0.0, 1),
    };
    const auto report = obs::checkHealth(events);
    EXPECT_EQ(count(report, "dg-state-machine"), 1u);
    EXPECT_FALSE(report.healthy());

    // The legal sequence stays silent.
    const std::vector<obs::TraceEvent> legal = {
        ev(0, obs::EventKind::OutageStart, 0, 1.0, 0.0, 1),
        ev(1, obs::EventKind::DgStart, 0, 0.0, 0.0, 1),
        ev(2, obs::EventKind::DgOnline, fromMinutes(1.0), 0.0, 0.0, 1),
        ev(3, obs::EventKind::DgCarrying, fromMinutes(2.0), 0.0, 0.0, 1),
        ev(4, obs::EventKind::OutageEnd, fromMinutes(9.0), 0.0, 0.0, 1),
    };
    EXPECT_TRUE(obs::checkHealth(legal).healthy());
}

TEST(HealthChecks, UnpairedOutageEventsAreCritical)
{
    const std::vector<obs::TraceEvent> events = {
        ev(0, obs::EventKind::OutageEnd, fromMinutes(1.0)),
        ev(1, obs::EventKind::PowerLost, fromMinutes(2.0), 1.0),
    };
    const auto report = obs::checkHealth(events);
    EXPECT_EQ(count(report, "outage-pairing"), 2u);
}

TEST(HealthChecks, NonSequentialIncidentIdsAreCritical)
{
    const std::vector<obs::TraceEvent> events = {
        ev(0, obs::EventKind::OutageStart, fromMinutes(1.0), 1.0, 0.0, 1),
        ev(1, obs::EventKind::OutageEnd, fromMinutes(2.0), 0.0, 0.0, 1),
        ev(2, obs::EventKind::OutageStart, fromMinutes(3.0), 1.0, 0.0, 3),
    };
    const auto report = obs::checkHealth(events);
    EXPECT_EQ(count(report, "incident-ids"), 1u);
}

TEST(HealthChecks, UnphysicalTrialTotalsAreWarnings)
{
    const std::vector<obs::TraceEvent> events = {
        ev(0, obs::EventKind::TrialEnd, kYear, -5.0, -1.0),
    };
    const auto report = obs::checkHealth(events);
    EXPECT_EQ(count(report, "trial-invariants"), 2u);
}

TEST(HealthChecks, PowerBalanceCatchesConjuredAndStarvedWatts)
{
    // Samples at two instants: t=1h conjures 100 W of surplus; t=2h
    // starves the load on healthy utility.
    std::vector<obs::SignalSample> rows;
    const auto add = [&](Time t, obs::SignalId sig, double v) {
        obs::SignalSample s;
        s.trial = 0;
        s.t = t;
        s.signal = sig;
        s.value = v;
        rows.push_back(s);
    };
    const Time t1 = fromSeconds(3600.0), t2 = fromSeconds(7200.0);
    add(t1, obs::SignalId::LoadW, 100.0);
    add(t1, obs::SignalId::UtilityW, 200.0);
    add(t1, obs::SignalId::BatteryW, 0.0);
    add(t1, obs::SignalId::DgW, 0.0);
    add(t2, obs::SignalId::LoadW, 100.0);
    add(t2, obs::SignalId::UtilityW, 0.0);
    add(t2, obs::SignalId::BatteryW, 0.0);
    add(t2, obs::SignalId::DgW, 0.0);
    const auto store = obs::TimeSeriesStore::fromSamples(rows);

    const std::vector<obs::TraceEvent> no_outage;
    const auto report = obs::checkHealth(no_outage, &store);
    EXPECT_EQ(count(report, "power-balance"), 2u);

    // The same starved sample inside an outage window is legal.
    const std::vector<obs::TraceEvent> outage = {
        ev(0, obs::EventKind::OutageStart, t2 - fromMinutes(5.0), 100.0,
           0.0, 1),
    };
    const auto in_outage = obs::checkHealth(outage, &store);
    EXPECT_EQ(count(in_outage, "power-balance"), 1u)
        << "only the surplus at t1 should remain";
}

TEST(HealthChecks, AttributionResidualIsAWarning)
{
    // The simulator claims 100 min of downtime but the trace shows a
    // perfectly available year: the books do not reconcile.
    const std::vector<obs::TraceEvent> events = {
        ev(0, obs::EventKind::Availability, 0, 1.0),
        ev(1, obs::EventKind::TrialEnd, kYear, 100.0, 0.0),
    };
    const auto forensics = obs::buildIncidentReport(events);
    const auto report =
        obs::checkHealth(events, nullptr, &forensics);
    EXPECT_EQ(count(report, "attribution-residual"), 1u);
    EXPECT_FALSE(report.healthy());
}

TEST(HealthChecks, FindingCapKeepsCountingPastIt)
{
    std::vector<obs::TraceEvent> events;
    for (std::uint32_t i = 0; i < 10; ++i)
        events.push_back(
            ev(i, obs::EventKind::BatterySoc, fromMinutes(i), 2.0, 0.0));
    obs::HealthOptions opts;
    opts.maxFindings = 3;
    const auto report = obs::checkHealth(events, nullptr, nullptr, opts);
    EXPECT_EQ(report.findings.size(), 3u);
    EXPECT_EQ(report.totalFindings, 10u);
    EXPECT_EQ(count(report, "soc-bounds"), 10u);
}

TEST(HealthChecks, CleanCampaignRunIsHealthy)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::ThrottleSleep, 5, 0, fromMinutes(4.0),
                      true};
    spec.config = minCostConfig();
    obs::Context evidence;
    evidence.sampleCadence = fromSeconds(3600.0);
    evidence.keepEvents = true;
    ShardOptions opts;
    opts.threads = 1;
    opts.obs = &evidence;
    runAnnualShard(spec, shardOf(2014, 8, 0, 1), opts);

    const auto &events = evidence.events();
    const auto store = obs::TimeSeriesStore::fromSamples(evidence.samples());

    ASSERT_FALSE(events.empty());
    ASSERT_FALSE(store.empty());
    const auto forensics = obs::buildIncidentReport(events);
    const auto report = obs::checkHealth(events, &store, &forensics);

    std::ostringstream why;
    for (const auto &f : report.findings)
        why << f.rule << " @ trial " << f.trial << ": " << f.message
            << "\n";
    EXPECT_TRUE(report.healthy()) << why.str();
    EXPECT_EQ(report.totalFindings, 0u) << why.str();
}

} // namespace
} // namespace bpsim
