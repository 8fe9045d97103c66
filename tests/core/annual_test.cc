/**
 * @file
 * Tests for the annual (multi-outage) availability simulator, one
 * year at a time and as a campaign of years.
 */

#include <gtest/gtest.h>

#include "campaign/annual_campaign.hh"
#include "core/annual.hh"

namespace bpsim
{
namespace
{

constexpr Time kYear = 365LL * 24 * kHour;

std::vector<OutageEvent>
threeOutages()
{
    return {{10 * kHour, 2 * kMinute},
            {100 * 24 * kHour, 10 * kMinute},
            {200 * 24 * kHour, kHour}};
}

TEST(Annual, QuietYearIsPerfect)
{
    AnnualSimulator sim;
    const auto r = sim.runYear(specJbbProfile(), 4, {}, maxPerfConfig(),
                               {});
    EXPECT_EQ(r.outages, 0);
    EXPECT_EQ(r.losses, 0);
    EXPECT_NEAR(r.downtimeMin, 0.0, 1e-6);
    EXPECT_NEAR(r.meanPerf, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(r.batteryKwh, 0.0);
}

TEST(Annual, MaxPerfRidesThroughEverything)
{
    AnnualSimulator sim;
    const auto r = sim.runYear(specJbbProfile(), 4, {}, maxPerfConfig(),
                               threeOutages());
    EXPECT_EQ(r.outages, 3);
    EXPECT_EQ(r.losses, 0);
    EXPECT_NEAR(r.downtimeMin, 0.0, 1e-3);
    EXPECT_GT(r.batteryKwh, 0.0); // bridged the DG transfers
}

TEST(Annual, MinCostAccumulatesOutageAndRecoveryTime)
{
    AnnualSimulator sim;
    const auto r = sim.runYear(specJbbProfile(), 4, {}, minCostConfig(),
                               threeOutages());
    EXPECT_EQ(r.losses, 3);
    // Sum of outages (72 min) plus ~400 s of recovery per event.
    EXPECT_NEAR(r.downtimeMin, 72.0 + 3.0 * 400.0 / 60.0, 3.0);
    EXPECT_GT(r.worstGapMin, 60.0); // the one-hour outage
}

TEST(Annual, BatteryRechargesBetweenOutages)
{
    // Two full-load outages, each within the battery runtime, half a
    // year apart: both must be ridden through.
    AnnualSimulator sim;
    TechniqueSpec throttle{TechniqueKind::Throttle, 6, 0, 0, false};
    const std::vector<OutageEvent> events{
        {10 * kHour, 5 * kMinute}, {180 * 24 * kHour, 5 * kMinute}};
    const auto r = sim.runYear(specJbbProfile(), 4, throttle,
                               noDgConfig(), events);
    EXPECT_EQ(r.losses, 0);
    EXPECT_NEAR(r.downtimeMin, 0.0, 1e-3);
}

TEST(Annual, SleepDefenseBoundsDowntimeToOutages)
{
    AnnualSimulator sim;
    TechniqueSpec sleep{TechniqueKind::Sleep, 0, 0, 0, true};
    const auto r = sim.runYear(specJbbProfile(), 4, sleep, noDgConfig(),
                               threeOutages());
    EXPECT_EQ(r.losses, 0);
    // Downtime ~= total outage time + one resume per event.
    EXPECT_NEAR(r.downtimeMin, 72.0 + 3.0 * 8.0 / 60.0, 1.0);
}

/** @p years Figure 1 years of one scenario, as a campaign. */
AnnualCampaignSummary
campaignOf(const TechniqueSpec &technique, const BackupConfigSpec &config,
           std::uint64_t years, std::uint64_t seed)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = technique;
    spec.config = config;
    AnnualCampaignOptions opts;
    opts.maxTrials = years;
    opts.seed = seed;
    return runAnnualCampaign(spec, opts);
}

TEST(Annual, SummaryAggregatesAcrossYears)
{
    TechniqueSpec sleep{TechniqueKind::Sleep, 0, 0, 0, true};
    const auto s = campaignOf(sleep, largeEUpsConfig(), 20, 99);
    EXPECT_EQ(s.downtimeMin.count(), 20u);
    EXPECT_GT(s.meanPerf.mean(), 0.99); // outages are rare
    EXPECT_DOUBLE_EQ(s.lossFree.fraction, 1.0); // sleep never crashes
    // Battery energy and worst-gap reach the summary too.
    EXPECT_EQ(s.batteryKwh.count(), 20u);
    EXPECT_EQ(s.worstGapMin.count(), 20u);
    EXPECT_GT(s.batteryKwh.max(), 0.0);    // some year saw an outage
    EXPECT_GT(s.worstGapMin.max(), 0.0);   // sleep's downtime gaps
    EXPECT_GE(s.worstGapMin.min(), 0.0);
}

TEST(Annual, DeterministicGivenSeed)
{
    TechniqueSpec throttle{TechniqueKind::Throttle, 5, 0, 0, false};
    const auto a = campaignOf(throttle, largeEUpsConfig(), 5, 7);
    const auto b = campaignOf(throttle, largeEUpsConfig(), 5, 7);
    EXPECT_DOUBLE_EQ(a.downtimeMin.mean(), b.downtimeMin.mean());
    EXPECT_DOUBLE_EQ(a.meanPerf.mean(), b.meanPerf.mean());
}

TEST(Annual, MoreBackupNeverHurtsAvailability)
{
    TechniqueSpec throttle{TechniqueKind::Throttle, 6, 0, 0, false};
    const auto small = campaignOf(throttle, noDgConfig(), 10, 5);
    const auto large = campaignOf(throttle, largeEUpsConfig(), 10, 5);
    EXPECT_LE(large.downtimeMin.mean(), small.downtimeMin.mean() + 1e-6);
    EXPECT_GE(large.lossFree.fraction, small.lossFree.fraction);
}

TEST(Annual, RejectsOutagesBeyondTheYear)
{
    AnnualSimulator sim;
    EXPECT_DEATH(sim.runYear(specJbbProfile(), 4, {}, maxPerfConfig(),
                             {{kYear - kMinute, 2 * kMinute}}),
                 "beyond the year");
}

} // namespace
} // namespace bpsim
