/**
 * @file
 * Integration tests for PowerHierarchy: source arbitration, battery
 * bridging, DG takeover, depletion, overload and restoration.
 */

#include <gtest/gtest.h>

#include <vector>

#include "power/power_hierarchy.hh"

namespace bpsim
{
namespace
{

/** Records every listener callback with its timestamp. */
class Recorder : public PowerHierarchy::Listener
{
  public:
    struct Entry
    {
        std::string what;
        Time at;
    };

    void outageStarted(Time t) override { log.push_back({"outage", t}); }
    void powerLost(Time t) override { log.push_back({"lost", t}); }
    void dgCarrying(Time t) override { log.push_back({"dg", t}); }
    void backupDepleted(Time t) override { log.push_back({"depleted", t}); }
    void utilityRestored(Time t) override { log.push_back({"restored", t}); }

    bool
    has(const std::string &what) const
    {
        for (const auto &e : log) {
            if (e.what == what)
                return true;
        }
        return false;
    }

    Time
    timeOf(const std::string &what) const
    {
        for (const auto &e : log) {
            if (e.what == what)
                return e.at;
        }
        return kTimeNever;
    }

    std::vector<Entry> log;
};

PowerHierarchy::Config
upsOnly(double power_w = 2000.0, double runtime_sec = 120.0)
{
    PowerHierarchy::Config c;
    c.hasDg = false;
    c.hasUps = true;
    c.ups.powerCapacityW = power_w;
    c.ups.runtimeAtRatedSec = runtime_sec;
    return c;
}

PowerHierarchy::Config
upsAndDg(double power_w = 2000.0)
{
    PowerHierarchy::Config c = upsOnly(power_w);
    c.hasDg = true;
    c.dg.powerCapacityW = power_w;
    return c;
}

TEST(PowerHierarchy, SuppliesLoadFromUtilityInSteadyState)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly());
    h.setLoad(1500.0);
    sim.runUntil(kMinute);
    EXPECT_EQ(h.mode(), PowerHierarchy::Mode::OnUtility);
    EXPECT_TRUE(h.powered());
    EXPECT_DOUBLE_EQ(h.meter().fromUtility().lastValue(), 1500.0);
    EXPECT_DOUBLE_EQ(h.meter().fromBattery().lastValue(), 0.0);
}

TEST(PowerHierarchy, BatteryCarriesOutageWithinRuntime)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly());
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(2000.0);
    u.scheduleOutage(kMinute, fromSeconds(90.0)); // 90 s < 120 s runtime
    sim.runUntil(10 * kMinute);
    EXPECT_TRUE(rec.has("outage"));
    EXPECT_TRUE(rec.has("restored"));
    EXPECT_FALSE(rec.has("lost"));
    EXPECT_FALSE(rec.has("depleted"));
    EXPECT_EQ(h.mode(), PowerHierarchy::Mode::OnUtility);
    // ~90 s at 2 kW came from the battery.
    EXPECT_NEAR(joulesToKwh(h.meter().batteryEnergyJ(0, 10 * kMinute)),
                2.0 * 90.0 / 3600.0, 1e-3);
}

TEST(PowerHierarchy, BatteryDepletionLosesPower)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly());
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(2000.0); // full rated load -> exactly 120 s of battery
    u.scheduleOutage(kMinute, 10 * kMinute);
    sim.runUntil(20 * kMinute);
    EXPECT_TRUE(rec.has("depleted"));
    EXPECT_TRUE(rec.has("lost"));
    // Depletion lands ~120 s after the outage began.
    EXPECT_NEAR(toSeconds(rec.timeOf("depleted") - kMinute), 120.0, 1.0);
    EXPECT_EQ(h.powerLossCount(), 1);
}

TEST(PowerHierarchy, LowerLoadExtendsBatteryPeukertStyle)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly());
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(1000.0); // half load: 120 * 2^1.29 ~ 294 s
    u.scheduleOutage(kMinute, 10 * kMinute);
    sim.runUntil(20 * kMinute);
    ASSERT_TRUE(rec.has("depleted"));
    EXPECT_NEAR(toSeconds(rec.timeOf("depleted") - kMinute), 293.9, 3.0);
}

TEST(PowerHierarchy, NoUpsLosesPowerAfterRideThrough)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy::Config c;
    c.hasDg = false;
    c.hasUps = false;
    PowerHierarchy h(sim, u, c);
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(1000.0);
    u.scheduleOutage(kMinute, kMinute);
    sim.runUntil(10 * kMinute);
    ASSERT_TRUE(rec.has("lost"));
    EXPECT_NEAR(toSeconds(rec.timeOf("lost") - kMinute), 0.030, 0.001);
}

TEST(PowerHierarchy, OverloadedUpsLosesPowerAtTransfer)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly(1000.0));
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(1500.0); // exceeds the 1 kW UPS
    u.scheduleOutage(kMinute, kMinute);
    sim.runUntil(10 * kMinute);
    ASSERT_TRUE(rec.has("lost"));
    EXPECT_LT(rec.timeOf("lost") - kMinute, 50 * kMillisecond);
}

TEST(PowerHierarchy, SheddingLoadAtOutageStartAvoidsOverload)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly(1000.0, 600.0));
    Recorder rec;
    h.addListener(&rec);

    // A "technique": immediately throttle when the outage starts.
    class Shedder : public PowerHierarchy::Listener
    {
      public:
        explicit Shedder(PowerHierarchy &h) : h(h) {}
        void outageStarted(Time) override { h.setLoad(800.0); }
        PowerHierarchy &h;
    } shedder(h);
    h.addListener(&shedder);

    h.setLoad(1500.0);
    u.scheduleOutage(kMinute, 2 * kMinute);
    sim.runUntil(10 * kMinute);
    EXPECT_FALSE(rec.has("lost"));
    EXPECT_TRUE(rec.has("restored"));
}

TEST(PowerHierarchy, DgTakesOverAfterStartAndRamp)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsAndDg());
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(1200.0);
    u.scheduleOutage(kMinute, kHour);
    sim.runUntil(2 * kHour);
    ASSERT_TRUE(rec.has("dg"));
    EXPECT_FALSE(rec.has("lost"));
    // DG fully carries within the paper's ~2-3 min window.
    const double takeover_sec = toSeconds(rec.timeOf("dg") - kMinute);
    EXPECT_GE(takeover_sec, 60.0);
    EXPECT_LE(takeover_sec, 180.0);
    EXPECT_EQ(h.mode(), PowerHierarchy::Mode::OnUtility); // restored
}

TEST(PowerHierarchy, BatteryBridgesOnlyTheTransferWindow)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsAndDg());
    h.setLoad(1200.0);
    u.scheduleOutage(kMinute, kHour);
    sim.runUntil(2 * kHour);
    // The battery supplied strictly less than the full bridge at full
    // load (the DG ramp progressively relieves it) and nothing after.
    const Joules bridge = h.meter().batteryEnergyJ(0, 2 * kHour);
    EXPECT_GT(bridge, 0.0);
    EXPECT_LT(bridge, 1200.0 * 145.0);
    // After the DG carries, battery draw is zero.
    EXPECT_DOUBLE_EQ(
        h.meter().fromBattery().average(10 * kMinute, kHour), 0.0);
}

TEST(PowerHierarchy, DgReEnergizesCrashedLoadWithoutUps)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy::Config c;
    c.hasUps = false;
    c.hasDg = true;
    c.dg.powerCapacityW = 2000.0;
    PowerHierarchy h(sim, u, c);
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(1000.0);
    u.scheduleOutage(kMinute, kHour);
    sim.runUntil(2 * kHour);
    ASSERT_TRUE(rec.has("lost"));
    ASSERT_TRUE(rec.has("dg"));
    EXPECT_GT(rec.timeOf("dg"), rec.timeOf("lost"));
}

TEST(PowerHierarchy, RestorationStopsDgAndRecharges)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsAndDg());
    h.setLoad(1000.0);
    u.scheduleOutage(kMinute, 10 * kMinute);
    sim.runUntil(kHour);
    EXPECT_EQ(h.mode(), PowerHierarchy::Mode::OnUtility);
    EXPECT_EQ(h.dg()->state(), DieselGenerator::State::Off);
    // Several hours later the battery is fully recharged.
    sim.runUntil(12 * kHour);
    h.setLoad(1000.0); // force a sync
    EXPECT_NEAR(h.ups()->battery().soc(), 1.0, 1e-6);
}

TEST(PowerHierarchy, TimeToBatteryEmptyTracksLoad)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly());
    h.setLoad(2000.0);
    EXPECT_EQ(h.timeToBatteryEmpty(), kTimeNever); // on utility
    u.scheduleOutage(kMinute, 10 * kMinute);
    sim.runUntil(kMinute + kSecond);
    EXPECT_NEAR(toSeconds(h.timeToBatteryEmpty()), 119.0, 1.5);
}

TEST(PowerHierarchy, ZeroLoadOutageHarmless)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly());
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(0.0);
    u.scheduleOutage(kMinute, kHour);
    sim.runUntil(2 * kHour);
    EXPECT_FALSE(rec.has("depleted"));
    EXPECT_EQ(h.powerLossCount(), 0);
}

TEST(PowerHierarchy, RepeatedOutagesWithRechargeBetween)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly(2000.0, 600.0));
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(2000.0);
    // Two 4-minute outages separated by 6 hours of recharge.
    u.scheduleOutage(kMinute, 4 * kMinute);
    u.scheduleOutage(6 * kHour, 4 * kMinute);
    sim.runUntil(12 * kHour);
    EXPECT_FALSE(rec.has("lost"));
    EXPECT_EQ(u.outagesSeen(), 2);
}

TEST(PowerHierarchy, BackToBackOutagesWithoutRechargeFail)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly(2000.0, 600.0));
    Recorder rec;
    h.addListener(&rec);
    h.setLoad(2000.0);
    // 8 of 10 minutes drained, then a second hit 30 s later.
    u.scheduleOutage(kMinute, 8 * kMinute);
    u.scheduleOutage(9 * kMinute + 30 * kSecond, 5 * kMinute);
    sim.runUntil(kHour);
    EXPECT_TRUE(rec.has("lost"));
}

TEST(PowerHierarchy, OnlineUpsTransfersInstantly)
{
    // Double-conversion (online) placement: the battery carries from
    // the first instant, with no ride-through gap at all.
    Simulator sim;
    Utility u(sim);
    PowerHierarchy::Config c = upsOnly();
    c.ups.placement = Ups::Placement::Online;
    PowerHierarchy h(sim, u, c);
    h.setLoad(1000.0);
    u.scheduleOutage(kMinute, kMinute);
    sim.runUntil(kMinute + 5 * kMillisecond);
    EXPECT_EQ(h.mode(), PowerHierarchy::Mode::OnBattery);
    EXPECT_DOUBLE_EQ(h.meter().fromBattery().lastValue(), 1000.0);
}

TEST(PowerHierarchy, OfflineUpsHasTheTenMillisecondGap)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly());
    h.setLoad(1000.0);
    u.scheduleOutage(kMinute, kMinute);
    sim.runUntil(kMinute + 5 * kMillisecond);
    EXPECT_EQ(h.mode(), PowerHierarchy::Mode::RideThrough);
    sim.runUntil(kMinute + 15 * kMillisecond);
    EXPECT_EQ(h.mode(), PowerHierarchy::Mode::OnBattery);
}

TEST(PowerHierarchy, PeakShavingSkipsAnExcessOverTheUpsRating)
{
    // Shaving 1500 W off the top of a 2000 W load asks a 1000 W UPS
    // for more than it is rated to give. The grid keeps the whole
    // load; the battery is never asked for a runtime at that load
    // (such a question aborts in PeukertBattery). An excess the UPS
    // can carry is still shaved.
    Simulator sim;
    Utility u(sim);
    PowerHierarchy::Config cfg = upsOnly(1000.0, 600.0);
    cfg.peakShaveThresholdW = 500.0;
    PowerHierarchy h(sim, u, cfg);
    h.setLoad(2000.0);
    sim.runUntil(kMinute);
    EXPECT_EQ(h.mode(), PowerHierarchy::Mode::OnUtility);
    EXPECT_DOUBLE_EQ(h.batteryShareW(), 0.0);
    EXPECT_DOUBLE_EQ(h.utilityShareW(), 2000.0);

    h.setLoad(1200.0);
    sim.runUntil(2 * kMinute);
    EXPECT_DOUBLE_EQ(h.batteryShareW(), 700.0);
    EXPECT_DOUBLE_EQ(h.utilityShareW(), 500.0);
}

TEST(PowerHierarchy, NegativeLoadPanics)
{
    Simulator sim;
    Utility u(sim);
    PowerHierarchy h(sim, u, upsOnly());
    EXPECT_DEATH(h.setLoad(-5.0), "negative load");
}

} // namespace
} // namespace bpsim
