/**
 * @file
 * Tests for the Cluster's cached fold terms and its host->app index.
 *
 * The cluster folds one cached term per server and per application
 * instead of re-reading every element on each change. These tests
 * recompute the folds from the live elements, in the same
 * left-to-right order, and demand exact equality: the annual results
 * and the batched kernel both depend on the folds being bit-identical
 * to the live sums.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/backup_config.hh"
#include "outage/trace.hh"
#include "sim/random.hh"
#include "technique/catalog.hh"
#include "workload/cluster.hh"
#include "workload/load_profile.hh"

namespace bpsim
{
namespace
{

constexpr Time kYear = 365LL * 24 * kHour;

/** Probes keep running this long after each outage ends (recovery,
 *  migrate-back, DG cool-down all happen inside it). */
constexpr Time kProbeTail = 2 * kHour;

/** Left folds over the live elements, in index order. */
struct LiveFold
{
    Watts power = 0.0;
    double perf = 0.0;
    double avail = 0.0;
    int active = 0;
};

LiveFold
liveFold(Cluster &c)
{
    LiveFold f;
    double up = 0.0;
    for (int i = 0; i < c.size(); ++i) {
        f.power += c.server(i).powerW();
        if (c.server(i).state() == ServerState::Active)
            ++f.active;
    }
    for (int i = 0; i < c.size(); ++i) {
        f.perf += c.app(i).perf();
        if (c.app(i).available())
            up += 1.0;
    }
    f.perf /= static_cast<double>(c.size());
    f.avail = up / static_cast<double>(c.size());
    return f;
}

/** One annual-trial stack (as AnnualSimulator::runYear builds it)
 *  with a Stats-priority probe every minute of every outage window. */
struct ProbedYear
{
    ProbedYear(const std::vector<WorkloadProfile> &profiles,
               const TechniqueSpec &spec, const BackupConfigSpec &config)
        : utility(sim),
          hierarchy(sim, utility,
                    toHierarchyConfig(
                        config, ServerModel{}.params().peakPowerW *
                                    static_cast<double>(profiles.size()))),
          cluster(sim, hierarchy, ServerModel{}, profiles),
          technique(makeTechnique(spec))
    {
        technique->attach(sim, cluster, hierarchy);
        cluster.primeSteadyState();
    }

    /** Schedule @p events and their probes, then run the year. */
    void
    run(const std::vector<OutageEvent> &events)
    {
        for (const auto &ev : events) {
            utility.scheduleOutage(ev.start, ev.duration);
            const Time stop = std::min(kYear, ev.end() + kProbeTail);
            for (Time t = ev.start; t <= stop; t += kMinute)
                sim.at(t, [this] { probe(); }, "terms-probe",
                       EventPriority::Stats);
        }
        sim.runUntil(kYear);
    }

    void
    probe()
    {
        const LiveFold live = liveFold(cluster);
        EXPECT_EQ(cluster.totalPowerW(), live.power) << "t=" << sim.now();
        EXPECT_EQ(cluster.aggregatePerf(), live.perf) << "t=" << sim.now();
        EXPECT_EQ(cluster.availability(), live.avail) << "t=" << sim.now();
        EXPECT_EQ(cluster.activeServers(), live.active)
            << "t=" << sim.now();
        ++probes;
    }

    Simulator sim;
    Utility utility;
    PowerHierarchy hierarchy;
    Cluster cluster;
    std::unique_ptr<Technique> technique;
    int probes = 0;
};

/** One spec per technique kind, parameterized as the benches use them. */
std::vector<TechniqueSpec>
everyKind()
{
    return {
        {TechniqueKind::None},
        {TechniqueKind::Throttle, 5},
        {TechniqueKind::Sleep},
        {TechniqueKind::Hibernate},
        {TechniqueKind::ProactiveHibernate},
        {TechniqueKind::Migration},
        {TechniqueKind::ProactiveMigration},
        {TechniqueKind::MigrationSleep},
        {TechniqueKind::ThrottleSleep, 5, 0, 2 * kMinute},
        {TechniqueKind::ThrottleHibernate, 5, 0, 2 * kMinute},
        {TechniqueKind::GeoFailover},
        {TechniqueKind::Adaptive},
    };
}

std::vector<BackupConfigSpec>
probedConfigs()
{
    return {dgSmallPUpsConfig(), smallPUpsConfig(), largeEUpsConfig(),
            noUpsConfig()};
}

std::vector<OutageEvent>
seededYear(std::uint64_t seed)
{
    Rng rng = Rng::stream(seed, 0);
    return OutageTraceGenerator::figure1().generate(rng, kYear);
}

TEST(ClusterTerms, FoldsMatchLiveElementsForEveryTechniqueAndConfig)
{
    const std::vector<WorkloadProfile> eight(8, specJbbProfile());
    for (const std::uint64_t seed : {11u, 12u}) {
        const auto events = seededYear(seed);
        ASSERT_FALSE(events.empty());
        for (const auto &config : probedConfigs()) {
            for (const auto &spec : everyKind()) {
                SCOPED_TRACE(config.name + " / " + spec.label() +
                             " / seed " + std::to_string(seed));
                ProbedYear y(eight, spec, config);
                y.run(events);
                EXPECT_GT(y.probes, 0);
            }
        }
    }
}

TEST(ClusterTerms, FoldsMatchLiveElementsOnAHeterogeneousCluster)
{
    const std::vector<WorkloadProfile> mixed = {
        specJbbProfile(), memcachedProfile(), webSearchProfile(),
        specCpuMcfProfile(), memcachedProfile(), specJbbProfile()};
    const auto events = seededYear(21);
    for (const auto &spec : everyKind()) {
        SCOPED_TRACE(spec.label());
        ProbedYear y(mixed, spec, largeEUpsConfig());
        y.run(events);
        EXPECT_GT(y.probes, 0);
    }
}

TEST(ClusterTerms, FoldsMatchLiveElementsUnderADiurnalLoadProfile)
{
    const std::vector<WorkloadProfile> six(6, specJbbProfile());
    const auto events = seededYear(31);
    for (const auto &spec :
         {TechniqueSpec{TechniqueKind::Throttle, 5},
          TechniqueSpec{TechniqueKind::Migration},
          TechniqueSpec{TechniqueKind::Sleep}}) {
        SCOPED_TRACE(spec.label());
        ProbedYear y(six, spec, largeEUpsConfig());
        DiurnalLoadDriver load(y.sim, y.cluster, {});
        load.start();
        y.run(events);
        EXPECT_GT(y.probes, 0);
    }
}

/** Bare cluster behind a big UPS: hosts are moved by hand. */
struct IndexFixture
{
    static PowerHierarchy::Config
    bigUps()
    {
        PowerHierarchy::Config c;
        c.hasDg = false;
        c.hasUps = true;
        c.ups.powerCapacityW = 8 * 250.0;
        c.ups.runtimeAtRatedSec = 3600.0;
        return c;
    }

    IndexFixture()
        : utility(sim), hierarchy(sim, utility, bigUps()),
          cluster(sim, hierarchy, ServerModel{}, specJbbProfile(), 6)
    {
        cluster.primeSteadyState();
    }

    /** Apps currently in the Lost phase. */
    std::vector<int>
    lostApps()
    {
        std::vector<int> lost;
        for (int i = 0; i < cluster.size(); ++i) {
            if (cluster.app(i).phase() == AppPhase::Lost)
                lost.push_back(i);
        }
        return lost;
    }

    Simulator sim;
    Utility utility;
    PowerHierarchy hierarchy;
    Cluster cluster;
};

TEST(ClusterTerms, HostIndexFollowsConsolidationAndRehoming)
{
    IndexFixture f;
    constexpr int k = 3;
    Application &moved = f.cluster.app(k);
    Server &host = f.cluster.server(k - 1);
    Server &home = f.cluster.server(k);

    // Consolidate app k onto host k-1, as MigrationTechnique does.
    moved.beginMigration();
    moved.completeMigration(&host, 0.5);
    f.cluster.app(k - 1).setShare(0.5);
    home.shutdown();

    host.crash();
    EXPECT_EQ(f.lostApps(), (std::vector<int>{k - 1, k}));
    const LiveFold live = liveFold(f.cluster);
    EXPECT_EQ(f.cluster.aggregatePerf(), live.perf);
    EXPECT_EQ(f.cluster.availability(), live.avail);

    // Re-home app k, as MigrationTechnique::onPowerLost does, and
    // bring both machines back: a crash of server k reaches app k
    // again and nothing else.
    moved.completeMigration(moved.home(), 1.0);
    f.cluster.app(k - 1).setShare(1.0);
    host.boot(kMinute);
    home.boot(kMinute);
    f.sim.runUntil(f.sim.now() + 2 * kHour);
    ASSERT_TRUE(f.lostApps().empty());
    ASSERT_EQ(moved.phase(), AppPhase::Serving);

    home.crash();
    EXPECT_EQ(f.lostApps(), (std::vector<int>{k}));
    const LiveFold after = liveFold(f.cluster);
    EXPECT_EQ(f.cluster.totalPowerW(), after.power);
    EXPECT_EQ(f.cluster.aggregatePerf(), after.perf);
    EXPECT_EQ(f.cluster.availability(), after.avail);
    EXPECT_EQ(f.cluster.activeServers(), after.active);
}

} // namespace
} // namespace bpsim
