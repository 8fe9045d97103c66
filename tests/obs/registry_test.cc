/**
 * @file
 * Property tests for the obs metric registry and exporters: counter
 * merge is associative/commutative (the shard-merge invariant), timer
 * accumulation is monotonic, every exported JSON document re-parses
 * with parseJson and matches the in-memory snapshot, and shard files
 * carry counters through a byte-stable round trip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/json.hh"
#include "campaign/shard.hh"
#include "core/backup_config.hh"
#include "obs/context.hh"
#include "obs/obs.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap
merged(const CounterMap &a, const CounterMap &b)
{
    CounterMap out = a;
    obs::mergeCounters(out, b);
    return out;
}

TEST(Counters, MergeIsAssociativeAndCommutative)
{
    const CounterMap a{{"x", 1}, {"y", 10}};
    const CounterMap b{{"y", 5}, {"z", 7}};
    const CounterMap c{{"x", 100}, {"z", 3}};

    EXPECT_EQ(merged(merged(a, b), c), merged(a, merged(b, c)));
    EXPECT_EQ(merged(a, b), merged(b, a));
    EXPECT_EQ(merged(a, CounterMap{}), a);

    const CounterMap all = merged(merged(a, b), c);
    EXPECT_EQ(all.at("x"), 101u);
    EXPECT_EQ(all.at("y"), 15u);
    EXPECT_EQ(all.at("z"), 10u);
}

TEST(Registry, CounterGaugeTimerRoundTripValues)
{
    obs::Registry reg;
    reg.counter("t.count").add(3);
    reg.counter("t.count").add(2);
    reg.gauge("t.gauge").set(-1234.5);
    reg.timer("t.timer").add(1500000000); // 1.5 s

    EXPECT_EQ(reg.counterSnapshot().at("t.count"), 5u);
    EXPECT_EQ(reg.gaugeSnapshot().at("t.gauge"), -1234.5);
    EXPECT_DOUBLE_EQ(reg.timerSnapshot().at("t.timer").seconds, 1.5);
    EXPECT_EQ(reg.timerSnapshot().at("t.timer").count, 1u);

    // reset() zeroes values but keeps registrations (and references).
    obs::Counter &cached = reg.counter("t.count");
    reg.reset();
    EXPECT_EQ(reg.counterSnapshot().at("t.count"), 0u);
    cached.add(1);
    EXPECT_EQ(reg.counterSnapshot().at("t.count"), 1u);
}

TEST(Registry, LazyCounterRegistersOnItsFirstAdd)
{
    obs::Registry reg;
    obs::LazyCounter hits(&reg, "cache.hits");
    EXPECT_TRUE(reg.counterSnapshot().empty());
    hits.add();
    hits.add(2);
    const auto snap = reg.counterSnapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap.at("cache.hits"), 3u);
    EXPECT_EQ(reg.counter("cache.hits").value(), 3u);

    obs::LazyCounter nowhere(nullptr, "cache.hits");
    nowhere.add(); // counts nothing, and must not crash
    EXPECT_EQ(reg.counter("cache.hits").value(), 3u);
}

TEST(Registry, TimersAccumulateMonotonically)
{
    obs::Registry reg;
    {
        const obs::ScopedTimer t(&reg.timer("t.mono"));
    }
    const auto first = reg.timerSnapshot().at("t.mono");
    EXPECT_EQ(first.count, 1u);
    EXPECT_GE(first.seconds, 0.0);
    {
        const obs::ScopedTimer t(&reg.timer("t.mono"));
    }
    const auto second = reg.timerSnapshot().at("t.mono");
    EXPECT_EQ(second.count, 2u);
    EXPECT_GE(second.seconds, first.seconds);
}

TEST(Registry, RecordingCampaignWithoutRegistryPublishesNothing)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = noDgConfig();
    AnnualCampaignOptions opts;
    opts.maxTrials = 8;
    opts.seed = 5;

    // With a registry, the campaign publishes its folded trials and
    // its campaign.* totals there.
    obs::Registry reg;
    obs::Context published;
    published.registry = &reg;
    opts.obs = &published;
    runAnnualCampaign(spec, opts);
    const auto counters = reg.counterSnapshot();
    const auto histograms = reg.histogramSnapshot();
    EXPECT_EQ(counters.at("campaign.trials"), 8u);
    EXPECT_GT(counters.at("power.outages"), 0u);
    EXPECT_FALSE(histograms.empty());
    EXPECT_EQ(reg.timerSnapshot().at("campaign.run").count, 1u);
    ASSERT_EQ(reg.gaugeSnapshot().count("campaign.trials_per_sec"), 1u);

    // Without one, the same campaign records the same deltas into its
    // Context and publishes nothing: the registry is as it was.
    obs::Context silent;
    opts.obs = &silent;
    runAnnualCampaign(spec, opts);
    EXPECT_EQ(silent.deltas().counters, published.deltas().counters);
    EXPECT_EQ(reg.counterSnapshot(), counters);
    EXPECT_EQ(reg.timerSnapshot().at("campaign.run").count, 1u);
    const auto after = reg.histogramSnapshot();
    ASSERT_EQ(after.size(), histograms.size());
    for (const auto &[name, snap] : histograms)
        EXPECT_EQ(after.at(name).count(), snap.count()) << name;
}

TEST(MetricsJson, RoundTripsThroughParseJson)
{
    obs::Registry reg;
    reg.counter("events").add(42);
    reg.gauge("trials_per_sec").set(12345.0625);
    reg.timer("run").add(2000000000); // 2 s

    std::ostringstream os;
    writeMetricsJson(os, reg,
                     {{"build", "test-build"}, {"seed", "99"}});

    std::string err;
    const auto doc = parseJson(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->at("schema").asString(), "bpsim.obs.metrics");
    EXPECT_EQ(doc->at("build").asString(), "test-build");
    EXPECT_EQ(doc->at("seed").asString(), "99");
    EXPECT_EQ(doc->at("counters").at("events").asUint(), 42u);
    EXPECT_EQ(doc->at("gauges").at("trials_per_sec").asDouble(),
              12345.0625);
    EXPECT_DOUBLE_EQ(doc->at("timers").at("run").at("seconds").asDouble(),
                     2.0);
    EXPECT_EQ(doc->at("timers").at("run").at("count").asUint(), 1u);
}

TEST(ChromeTrace, RoundTripsThroughParseJson)
{
    std::vector<obs::TraceEvent> events;
    obs::TraceEvent begin;
    begin.trial = 3;
    begin.seq = 0;
    begin.kind = obs::EventKind::OutageStart;
    begin.simTime = 1000;
    begin.name = "outage";
    begin.a = 2500.25;
    events.push_back(begin);

    obs::TraceEvent inst;
    inst.trial = 3;
    inst.seq = 1;
    inst.kind = obs::EventKind::Custom;
    inst.simTime = 1500;
    inst.name = "note";
    inst.a = std::numeric_limits<double>::infinity(); // must clamp
    inst.setDetail("say \"hi\"\\");                   // must escape
    events.push_back(inst);

    obs::TraceEvent end = begin;
    end.seq = 2;
    end.kind = obs::EventKind::OutageEnd;
    end.simTime = 9000;
    events.push_back(end);

    std::ostringstream os;
    obs::TraceExportOptions opts;
    opts.metadata = {{"k", "v"}};
    writeChromeTrace(os, events, opts);

    std::string err;
    const auto doc = parseJson(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue &tes = doc->at("traceEvents");
    ASSERT_EQ(tes.size(), 3u);
    EXPECT_EQ(tes.item(0).at("ph").asString(), "B");
    EXPECT_EQ(tes.item(0).at("ts").asInt(), 1000);
    EXPECT_EQ(tes.item(0).at("tid").asUint(), 3u);
    EXPECT_EQ(tes.item(0).at("args").at("a").asDouble(), 2500.25);
    EXPECT_EQ(tes.item(1).at("ph").asString(), "i");
    EXPECT_EQ(tes.item(1).at("args").at("a").asDouble(), 0.0)
        << "non-finite payloads must clamp to 0";
    EXPECT_EQ(tes.item(1).at("args").at("detail").asString(),
              "say \"hi\"\\");
    EXPECT_EQ(tes.item(2).at("ph").asString(), "E");
    EXPECT_EQ(doc->at("metadata").at("k").asString(), "v");
}

TEST(TraceCsv, OneHeaderAndOneRowPerEvent)
{
    std::vector<obs::TraceEvent> events(3);
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].trial = 1;
        events[i].seq = static_cast<std::uint32_t>(i);
        events[i].kind = obs::EventKind::Custom;
        events[i].name = "row";
        events[i].simTime = static_cast<Time>(i) * 10;
    }
    std::ostringstream os;
    writeTraceCsv(os, events);
    std::istringstream is(os.str());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0], "trial,seq,incident,category,event,name,detail,sim_us,a,b");
    EXPECT_EQ(lines[2], "1,1,0,custom,custom,row,,10,0,0");
}

TEST(ShardCounters, RideShardFilesAndMergeKeyWise)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = noDgConfig();
    constexpr std::uint64_t kSeed = 99, kTrials = 32;

    const auto recorded = [&](std::uint64_t index, std::uint64_t count) {
        obs::Context evidence;
        ShardOptions opts;
        opts.obs = &evidence;
        return runAnnualShard(spec, shardOf(kSeed, kTrials, index, count),
                              opts);
    };
    const ShardResult whole = recorded(0, 1);
    std::vector<ShardResult> halves;
    for (std::uint64_t i = 0; i < 2; ++i)
        halves.push_back(recorded(i, 2));

    ASSERT_FALSE(whole.counters.empty());
    EXPECT_GT(whole.counters.at("power.outages"), 0u);

    // Shard counter deltas recombine to the unsharded run's counts.
    CounterMap recombined;
    obs::mergeCounters(recombined, halves[0].counters);
    obs::mergeCounters(recombined, halves[1].counters);
    EXPECT_EQ(recombined, whole.counters);

    // Counters survive the shard-file round trip byte-stably.
    std::ostringstream os;
    writeShardJson(os, halves[0]);
    std::string err;
    const auto back = readShardJson(os.str(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->counters, halves[0].counters);
    std::ostringstream os2;
    writeShardJson(os2, *back);
    EXPECT_EQ(os.str(), os2.str());

    // And mergeShards folds them into the campaign aggregates.
    std::string merr;
    const auto merged = mergeShards(halves, nullptr, &merr);
    ASSERT_TRUE(merged.has_value()) << merr;
    EXPECT_EQ(merged->counters, whole.counters);
}

TEST(ShardCounters, AbsentWhenObservabilityIsDisabled)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = noDgConfig();

    ASSERT_FALSE(obs::enabled());
    const ShardResult shard =
        runAnnualShard(spec, shardOf(99, 8, 0, 1), {});
    EXPECT_TRUE(shard.counters.empty());

    // ...and the shard file then has no "counters" member at all, so
    // uninstrumented files keep the exact schema-v1 bytes.
    std::ostringstream os;
    writeShardJson(os, shard);
    EXPECT_EQ(os.str().find("\"counters\""), std::string::npos);
}

} // namespace
} // namespace bpsim
