/**
 * @file
 * Golden-trace determinism tests for the observability layer: a
 * fixed-seed campaign emits a trace that is byte-identical to a
 * checked-in fixture and byte-identical for ANY worker thread count
 * (per-trial records folded in trial order by obs::Context). The
 * `obs` ctest label runs these under TSan in CI — the golden
 * comparison doubles as a data-race detector for the records'
 * worker-to-fold hand-off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/json.hh"
#include "campaign/shard.hh"
#include "obs/context.hh"
#include "core/backup_config.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

constexpr std::uint64_t kSeed = 2014;
constexpr std::uint64_t kTrials = 8;

/**
 * A DG-bearing scenario so the trace exercises the full event
 * vocabulary: outage spans, UPS discharge, DG start/online/carrying,
 * technique phases, battery SoC crossings.
 */
AnnualCampaignSpec
dgSpec()
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::ThrottleSleep, 5, 0, fromMinutes(4.0),
                      true};
    spec.config = dgSmallPUpsConfig();
    return spec;
}

/** Run the fixed campaign on @p threads workers, recording into
 *  @p evidence (which keeps the events). */
ShardResult
runRecorded(int threads, obs::Context &evidence)
{
    evidence.keepEvents = true;
    ShardOptions opts;
    opts.threads = threads;
    opts.obs = &evidence;
    return runAnnualShard(dgSpec(), shardOf(kSeed, kTrials, 0, 1), opts);
}

/** The fixed campaign's trace on @p threads workers. */
std::vector<obs::TraceEvent>
runTraced(int threads)
{
    obs::Context evidence;
    runRecorded(threads, evidence);
    return evidence.events();
}

/** Deterministic Chrome-trace serialization (fixed provenance). */
std::string
chromeTraceString(const std::vector<obs::TraceEvent> &events)
{
    std::ostringstream os;
    obs::TraceExportOptions opts;
    opts.metadata = {{"build", "golden-fixture"}, {"seed", "2014"}};
    writeChromeTrace(os, events, opts);
    return os.str();
}

TEST(GoldenTrace, ByteStableAgainstFixture)
{
    const std::string path =
        std::string(BPSIM_FIXTURE_DIR) + "/trace_v1.json";
    const std::string got = chromeTraceString(runTraced(1));

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
        << "trace output drifted from the golden fixture: regenerate "
           "with BPSIM_WRITE_FIXTURES=1 if the change is intentional";
}

TEST(GoldenTrace, ByteIdenticalForAnyThreadCount)
{
    const std::string serial = chromeTraceString(runTraced(1));
    EXPECT_FALSE(serial.empty());
    for (const int threads : {4, 16}) {
        EXPECT_EQ(serial, chromeTraceString(runTraced(threads)))
            << "trace differs at " << threads << " threads";
    }
}

TEST(GoldenTrace, ExportReparsesAsJson)
{
    const std::string text = chromeTraceString(runTraced(1));
    std::string err;
    const auto doc = parseJson(text, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue &events = doc->at("traceEvents");
    ASSERT_GT(events.size(), 0u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const JsonValue &ev = events.item(i);
        EXPECT_NE(ev.find("name"), nullptr);
        EXPECT_NE(ev.find("ph"), nullptr);
        EXPECT_NE(ev.find("ts"), nullptr);
        EXPECT_NE(ev.find("tid"), nullptr);
    }
    EXPECT_EQ(doc->at("metadata").at("build").asString(),
              "golden-fixture");
}

TEST(GoldenTrace, EventStreamIsWellFormed)
{
    const auto events = runTraced(1);
    ASSERT_FALSE(events.empty());

    std::map<std::uint64_t, std::uint32_t> next_seq;
    std::uint64_t trial_starts = 0, outage_b = 0, outage_e = 0;
    std::uint64_t dg_starts = 0, dg_carrying = 0, phases = 0;
    for (const auto &ev : events) {
        EXPECT_LT(ev.trial, kTrials);
        // (trial, seq) must be the dense per-trial emission order.
        EXPECT_EQ(ev.seq, next_seq[ev.trial]++);
        switch (ev.kind) {
          case obs::EventKind::TrialStart: ++trial_starts; break;
          case obs::EventKind::OutageStart: ++outage_b; break;
          case obs::EventKind::OutageEnd: ++outage_e; break;
          case obs::EventKind::DgStart: ++dg_starts; break;
          case obs::EventKind::DgCarrying: ++dg_carrying; break;
          case obs::EventKind::Phase:
            ++phases;
            EXPECT_NE(ev.detail[0], '\0')
                << "phase events carry the technique name";
            break;
          default: break;
        }
    }
    EXPECT_EQ(trial_starts, kTrials);
    EXPECT_GT(outage_b, 0u);
    // An outage can straddle the end of the simulated year, so spans
    // may be left open — but never closed more often than opened.
    EXPECT_LE(outage_e, outage_b);
    EXPECT_GT(dg_starts, 0u) << "DG scenario must crank the generator";
    EXPECT_GT(dg_carrying, 0u);
    EXPECT_GT(phases, 0u);
}

TEST(GoldenTrace, CountersAgreeWithTraceEvents)
{
    obs::Context evidence;
    const ShardResult shard = runRecorded(1, evidence);
    const auto &events = evidence.events();

    std::uint64_t outages = 0, dg_starts = 0;
    for (const auto &ev : events) {
        if (ev.kind == obs::EventKind::OutageStart)
            ++outages;
        if (ev.kind == obs::EventKind::DgStart)
            ++dg_starts;
    }
    ASSERT_NE(shard.counters.find("power.outages"),
              shard.counters.end());
    EXPECT_EQ(shard.counters.at("power.outages"), outages);
    ASSERT_NE(shard.counters.find("dg.starts"), shard.counters.end());
    EXPECT_EQ(shard.counters.at("dg.starts"), dg_starts);
}

TEST(GoldenTrace, PerTrialCapDropsDeterministically)
{
    // The cap keeps exactly the first kMaxEventsPerTrial emissions of
    // a trial — seq keeps advancing past the cap, so which events
    // survive does not depend on anything but the trial itself.
    constexpr std::uint32_t kExtra = 4;
    obs::TrialRecord record;
    {
        const obs::TrialScope scope(3, &record); // emits trial-start
        for (std::uint32_t i = 0; i < obs::kMaxEventsPerTrial - 1 + kExtra;
             ++i)
            obs::TraceSink::emit(obs::EventKind::Custom, i, "tick");
    }
    ASSERT_EQ(record.events.size(), obs::kMaxEventsPerTrial);
    EXPECT_EQ(record.seq, obs::kMaxEventsPerTrial + kExtra);
    for (std::uint32_t i = 0; i < record.events.size(); ++i) {
        EXPECT_EQ(record.events[i].trial, 3u);
        ASSERT_EQ(record.events[i].seq, i);
    }
    EXPECT_EQ(record.events.back().simTime,
              static_cast<Time>(obs::kMaxEventsPerTrial - 2));
}

TEST(TrialScope, NestsAndTagsEvents)
{
    obs::TrialRecord outer_rec, inner_rec;
    {
        const obs::TrialScope outer(5, &outer_rec);
        obs::TraceSink::emit(obs::EventKind::Custom, 10, "outer-a");
        {
            const obs::TrialScope inner(7, &inner_rec);
            obs::TraceSink::emit(obs::EventKind::Custom, 20, "inner");
        }
        obs::TraceSink::emit(obs::EventKind::Custom, 30, "outer-b");
    }
    EXPECT_FALSE(obs::enabled());
    // Each record holds its TrialStart marker plus its Custom events.
    const auto &events = outer_rec.events;
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].trial, 5u); // trial-start(5)
    EXPECT_EQ(events[1].trial, 5u); // outer-a
    EXPECT_EQ(events[1].seq, 1u);
    EXPECT_EQ(events[2].trial, 5u); // outer-b resumes the outer seq
    EXPECT_EQ(events[2].seq, 2u);
    EXPECT_STREQ(events[2].name, "outer-b");
    ASSERT_EQ(inner_rec.events.size(), 2u);
    EXPECT_EQ(inner_rec.events[0].trial, 7u); // trial-start(7)
    EXPECT_EQ(inner_rec.events[1].trial, 7u); // inner
    EXPECT_EQ(inner_rec.events[1].seq, 1u);
}

TEST(EventVocabulary, NamesAndCategoriesAreExhaustive)
{
    // Every EventKind — including ones added later — must carry a
    // real name and category: exporters and the forensics report
    // render these strings, and "unknown" in a trace means someone
    // extended the enum without teaching the vocabulary functions.
    std::set<std::string> names;
    for (std::size_t i = 0; i < obs::kEventKindCount; ++i) {
        const auto kind = static_cast<obs::EventKind>(i);
        const char *name = obs::kindName(kind);
        ASSERT_NE(name, nullptr) << "kind " << i;
        EXPECT_STRNE(name, "") << "kind " << i;
        EXPECT_STRNE(name, "unknown") << "kind " << i;
        names.insert(name);
        const char *category = obs::kindCategory(kind);
        ASSERT_NE(category, nullptr) << "kind " << i;
        EXPECT_STRNE(category, "") << "kind " << i;
        EXPECT_STRNE(category, "unknown") << "kind " << i;
    }
    EXPECT_EQ(names.size(), obs::kEventKindCount)
        << "kind names must be pairwise distinct";
}

TEST(TraceSink, EmitIsANoOpWhileDisabled)
{
    // No record on this thread: emission lands nowhere, and a record
    // opened afterwards starts clean.
    ASSERT_FALSE(obs::enabled());
    obs::TraceSink::emit(obs::EventKind::Custom, 1, "ignored");
    {
        const obs::TrialScope unrecorded(1, nullptr);
        EXPECT_FALSE(obs::enabled());
        obs::TraceSink::emit(obs::EventKind::Custom, 2, "ignored");
    }
    obs::TrialRecord record;
    {
        const obs::TrialScope scope(2, &record);
        EXPECT_TRUE(obs::enabled());
    }
    ASSERT_EQ(record.events.size(), 1u);
    EXPECT_EQ(record.events[0].kind, obs::EventKind::TrialStart);
}

} // namespace
} // namespace bpsim
