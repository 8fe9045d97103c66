/**
 * @file
 * What-if query tests: schema validation of untrusted request
 * bodies, canonical cache-key construction, and the determinism
 * contract — the served document is byte-identical to the batch
 * (campaign_sweep --deterministic) export of the same scenario.
 */

#include "service/whatif.hh"

#include <sstream>

#include <gtest/gtest.h>

#include "campaign/json.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

/** Parse a request body that must be valid JSON. */
JsonValue
body(const std::string &text)
{
    std::string err;
    auto v = parseJson(text, &err);
    EXPECT_TRUE(v.has_value()) << err;
    return *v;
}

/** Expect the request to be rejected; return the reason. */
std::string
rejected(const std::string &text)
{
    std::string err;
    const auto req = parseWhatIfRequest(body(text), &err);
    EXPECT_FALSE(req.has_value()) << "unexpectedly accepted: " << text;
    EXPECT_FALSE(err.empty());
    return err;
}

} // namespace

TEST(WhatIfParse, MinimalRequestGetsDefaults)
{
    std::string err;
    const auto req =
        parseWhatIfRequest(body("{\"config\":\"LargeEUPS\"}"), &err);
    ASSERT_TRUE(req.has_value()) << err;
    EXPECT_EQ(req->spec.config.name, "LargeEUPS");
    EXPECT_EQ(req->spec.nServers, 8);
    EXPECT_EQ(req->opts.maxTrials, 200u);
    EXPECT_EQ(req->opts.seed, 2014u);
    // Early stop defaults off: fixed budgets cache better.
    EXPECT_EQ(req->opts.ciRelTol, 0.0);
    EXPECT_EQ(req->opts.ciAbsTolMin, 0.0);
}

TEST(WhatIfParse, FullRequestWithTechniqueAndCustomConfig)
{
    std::string err;
    const auto req = parseWhatIfRequest(
        body("{\"config\":{\"name\":\"mine\",\"has_dg\":false,"
             "\"has_ups\":true,\"ups_power_frac\":0.5,"
             "\"ups_runtime_sec\":120},"
             "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
             "\"serve_for_min\":10.0,\"low_power\":true},"
             "\"servers\":16,\"trials\":32,\"seed\":7}"),
        &err);
    ASSERT_TRUE(req.has_value()) << err;
    EXPECT_EQ(req->spec.config.name, "mine");
    EXPECT_FALSE(req->spec.config.hasDg);
    EXPECT_TRUE(req->spec.config.hasUps);
    EXPECT_EQ(req->spec.config.upsPowerFrac, 0.5);
    EXPECT_EQ(req->spec.technique.kind, TechniqueKind::ThrottleSleep);
    EXPECT_EQ(req->spec.technique.pstate, 5);
    EXPECT_EQ(req->spec.nServers, 16);
    EXPECT_EQ(req->opts.maxTrials, 32u);
    EXPECT_EQ(req->opts.seed, 7u);
}

TEST(WhatIfParse, RejectsSchemaViolations)
{
    EXPECT_NE(rejected("{}").find("config"), std::string::npos);
    EXPECT_NE(rejected("{\"config\":\"NoSuchConfig\"}")
                  .find("unknown config"),
              std::string::npos);
    EXPECT_NE(rejected("{\"config\":\"NoDG\",\"trials\":\"many\"}")
                  .find("trials"),
              std::string::npos);
    EXPECT_NE(rejected("{\"config\":\"NoDG\",\"trials\":0}")
                  .find("trials"),
              std::string::npos);
    EXPECT_NE(rejected("{\"config\":\"NoDG\",\"servers\":0}")
                  .find("servers"),
              std::string::npos);
    EXPECT_NE(rejected("{\"config\":\"NoDG\","
                       "\"technique\":{\"kind\":\"warp_drive\"}}")
                  .find("technique"),
              std::string::npos);
    EXPECT_NE(rejected("{\"config\":\"NoDG\",\"ci_rel_tol\":-1}")
                  .find("non-negative"),
              std::string::npos);
    // Not an object at all.
    std::string err;
    EXPECT_FALSE(parseWhatIfRequest(body("[1,2,3]"), &err).has_value());
}

TEST(WhatIfParse, EnforcesSizingLimits)
{
    WhatIfLimits limits;
    limits.maxTrials = 10;
    limits.maxServers = 4;
    std::string err;
    EXPECT_FALSE(parseWhatIfRequest(
                     body("{\"config\":\"NoDG\",\"trials\":11}"), &err,
                     limits)
                     .has_value());
    EXPECT_FALSE(parseWhatIfRequest(
                     body("{\"config\":\"NoDG\",\"servers\":5}"), &err,
                     limits)
                     .has_value());
    EXPECT_TRUE(parseWhatIfRequest(
                    body("{\"config\":\"NoDG\",\"trials\":10,"
                         "\"servers\":4}"),
                    &err, limits)
                    .has_value())
        << err;
}

TEST(WhatIfParse, TechniqueKindNamesRoundTrip)
{
    for (const TechniqueKind k :
         {TechniqueKind::None, TechniqueKind::Throttle,
          TechniqueKind::Sleep, TechniqueKind::Hibernate,
          TechniqueKind::ProactiveHibernate, TechniqueKind::Migration,
          TechniqueKind::ProactiveMigration,
          TechniqueKind::MigrationSleep, TechniqueKind::ThrottleSleep,
          TechniqueKind::ThrottleHibernate, TechniqueKind::GeoFailover,
          TechniqueKind::Adaptive}) {
        const auto back = techniqueKindFromName(techniqueKindName(k));
        ASSERT_TRUE(back.has_value()) << techniqueKindName(k);
        EXPECT_EQ(*back, k);
    }
    EXPECT_FALSE(techniqueKindFromName("warp_drive").has_value());
}

TEST(WhatIfKey, CanonicalKeyIsStableAndDiscriminating)
{
    const auto req = parseWhatIfRequest(
        body("{\"config\":\"LargeEUPS\",\"trials\":32,\"seed\":7}"));
    ASSERT_TRUE(req.has_value());
    const std::string key = canonicalCacheKey(*req);
    EXPECT_EQ(key, canonicalCacheKey(*req)); // pure function
    EXPECT_NE(key.find("whatif.v1|"), std::string::npos);
    EXPECT_NE(key.find("config=LargeEUPS"), std::string::npos);
    EXPECT_NE(key.find("seed=7"), std::string::npos);
    // A rebuilt binary must never serve a stale line.
    EXPECT_NE(key.find(buildId()), std::string::npos);

    // Every result-determining field must discriminate.
    auto seed = *req;
    seed.opts.seed = 8;
    EXPECT_NE(canonicalCacheKey(seed), key);
    auto trials = *req;
    trials.opts.maxTrials = 33;
    EXPECT_NE(canonicalCacheKey(trials), key);
    auto config = *req;
    config.spec.config.upsRuntimeSec += 1.0;
    EXPECT_NE(canonicalCacheKey(config), key);
    auto tech = *req;
    tech.spec.technique.kind = TechniqueKind::Sleep;
    EXPECT_NE(canonicalCacheKey(tech), key);
}

TEST(WhatIfRun, MatchesDeterministicBatchExport)
{
    const auto req = parseWhatIfRequest(
        body("{\"config\":\"NoDG\",\"trials\":8,\"seed\":11,"
             "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
             "\"serve_for_min\":10.0,\"low_power\":true}}"));
    ASSERT_TRUE(req.has_value());

    // The service runner...
    const std::string served = runWhatIf(*req);
    // ...against what campaign_sweep --deterministic would export.
    const AnnualCampaignSummary s =
        runAnnualCampaign(req->spec, req->opts);
    std::ostringstream os;
    CampaignJsonOptions jopts;
    jopts.includeTiming = false;
    writeCampaignJson(os, s, jopts);
    EXPECT_EQ(served, os.str());

    // And the contract that makes caching sound: byte-identical on
    // re-run (no wall-clock fields, bit-identical aggregates).
    EXPECT_EQ(served, runWhatIf(*req));
    EXPECT_EQ(served.find("wall_seconds"), std::string::npos);
    EXPECT_EQ(served.find("trials_per_sec"), std::string::npos);
}

TEST(WhatIfRun, AdaptiveOnAHalfPowerUpsRuns)
{
    // Adaptive weighs levels above a half-power UPS's rating; the UPS
    // cannot carry them, so they have no runway and are never picked
    // (the battery model has no runtime past its rated power).
    for (const char *config : {"DG-SmallPUPS", "SmallPUPS",
                               "SmallDG-SmallPUPS", "SmallP-LargeEUPS"}) {
        for (const int servers : {1, 8}) {
            const std::string text =
                std::string("{\"config\":\"") + config +
                "\",\"servers\":" + std::to_string(servers) +
                ",\"trials\":8,\"technique\":{\"kind\":\"adaptive\"}}";
            SCOPED_TRACE(text);
            std::string err;
            const auto req = parseWhatIfRequest(body(text), &err);
            ASSERT_TRUE(req.has_value()) << err;
            const auto doc = parseJson(runWhatIf(*req));
            ASSERT_TRUE(doc.has_value());
            EXPECT_EQ(doc->at("trials").asUint(), 8u);
        }
    }
}
