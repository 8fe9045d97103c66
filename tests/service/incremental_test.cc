/**
 * @file
 * Incremental trial reuse: extending a cached K-trial campaign to a
 * larger budget M must be byte-identical to simulating all M trials
 * fresh — response body, checkpoint JSON (summary, t-digests,
 * histograms, incidents) — for every Table-3 config / technique /
 * batch-size / thread-count combination exercised here, including
 * early-stopped trajectories and the K == M pure-replay case. The
 * service-level tests then prove the same through handle(), where the
 * checkpoint travels via the checkpoint cache.
 */

#include "service/service.hh"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

/** Build a validated request straight from the wire schema, then
 *  apply the execution knobs the schema deliberately does not expose. */
WhatIfRequest
makeRequest(const std::string &config, const std::string &technique,
            std::uint64_t trials, std::uint64_t batch, int threads)
{
    const std::string body = "{\"config\":\"" + config +
                             "\",\"servers\":4,\"trials\":" +
                             std::to_string(trials) +
                             ",\"seed\":2014,\"technique\":{\"kind\":\"" +
                             technique +
                             "\",\"pstate\":5,\"serve_for_min\":10.0,"
                             "\"low_power\":true}}";
    std::string err;
    const auto doc = parseJson(body, &err);
    if (!doc) {
        ADD_FAILURE() << err;
        return {};
    }
    auto req = parseWhatIfRequest(*doc, &err);
    if (!req) {
        ADD_FAILURE() << err;
        return {};
    }
    req->opts.batch = batch;
    req->opts.threads = threads;
    return *req;
}

std::string
checkpointJson(const CampaignCheckpoint &ckpt)
{
    std::ostringstream os;
    writeCheckpointJson(os, ckpt);
    return os.str();
}

HttpRequest
post(const std::string &body)
{
    HttpRequest req;
    req.method = "POST";
    req.target = "/v1/whatif";
    req.body = body;
    return req;
}

const std::string *
header(const HttpResponse &resp, const std::string &name)
{
    for (const auto &[k, v] : resp.headers)
        if (k == name)
            return &v;
    return nullptr;
}

} // namespace

TEST(IncrementalTest, ExtensionMatchesFreshRunAcrossTheMatrix)
{
    constexpr std::uint64_t kK = 24, kM = 60;
    const std::vector<std::string> configs = {"NoUPS", "LargeEUPS"};
    const std::vector<std::string> techniques = {"throttle",
                                                 "throttle_sleep",
                                                 "migration"};
    for (const auto &config : configs) {
        for (const auto &tech : techniques) {
            for (const std::uint64_t batch : {1u, 8u}) {
                for (const int threads : {1, 4}) {
                    SCOPED_TRACE(config + "/" + tech + " batch=" +
                                 std::to_string(batch) + " threads=" +
                                 std::to_string(threads));
                    const WhatIfRequest reqK = makeRequest(
                        config, tech, kK, batch, threads);
                    const WhatIfRequest reqM = makeRequest(
                        config, tech, kM, batch, threads);

                    const WhatIfExecution base = executeWhatIf(reqK);
                    EXPECT_EQ(base.executedTrials, kK);
                    EXPECT_FALSE(base.resumed);

                    const WhatIfExecution extended =
                        executeWhatIf(reqM, &base.checkpoint);
                    const WhatIfExecution fresh = executeWhatIf(reqM);

                    EXPECT_TRUE(extended.resumed);
                    EXPECT_EQ(extended.startTrial, kK);
                    EXPECT_EQ(extended.executedTrials, kM - kK);
                    EXPECT_EQ(extended.body, fresh.body);
                    EXPECT_EQ(checkpointJson(extended.checkpoint),
                              checkpointJson(fresh.checkpoint));
                }
            }
        }
    }
}

TEST(IncrementalTest, ExtensionAcrossMismatchedBatchAndThreads)
{
    // The checkpoint carries no execution-shape state at all: a K-run
    // produced scalar/1-thread must extend under batched/4-thread
    // execution (and vice versa) to the same bytes.
    constexpr std::uint64_t kK = 20, kM = 52;
    const WhatIfRequest reqK =
        makeRequest("MinCost", "throttle_sleep", kK, 1, 1);
    const WhatIfRequest reqM =
        makeRequest("MinCost", "throttle_sleep", kM, 8, 4);
    const WhatIfExecution base = executeWhatIf(reqK);
    const WhatIfExecution extended = executeWhatIf(reqM, &base.checkpoint);
    const WhatIfExecution fresh = executeWhatIf(reqM);
    EXPECT_TRUE(extended.resumed);
    EXPECT_EQ(extended.body, fresh.body);
    EXPECT_EQ(checkpointJson(extended.checkpoint),
              checkpointJson(fresh.checkpoint));
}

TEST(IncrementalTest, ObsAggregatesSurviveExtension)
{
    // A recording run's checkpoint also carries histograms and the
    // incident aggregate; the union (checkpoint + extension) must
    // equal the fresh run's capture bit for bit.
    const WhatIfRequest reqK = makeRequest("NoUPS", "throttle", 16, 1, 1);
    const WhatIfRequest reqM = makeRequest("NoUPS", "throttle", 40, 1, 1);
    obs::Context baseObs, extendedObs, freshObs;
    const WhatIfExecution base = executeWhatIf(reqK, nullptr, &baseObs);
    const WhatIfExecution extended =
        executeWhatIf(reqM, &base.checkpoint, &extendedObs);
    const WhatIfExecution fresh = executeWhatIf(reqM, nullptr, &freshObs);

    // With the obs layer compiled out (BPSIM_OBS=OFF) there are no
    // histograms to carry; the body/checkpoint equalities still hold.
#if BPSIM_OBS_ENABLED
    EXPECT_FALSE(extended.checkpoint.histograms.empty());
#endif
    EXPECT_EQ(extended.body, fresh.body);
    EXPECT_EQ(checkpointJson(extended.checkpoint),
              checkpointJson(fresh.checkpoint));
}

TEST(IncrementalTest, EarlyStoppedCheckpointExtendsAsAPureReplay)
{
    // A generous CI tolerance stops the campaign well under budget;
    // raising the budget afterwards must replay the stop decision
    // without simulating anything new.
    WhatIfRequest req1 = makeRequest("NoUPS", "throttle_sleep", 400, 1, 1);
    req1.opts.minTrials = 8;
    req1.opts.ciRelTol = 0.5;
    const WhatIfExecution base = executeWhatIf(req1);
    ASSERT_LT(base.checkpoint.trials, 400u);

    WhatIfRequest req2 = makeRequest("NoUPS", "throttle_sleep", 800, 1, 1);
    req2.opts.minTrials = 8;
    req2.opts.ciRelTol = 0.5;
    const WhatIfExecution extended = executeWhatIf(req2, &base.checkpoint);
    const WhatIfExecution fresh = executeWhatIf(req2);
    EXPECT_TRUE(extended.resumed);
    EXPECT_EQ(extended.executedTrials, 0u);
    EXPECT_EQ(extended.body, fresh.body);
}

TEST(IncrementalTest, SameBudgetIsAPureReplay)
{
    const WhatIfRequest req = makeRequest("NoUPS", "throttle", 32, 8, 4);
    const WhatIfExecution base = executeWhatIf(req);
    const WhatIfExecution replay = executeWhatIf(req, &base.checkpoint);
    EXPECT_TRUE(replay.resumed);
    EXPECT_EQ(replay.executedTrials, 0u);
    EXPECT_EQ(replay.startTrial, 32u);
    EXPECT_EQ(replay.body, base.body);
}

TEST(IncrementalTest, IncompatibleCheckpointsAreIgnored)
{
    const WhatIfRequest req = makeRequest("NoUPS", "throttle", 24, 1, 1);
    const WhatIfExecution base = executeWhatIf(req);

    // Wrong seed: the RNG stream family differs, resume would lie.
    WhatIfRequest other = req;
    other.opts.seed = 999;
    EXPECT_FALSE(executeWhatIf(other, &base.checkpoint).resumed);

    // Deeper than the request's budget: nothing to extend.
    WhatIfRequest smaller = makeRequest("NoUPS", "throttle", 8, 1, 1);
    EXPECT_FALSE(executeWhatIf(smaller, &base.checkpoint).resumed);

    // Foreign build: trajectories are not comparable across binaries.
    CampaignCheckpoint foreign = base.checkpoint;
    foreign.build = "not-this-build";
    const WhatIfExecution fresh = executeWhatIf(req, &foreign);
    EXPECT_FALSE(fresh.resumed);
    EXPECT_EQ(fresh.body, base.body);
}

TEST(IncrementalTest, ServiceResumesAcrossBudgetsThroughTheCache)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    CampaignService service(opts);

    const char *const kSmall =
        "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":16,\"seed\":3,"
        "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
        "\"serve_for_min\":10.0,\"low_power\":true}}";
    const char *const kLarge =
        "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":48,\"seed\":3,"
        "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
        "\"serve_for_min\":10.0,\"low_power\":true}}";

    const HttpResponse small = service.handle(post(kSmall));
    ASSERT_EQ(small.status, 200) << small.body;
    EXPECT_EQ(header(small, "X-Bpsim-Resumed-From"), nullptr);

    // The larger budget is a result-cache miss, but the checkpoint
    // stored by the first request seeds it at trial 16.
    const HttpResponse large = service.handle(post(kLarge));
    ASSERT_EQ(large.status, 200) << large.body;
    ASSERT_NE(header(large, "X-Bpsim-Cache"), nullptr);
    EXPECT_EQ(*header(large, "X-Bpsim-Cache"), "miss");
    ASSERT_NE(header(large, "X-Bpsim-Resumed-From"), nullptr);
    EXPECT_EQ(*header(large, "X-Bpsim-Resumed-From"), "16");
    EXPECT_GE(service.checkpointCache().stats().hits, 1u);

    // Byte-identical to a service that never saw the small request.
    ServiceOptions fresh_opts;
    fresh_opts.evaluateAlerts = false;
    CampaignService fresh(fresh_opts);
    const HttpResponse direct = fresh.handle(post(kLarge));
    ASSERT_EQ(direct.status, 200);
    EXPECT_EQ(header(direct, "X-Bpsim-Resumed-From"), nullptr);
    EXPECT_EQ(large.body, direct.body);
}

TEST(IncrementalTest, SmallerBudgetNeverClobbersADeeperCheckpoint)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    CampaignService service(opts);

    const auto body = [](std::uint64_t trials) {
        return "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":" +
               std::to_string(trials) +
               ",\"seed\":5,\"technique\":{\"kind\":\"throttle\","
               "\"pstate\":5}}";
    };
    service.handle(post(body(40)));
    // A shallower request reuses the 40-trial checkpoint as a replay
    // prefix and must leave it in place...
    const HttpResponse shallow = service.handle(post(body(12)));
    ASSERT_EQ(shallow.status, 200);
    ASSERT_NE(header(shallow, "X-Bpsim-Cache"), nullptr);
    EXPECT_EQ(*header(shallow, "X-Bpsim-Cache"), "miss");
    // (depth 40 > budget 12: incompatible, so this ran fresh)
    EXPECT_EQ(header(shallow, "X-Bpsim-Resumed-From"), nullptr);

    // ...so a later 64-trial request still resumes from 40, not 12.
    const HttpResponse deep = service.handle(post(body(64)));
    ASSERT_EQ(deep.status, 200);
    ASSERT_NE(header(deep, "X-Bpsim-Resumed-From"), nullptr);
    EXPECT_EQ(*header(deep, "X-Bpsim-Resumed-From"), "40");
}

TEST(IncrementalTest, OversizeCheckpointsAreNotStored)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.checkpointMaxBytes = 64; // nothing real fits in 64 bytes
    CampaignService service(opts);

    const char *const kBody =
        "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":12,\"seed\":9,"
        "\"technique\":{\"kind\":\"throttle\",\"pstate\":5}}";
    const HttpResponse first = service.handle(post(kBody));
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(service.checkpointCache().stats().insertions, 0u);

    const char *const kBigger =
        "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":24,\"seed\":9,"
        "\"technique\":{\"kind\":\"throttle\",\"pstate\":5}}";
    const HttpResponse second = service.handle(post(kBigger));
    ASSERT_EQ(second.status, 200);
    EXPECT_EQ(header(second, "X-Bpsim-Resumed-From"), nullptr);
}
