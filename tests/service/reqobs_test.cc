/**
 * @file
 * Request-observability tests: byte-stable access-log lines under an
 * injected stepping clock, client-id echo/validation, per-endpoint/
 * per-phase latency histograms and their OpenMetrics label rendering,
 * the /v1/status surface (including deterministic in-flight phases
 * via the coalescing test hook), Chrome-trace span export, and the
 * headline determinism regression: what-if bodies byte-identical with
 * the layer enabled, disabled, or compiled out, across the cache
 * miss / hit / resumed / coalesced paths.
 */

#include "service/service.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

/** A small fixed-budget scenario (identical to service_test's). */
const char *const kBody =
    "{\"config\":\"NoUPS\",\"trials\":6,\"seed\":11,"
    "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
    "\"serve_for_min\":10.0,\"low_power\":true}}";
/** The same scenario with a larger budget (resumes from 6 trials). */
const char *const kBodyBig =
    "{\"config\":\"NoUPS\",\"trials\":12,\"seed\":11,"
    "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
    "\"serve_for_min\":10.0,\"low_power\":true}}";
/** A distinct scenario for the coalescing path. */
const char *const kBodyCoal =
    "{\"config\":\"NoUPS\",\"trials\":8,\"seed\":13,"
    "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
    "\"serve_for_min\":10.0,\"low_power\":true}}";

HttpRequest
post(const std::string &target, const std::string &body)
{
    HttpRequest req;
    req.method = "POST";
    req.target = target;
    req.body = body;
    return req;
}

HttpRequest
get(const std::string &target)
{
    HttpRequest req;
    req.method = "GET";
    req.target = target;
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

/** A deterministic clock: call k returns exactly k milliseconds. */
std::function<std::uint64_t()>
steppingClock()
{
    auto t = std::make_shared<std::atomic<std::uint64_t>>(0);
    return [t] { return (t->fetch_add(1) + 1) * 1000000ull; };
}

/** The reference body computed directly by the campaign layer. */
std::string
reference(const char *body)
{
    std::string err;
    const auto parsed = parseJson(body, &err);
    EXPECT_TRUE(parsed.has_value()) << err;
    const auto req = parseWhatIfRequest(*parsed, &err);
    EXPECT_TRUE(req.has_value()) << err;
    return runWhatIf(*req);
}

} // namespace

TEST(RequestObsTest, AccessLogLineIsByteStableUnderFakeClock)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    std::ostringstream log;
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.reqobs.accessLogStream = &log;
    opts.reqobs.clock = steppingClock();
    CampaignService service(opts); // clock call 1 (boot)

    // Clock calls: 2 = admit, 3 = finish. No phase spans on a 404.
    const HttpResponse resp = service.handle(get("/nope"));
    EXPECT_EQ(resp.status, 404);
    const std::string expected =
        "{\"ts_us\":2000,\"id\":1,\"endpoint\":\"other\","
        "\"method\":\"GET\",\"status\":404,\"bytes_in\":0,"
        "\"bytes_out\":" +
        std::to_string(resp.body.size()) +
        ",\"total_us\":1000,\"phases\":{}}\n";
    EXPECT_EQ(log.str(), expected);
}

TEST(RequestObsTest, SlowRequestLogsFullPhaseSpans)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    std::ostringstream log;
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.reqobs.accessLogStream = &log;
    opts.reqobs.clock = steppingClock();
    opts.reqobs.slowMs = 0; // every request is slow
    CampaignService service(opts); // clock call 1 (boot)

    // Clock calls: 2 = admit, 3 = serialize-span begin, 4 = healthz
    // uptime read, 5 = serialize-span end, 6 = finish.
    const HttpResponse resp = service.handle(get("/healthz"));
    EXPECT_EQ(resp.status, 200);
    const std::string expected =
        "{\"ts_us\":2000,\"id\":1,\"endpoint\":\"healthz\","
        "\"method\":\"GET\",\"status\":200,\"bytes_in\":0,"
        "\"bytes_out\":" +
        std::to_string(resp.body.size()) +
        ",\"total_us\":4000,\"phases\":{\"serialize\":2000},"
        "\"slow\":true,\"spans\":[{\"phase\":\"serialize\","
        "\"begin_us\":1000,\"end_us\":3000}]}\n";
    EXPECT_EQ(log.str(), expected);
    EXPECT_EQ(service.requestObserver().slowRequests(), 1u);
}

TEST(RequestObsTest, RequestIdEchoedAndClientIdValidated)
{
    std::ostringstream log;
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.reqobs.accessLogStream = &log;
    CampaignService service(opts);

    // Server-assigned ids are monotonic decimals.
    const HttpResponse first = service.handle(get("/healthz"));
    ASSERT_NE(header(first, "X-Bpsim-Request-Id"), nullptr);
    EXPECT_EQ(*header(first, "X-Bpsim-Request-Id"), "1");
    const HttpResponse second = service.handle(get("/healthz"));
    EXPECT_EQ(*header(second, "X-Bpsim-Request-Id"), "2");

    // A well-formed client id is echoed back (and logged).
    HttpRequest req = get("/healthz");
    req.headers.emplace_back("x-bpsim-request-id", "req_42.trace-A");
    const HttpResponse echoed = service.handle(req);
    EXPECT_EQ(*header(echoed, "X-Bpsim-Request-Id"), "req_42.trace-A");

    // Malformed ids (bad chars, too long) fall back to the numeric id.
    HttpRequest bad = get("/healthz");
    bad.headers.emplace_back("x-bpsim-request-id", "no spaces!");
    EXPECT_EQ(*header(service.handle(bad), "X-Bpsim-Request-Id"), "4");
    HttpRequest longid = get("/healthz");
    longid.headers.emplace_back("x-bpsim-request-id",
                                std::string(65, 'a'));
    EXPECT_EQ(*header(service.handle(longid), "X-Bpsim-Request-Id"),
              "5");

    if (RequestObserver::kCompiledIn) {
        EXPECT_NE(log.str().find("\"client_id\":\"req_42.trace-A\""),
                  std::string::npos);
        EXPECT_EQ(log.str().find("no spaces!"), std::string::npos);
    }
}

TEST(RequestObsTest, LatencyHistogramsPerEndpointPhaseStatus)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    ServiceOptions opts;
    opts.evaluateAlerts = false;
    CampaignService service(opts);
    const obs::Registry &reg = service.registry();

    EXPECT_EQ(service.handle(post("/v1/whatif", kBody)).status, 200);
    EXPECT_EQ(service.handle(post("/v1/whatif", kBody)).status, 200);
    EXPECT_EQ(service.handle(get("/healthz")).status, 200);
    EXPECT_EQ(service.handle(get("/nope")).status, 404);

    const auto hists = reg.histogramSnapshot();
    const auto count = [&hists](const std::string &name) {
        for (const auto &[n, h] : hists)
            if (n == name)
                return h.count();
        return std::uint64_t{0};
    };
    EXPECT_EQ(count(requestMetricName(Endpoint::WhatIf, "total", 200)),
              2u);
    // Both what-ifs looked in the memory cache; only the miss ran a
    // campaign.
    EXPECT_EQ(
        count(requestMetricName(Endpoint::WhatIf, "cache_mem", 200)),
        2u);
    EXPECT_EQ(
        count(requestMetricName(Endpoint::WhatIf, "campaign", 200)),
        1u);
    EXPECT_EQ(
        count(requestMetricName(Endpoint::WhatIf, "parse", 200)), 2u);
    EXPECT_EQ(
        count(requestMetricName(Endpoint::Healthz, "total", 200)), 1u);
    EXPECT_EQ(count(requestMetricName(Endpoint::Other, "total", 404)),
              1u);

    // The '|'-encoded names render as one OpenMetrics family with
    // proper label sets (the PR-4 cumulative-bucket form).
    std::ostringstream om;
    obs::writeOpenMetrics(om, reg, {{"build", "test"}});
    const std::string text = om.str();
    EXPECT_NE(
        text.find("# TYPE bpsim_service_request_seconds histogram"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("bpsim_service_request_seconds_bucket{"
                        "endpoint=\"whatif\",phase=\"total\","
                        "status=\"200\",build=\"test\",le=\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("bpsim_service_request_seconds_count{"
                        "endpoint=\"whatif\",phase=\"campaign\","
                        "status=\"200\",build=\"test\"} 1"),
              std::string::npos)
        << text;
    // One TYPE line for the whole family, not one per label set.
    std::size_t types = 0;
    for (std::size_t at = 0;
         (at = text.find("# TYPE bpsim_service_request_seconds ",
                         at)) != std::string::npos;
         ++at)
        ++types;
    EXPECT_EQ(types, 1u);
}

TEST(RequestObsTest, WhatIfBodiesByteIdenticalWithLayerOnOffAcrossPaths)
{
    // The determinism regression the tentpole promises: run the four
    // serving paths (miss, memory hit, checkpoint resume, coalesced)
    // with the layer enabled and disabled; every body must match the
    // campaign layer's direct answer. Compiled out (BPSIM_OBS=OFF)
    // this test still runs and pins the same equalities.
    const std::string ref6 = reference(kBody);
    const std::string ref12 = reference(kBodyBig);
    const std::string refCoal = reference(kBodyCoal);

    struct Paths
    {
        std::string miss, hit, resumed;
        std::string resumedFrom;
        std::vector<std::string> coalesced;
    };
    const auto runPaths = [&](bool enabled) {
        ServiceOptions opts;
        opts.evaluateAlerts = false;
        opts.reqobs.enabled = enabled;
        opts.reqobs.slowMs = 0; // exercise the slow-span writer too
        std::ostringstream log;
        opts.reqobs.accessLogStream = enabled ? &log : nullptr;
        CampaignService *svc = nullptr;
        std::atomic<bool> armed{false};
        opts.testBeforeCampaign = [&svc, &armed] {
            if (!armed.exchange(false))
                return;
            while (svc->coalesceWaiters() < 1)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        };
        CampaignService service(opts);
        svc = &service;

        Paths out;
        out.miss = service.handle(post("/v1/whatif", kBody)).body;
        out.hit = service.handle(post("/v1/whatif", kBody)).body;
        const HttpResponse big =
            service.handle(post("/v1/whatif", kBodyBig));
        out.resumed = big.body;
        const std::string *from = header(big, "X-Bpsim-Resumed-From");
        out.resumedFrom = from != nullptr ? *from : "";

        // Two identical concurrent requests; the leader is held until
        // the follower has parked, so one of them is coalesced.
        armed.store(true);
        out.coalesced.resize(2);
        std::thread a([&service, &out] {
            out.coalesced[0] =
                service.handle(post("/v1/whatif", kBodyCoal)).body;
        });
        std::thread b([&service, &out] {
            out.coalesced[1] =
                service.handle(post("/v1/whatif", kBodyCoal)).body;
        });
        a.join();
        b.join();

        if (enabled && RequestObserver::kCompiledIn) {
            EXPECT_GT(service.requestObserver().accessLogLines(), 0u);
        } else {
            EXPECT_EQ(service.requestObserver().accessLogLines(), 0u);
        }
        return out;
    };

    const Paths on = runPaths(true);
    const Paths off = runPaths(false);

    EXPECT_EQ(on.miss, ref6);
    EXPECT_EQ(off.miss, ref6);
    EXPECT_EQ(on.hit, ref6);
    EXPECT_EQ(off.hit, ref6);
    EXPECT_EQ(on.resumed, ref12);
    EXPECT_EQ(off.resumed, ref12);
    EXPECT_EQ(on.resumedFrom, "6");
    EXPECT_EQ(off.resumedFrom, "6");
    EXPECT_EQ(on.coalesced[0], refCoal);
    EXPECT_EQ(on.coalesced[1], refCoal);
    EXPECT_EQ(off.coalesced[0], refCoal);
    EXPECT_EQ(off.coalesced[1], refCoal);
}

TEST(RequestObsTest, StatusReportsInflightPhasesAndCaches)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    CampaignService *svc = nullptr;
    std::atomic<bool> armed{false};
    std::atomic<bool> release{false};
    opts.testBeforeCampaign = [&svc, &armed, &release] {
        if (!armed.exchange(false))
            return;
        while (svc->coalesceWaiters() < 1 || !release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    CampaignService service(opts);
    svc = &service;

    // Hold a leader mid-flight with one parked follower, then look at
    // /v1/status from the outside: both must show as in-flight whatif
    // requests (leader past parse, follower waiting).
    armed.store(true);
    std::thread leader([&service] {
        EXPECT_EQ(service.handle(post("/v1/whatif", kBody)).status,
                  200);
    });
    std::thread follower([&service] {
        EXPECT_EQ(service.handle(post("/v1/whatif", kBody)).status,
                  200);
    });
    while (service.coalesceWaiters() < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const HttpResponse status = service.handle(get("/v1/status"));
    EXPECT_EQ(status.status, 200);
    std::string err;
    const auto doc = parseJson(status.body, &err);
    ASSERT_TRUE(doc.has_value()) << err << "\n" << status.body;
    EXPECT_EQ(doc->at("status").asString(), "ok");
    EXPECT_EQ(doc->at("buildId").asString(), buildId());
    EXPECT_GE(doc->at("uptime_seconds").asDouble(), 0.0);
    EXPECT_EQ(doc->at("flight_depth").asUint(), 1u);
    EXPECT_EQ(doc->at("coalesce_waiters").asUint(), 1u);

    const JsonValue &inflight = doc->at("inflight");
    // Leader + follower + this /v1/status request itself.
    ASSERT_EQ(inflight.size(), 3u) << status.body;
    int whatifs = 0, waiting = 0, statuses = 0;
    for (std::size_t i = 0; i < inflight.size(); ++i) {
        const JsonValue &r = inflight.item(i);
        EXPECT_GT(r.at("id").asUint(), 0u);
        EXPECT_GE(r.at("age_seconds").asDouble(), 0.0);
        const std::string ep = r.at("endpoint").asString();
        const std::string phase = r.at("phase").asString();
        if (ep == "whatif") {
            ++whatifs;
            if (phase == "wait")
                ++waiting;
        } else if (ep == "status") {
            ++statuses;
            EXPECT_EQ(phase, "serialize");
        }
    }
    EXPECT_EQ(whatifs, 2);
    EXPECT_EQ(waiting, 1);
    EXPECT_EQ(statuses, 1);

    release.store(true);
    leader.join();
    follower.join();

    // Drained: only the probing request itself is ever in flight now,
    // and the cache holds the one computed result.
    const HttpResponse after = service.handle(get("/v1/status"));
    const auto doc2 = parseJson(after.body, &err);
    ASSERT_TRUE(doc2.has_value()) << err;
    EXPECT_EQ(doc2->at("flight_depth").asUint(), 0u);
    EXPECT_EQ(doc2->at("coalesce_waiters").asUint(), 0u);
    EXPECT_EQ(doc2->at("inflight").size(), 1u);
    const JsonValue &cache = doc2->at("cache");
    EXPECT_EQ(cache.at("results").at("entries").asUint(), 1u);
    EXPECT_FALSE(cache.at("disk").at("enabled").asBool());
    // Leader, follower and the first status probe have completed; the
    // probing request itself is still in flight while it serializes.
    if (RequestObserver::kCompiledIn) {
        EXPECT_GE(doc2->at("requests").at("observed").asUint(), 3u);
    }
}

TEST(RequestObsTest, StatusReportsDiskTier)
{
    const std::string dir =
        testing::TempDir() + "bpsim_reqobs_disk_XXXXXX";
    std::vector<char> tmpl(dir.begin(), dir.end());
    tmpl.push_back('\0');
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.cacheDir = tmpl.data();
    CampaignService service(opts);

    EXPECT_EQ(service.handle(post("/v1/whatif", kBody)).status, 200);
    const HttpResponse status = service.handle(get("/v1/status"));
    std::string err;
    const auto doc = parseJson(status.body, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue &disk = doc->at("cache").at("disk");
    EXPECT_TRUE(disk.at("enabled").asBool());
    EXPECT_EQ(disk.at("dir").asString(), std::string(tmpl.data()));
    // One result file + one checkpoint file.
    EXPECT_EQ(disk.at("files").asUint(), 2u);
}

TEST(RequestObsTest, TraceExportIsWellFormedChromeJson)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.reqobs.clock = steppingClock();
    CampaignService service(opts);

    EXPECT_EQ(service.handle(post("/v1/whatif", kBody)).status, 200);
    EXPECT_EQ(service.handle(get("/healthz")).status, 200);
    EXPECT_EQ(service.handle(get("/nope")).status, 404);

    std::ostringstream os;
    service.requestObserver().writeTrace(os);
    std::string err;
    const auto doc = parseJson(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err << "\n" << os.str();
    const JsonValue &events = doc->at("traceEvents");
    ASSERT_GT(events.size(), 0u);
    int requests = 0, phases = 0, whatif_requests = 0;
    bool saw_campaign_phase = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.item(i);
        EXPECT_EQ(e.at("ph").asString(), "X");
        const std::string cat = e.at("cat").asString();
        if (cat == "request") {
            ++requests;
            if (e.at("name").asString() == "whatif") {
                ++whatif_requests;
                EXPECT_EQ(e.at("args").at("cache").asString(), "miss");
            }
        } else if (cat == "phase") {
            ++phases;
            if (e.at("name").asString() == "campaign")
                saw_campaign_phase = true;
        }
    }
    EXPECT_EQ(requests, 3);
    EXPECT_EQ(whatif_requests, 1);
    EXPECT_GT(phases, 0);
    EXPECT_TRUE(saw_campaign_phase);
    EXPECT_EQ(doc->at("metadata").at("build").asString(), buildId());
}

TEST(RequestObsTest, DisabledLayerStillAssignsIdsAndServesStatus)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.reqobs.enabled = false;
    CampaignService service(opts);

    const HttpResponse resp = service.handle(get("/healthz"));
    ASSERT_NE(header(resp, "X-Bpsim-Request-Id"), nullptr);
    EXPECT_EQ(*header(resp, "X-Bpsim-Request-Id"), "1");
    EXPECT_EQ(service.requestObserver().completedRequests(), 0u);

    const HttpResponse status = service.handle(get("/v1/status"));
    std::string err;
    const auto doc = parseJson(status.body, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_FALSE(
        doc->at("requests").at("observability_active").asBool());
    EXPECT_EQ(doc->at("inflight").size(), 1u);
}

TEST(RequestObsTest, AccessLogFileAppendsParseableJsonLines)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    const std::string path =
        testing::TempDir() + "bpsim_reqobs_access.log";
    std::remove(path.c_str());
    {
        ServiceOptions opts;
        opts.evaluateAlerts = false;
        opts.reqobs.accessLogPath = path;
        CampaignService service(opts);
        EXPECT_EQ(service.handle(get("/healthz")).status, 200);
        EXPECT_EQ(service.handle(get("/nope")).status, 404);
        EXPECT_TRUE(service.requestObserver().logOpen());
        EXPECT_EQ(service.requestObserver().accessLogLines(), 2u);
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        ++lines;
        std::string err;
        const auto doc = parseJson(line, &err);
        ASSERT_TRUE(doc.has_value()) << err << "\n" << line;
        EXPECT_NE(doc->find("id"), nullptr);
        EXPECT_NE(doc->find("endpoint"), nullptr);
        EXPECT_NE(doc->find("total_us"), nullptr);
    }
    EXPECT_EQ(lines, 2u);
    std::remove(path.c_str());
}
