/**
 * @file
 * Metrics-history tests: tier-rollup exactness (a coarse bucket is
 * the exact min/max/sum/count aggregate of the raw samples its window
 * saw), retention eviction, tier auto-selection, deterministic LTTB
 * downsampling, byte-pinned /v1/series responses under the stepping
 * fake clock, the on/off body-equality matrix across the existing
 * miss/hit/coalesced/resumed paths, the /v1/status history block and
 * history_lag_ms access-log field, the alert transition log, the
 * header contract (charset + Cache-Control: no-store), the
 * self-contained dashboard, and a TSan-targeted sampler-vs-request
 * hammer.
 */

#include "obs/history.hh"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hh"
#include "service/dashboard.hh"
#include "service/service.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

/** The reqobs_test scenario (miss/hit/resume/coalesce references). */
const char *const kBody =
    "{\"config\":\"NoUPS\",\"trials\":6,\"seed\":11,"
    "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
    "\"serve_for_min\":10.0,\"low_power\":true}}";
const char *const kBodyBig =
    "{\"config\":\"NoUPS\",\"trials\":12,\"seed\":11,"
    "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
    "\"serve_for_min\":10.0,\"low_power\":true}}";
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
steppingClock(std::uint64_t stepMs = 1)
{
    auto t = std::make_shared<std::atomic<std::uint64_t>>(0);
    return [t, stepMs] {
        return (t->fetch_add(1) + 1) * stepMs * 1000000ull;
    };
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

constexpr std::uint64_t kSec = 1000000000ull;

} // namespace

TEST(HistoryStoreTest, TierRollupsAreExactAggregatesOfRawSamples)
{
    obs::HistoryConfig cfg;
    cfg.cadenceNs = kSec;
    cfg.retentionNs = 10 * kSec;
    obs::HistoryStore store(cfg);

    // Dyadic values: the rollup's sequential sum has no rounding, so
    // exactness is an equality, not a tolerance.
    std::vector<double> raw;
    for (int i = 0; i < 10; ++i) {
        const double v = 0.25 * i - 0.5;
        store.record("sig", static_cast<std::uint64_t>(i) * kSec, v);
        raw.push_back(v);
    }

    // Raw tier: one bucket per sample.
    const auto t0 = store.query("sig", {0, ~0ull, 0, 0});
    ASSERT_EQ(t0.points.size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(t0.points[i].startNs,
                  static_cast<std::uint64_t>(i) * kSec);
        EXPECT_EQ(t0.points[i].count, 1u);
        EXPECT_EQ(t0.points[i].min, raw[i]);
        EXPECT_EQ(t0.points[i].max, raw[i]);
        EXPECT_EQ(t0.points[i].sum, raw[i]);
    }

    // 10 s and 60 s tiers: all ten samples fold into one bucket whose
    // aggregates must reconcile exactly with the raw ring.
    double mn = raw[0], mx = raw[0], sum = 0.0;
    for (const double v : raw) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        sum += v;
    }
    for (const int tier : {1, 2}) {
        const auto t = store.query("sig", {0, ~0ull, 0, tier});
        ASSERT_EQ(t.points.size(), 1u) << "tier " << tier;
        EXPECT_EQ(t.points[0].startNs, 0u);
        EXPECT_EQ(t.points[0].count, 10u);
        EXPECT_EQ(t.points[0].min, mn);
        EXPECT_EQ(t.points[0].max, mx);
        EXPECT_EQ(t.points[0].sum, sum);
    }
}

TEST(HistoryStoreTest, RetentionEvictsOldestRawBuckets)
{
    obs::HistoryConfig cfg;
    cfg.cadenceNs = kSec;
    cfg.retentionNs = 4 * kSec; // raw ring holds 4 buckets
    obs::HistoryStore store(cfg);

    for (int i = 0; i < 8; ++i)
        store.record("sig", static_cast<std::uint64_t>(i) * kSec, 1.0);

    const auto t0 = store.query("sig", {0, ~0ull, 0, 0});
    ASSERT_EQ(t0.points.size(), 4u);
    // Oldest four were overwritten round-robin; the survivors are the
    // newest four, oldest first.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(t0.points[i].startNs,
                  static_cast<std::uint64_t>(i + 4) * kSec);

    const obs::HistoryStats stats = store.stats();
    EXPECT_EQ(stats.evictedBuckets, 4u); // only the raw tier wrapped
    EXPECT_EQ(stats.samples, 8u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(HistoryStoreTest, TierAutoSelectionDegradesToRollups)
{
    obs::HistoryConfig cfg;
    cfg.cadenceNs = kSec;
    cfg.retentionNs = 4 * kSec;
    obs::HistoryStore store(cfg);

    for (int i = 0; i < 40; ++i)
        store.record("sig", static_cast<std::uint64_t>(i) * kSec,
                     static_cast<double>(i));

    // Recent window: the raw ring still covers it -> finest tier.
    EXPECT_EQ(store.query("sig", {38 * kSec}).tier, 0);
    // Older than the raw ring's 4 s span but inside the 40 s rollup
    // span -> the 10 s tier answers.
    EXPECT_EQ(store.query("sig", {5 * kSec}).tier, 1);
    // The whole span -> the coarsest tier.
    EXPECT_EQ(store.query("sig", {}).tier, 2);
    // Window filtering keeps any bucket that *overlaps* the window.
    const auto t0 = store.query("sig", {38 * kSec});
    ASSERT_EQ(t0.points.size(), 2u);
    EXPECT_EQ(t0.points[0].startNs, 38u * kSec);

    // Unknown series: tier -1, no points.
    EXPECT_EQ(store.query("nope", {}).tier, -1);
    EXPECT_TRUE(store.query("nope", {}).points.empty());
}

TEST(HistoryStoreTest, LttbDownsamplingIsDeterministicAndBounded)
{
    obs::HistoryConfig cfg;
    cfg.cadenceNs = kSec;
    cfg.retentionNs = 100 * kSec;
    obs::HistoryStore store(cfg);

    for (int i = 0; i < 100; ++i)
        store.record("sig", static_cast<std::uint64_t>(i) * kSec,
                     (i % 7) * 0.5);

    obs::HistoryStore::Query q;
    q.tier = 0;
    q.maxPoints = 10;
    const auto a = store.query("sig", q);
    EXPECT_TRUE(a.downsampled);
    ASSERT_EQ(a.points.size(), 10u);
    // LTTB keeps the endpoints and whole buckets (min/max/sum/count
    // survive; only in-between buckets are dropped).
    EXPECT_EQ(a.points.front().startNs, 0u);
    EXPECT_EQ(a.points.back().startNs, 99u * kSec);
    EXPECT_EQ(a.points.front().count, 1u);

    const auto b = store.query("sig", q);
    ASSERT_EQ(b.points.size(), a.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].startNs, b.points[i].startNs);
        EXPECT_EQ(a.points[i].sum, b.points[i].sum);
    }

    // maxPoints >= size: untouched.
    q.maxPoints = 200;
    EXPECT_FALSE(store.query("sig", q).downsampled);
}

TEST(HistoryStoreTest, SeriesCapDropsNewNamesAndCounts)
{
    obs::HistoryConfig cfg;
    cfg.maxSeries = 2;
    obs::HistoryStore store(cfg);

    store.record("a", kSec, 1.0);
    store.record("b", kSec, 2.0);
    store.record("c", kSec, 3.0); // beyond the cap: dropped, counted

    const auto names = store.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    const obs::HistoryStats stats = store.stats();
    EXPECT_EQ(stats.droppedSeries, 1u);
    EXPECT_EQ(stats.samples, 2u);
}

TEST(HistoryServiceTest, SeriesResponseBytesArePinnedUnderFakeClock)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.reqobs.clock = steppingClock();
    opts.history.samplerThread = false;
    opts.history.cadenceNs = 1000000;    // 1 ms: one bucket per tick
    opts.history.retentionNs = 10000000; // 10 buckets per tier
    CampaignService service(opts); // clock call 1 (boot)
    obs::Registry &reg = service.registry();

    // Tick 1 (clock 2, t = 2 ms): establishes the counter baseline —
    // no rate yet. Tick 2 (clock 3, t = 3 ms): 5 events over 1 ms.
    // Tick 3 (clock 4, t = 4 ms): 15 events over 1 ms. All ticks land
    // before any handle() call (requests advance the shared clock).
    reg.counter("test.events").add(5);
    service.sampleHistoryOnce();
    reg.counter("test.events").add(5);
    service.sampleHistoryOnce();
    reg.counter("test.events").add(15);
    service.sampleHistoryOnce();

    const HttpResponse resp =
        service.handle(get("/v1/series?name=test.events:rate&tier=0"));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body,
              "{\"enabled\":true,\"cadence_ns\":1000000,"
              "\"retention_ns\":10000000,\"tiers\":["
              "{\"tier\":0,\"width_ns\":1000000,\"capacity\":10},"
              "{\"tier\":1,\"width_ns\":10000000,\"capacity\":10},"
              "{\"tier\":2,\"width_ns\":60000000,\"capacity\":10}],"
              "\"series\":[{\"name\":\"test.events:rate\","
              "\"found\":true,\"tier\":0,\"width_ns\":1000000,"
              "\"capacity\":10,\"downsampled\":false,"
              "\"points\":[[3000000,1,5000,5000,5000],"
              "[4000000,1,15000,15000,15000]]}]}\n");

    // The 10 ms rollup bucket aggregates both rate samples exactly.
    const HttpResponse roll =
        service.handle(get("/v1/series?name=test.events:rate&tier=1"));
    EXPECT_NE(roll.body.find("\"points\":[[0,2,5000,15000,20000]]"),
              std::string::npos)
        << roll.body;

    // Unknown names report found:false with no points.
    const HttpResponse unknown =
        service.handle(get("/v1/series?name=no.such"));
    EXPECT_NE(unknown.body.find(
                  "{\"name\":\"no.such\",\"found\":false}"),
              std::string::npos)
        << unknown.body;

    // Malformed window parameters are a 400, not a silent default.
    EXPECT_EQ(service.handle(get("/v1/series?after=x")).status, 400);
    EXPECT_EQ(service.handle(get("/v1/series?tier=9")).status, 400);
}

TEST(HistoryServiceTest, SeriesWithoutNameListsStoredSeries)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.history.samplerThread = false;
    CampaignService service(opts);
    service.sampleHistoryOnce();

    const HttpResponse resp = service.handle(get("/v1/series"));
    EXPECT_EQ(resp.status, 200);
    std::string err;
    const auto doc = parseJson(resp.body, &err);
    ASSERT_TRUE(doc.has_value()) << err << "\n" << resp.body;
    EXPECT_TRUE(doc->at("enabled").asBool());
    const JsonValue &names = doc->at("names");
    ASSERT_GT(names.size(), 0u);
    bool cache_depth = false, alert_state = false;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &n = names.item(i).asString();
        cache_depth |= n == "service.cache.results.entries";
        alert_state |= n == "alert.ups_charge_low.state";
    }
    EXPECT_TRUE(cache_depth);
    EXPECT_TRUE(alert_state);
    EXPECT_EQ(doc->at("tiers").size(), 3u);
}

TEST(HistoryServiceTest, DisabledHistoryIs404AndStatusOmitsBlock)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.history.enabled = false;
    CampaignService service(opts);

    EXPECT_EQ(service.handle(get("/v1/series")).status, 404);
    EXPECT_EQ(service.handle(get("/v1/alerts/history")).status, 404);
    // The dashboard page itself still serves (it explains the 404 its
    // poll will get).
    EXPECT_EQ(service.handle(get("/dashboard")).status, 200);

    const HttpResponse status = service.handle(get("/v1/status"));
    EXPECT_EQ(status.body.find("\"history\""), std::string::npos);
}

TEST(HistoryServiceTest, StatusHistoryBlockReportsBoundedFootprint)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.history.samplerThread = false;
    CampaignService service(opts);
    service.sampleHistoryOnce();
    service.sampleHistoryOnce();

    const HttpResponse status = service.handle(get("/v1/status"));
    std::string err;
    const auto doc = parseJson(status.body, &err);
    ASSERT_TRUE(doc.has_value()) << err << "\n" << status.body;
    const JsonValue &h = doc->at("history");
    EXPECT_TRUE(h.at("enabled").asBool());
    EXPECT_GT(h.at("series").asUint(), 0u);
    EXPECT_GT(h.at("samples").asUint(), 0u);
    EXPECT_GT(h.at("bytes").asUint(), 0u);
    EXPECT_EQ(h.at("dropped_series").asUint(), 0u);
    EXPECT_EQ(h.at("lag_ms").asUint(), 0u);
    ASSERT_EQ(h.at("tiers").size(), 3u);
    EXPECT_GT(h.at("tiers").item(0).at("buckets").asUint(), 0u);
    EXPECT_EQ(h.at("alert_events").asUint(), 0u);
}

TEST(HistoryServiceTest, LagBehindCadenceIsLoggedOnRequests)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    std::ostringstream log;
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.reqobs.accessLogStream = &log;
    opts.reqobs.clock = steppingClock(10); // 10 ms per clock call
    opts.history.samplerThread = false;
    opts.history.cadenceNs = 1000000; // 1 ms cadence
    CampaignService service(opts); // clock 1

    service.sampleHistoryOnce(); // clock 2: baseline, no lag yet
    EXPECT_EQ(service.historyLagMs(), 0u);
    // Clock 3: 10 ms elapsed against a 1 ms cadence -> 9 ms behind.
    service.sampleHistoryOnce();
    EXPECT_EQ(service.historyLagMs(), 9u);

    EXPECT_EQ(service.handle(get("/healthz")).status, 200);
    EXPECT_NE(log.str().find("\"history_lag_ms\":9"),
              std::string::npos)
        << log.str();
}

TEST(HistoryServiceTest,
     ExistingBodiesByteIdenticalWithHistoryOnOffAcrossPaths)
{
    // The acceptance contract: the sampler and its store never touch
    // a response body. Run the four serving paths with history on
    // (sampling aggressively between requests) and off; every body
    // must equal the campaign layer's direct answer.
    const std::string ref6 = reference(kBody);
    const std::string ref12 = reference(kBodyBig);
    const std::string refCoal = reference(kBodyCoal);

    struct Paths
    {
        std::string miss, hit, resumed, alerts;
        std::vector<std::string> coalesced;
    };
    const auto runPaths = [&](bool enabled) {
        ServiceOptions opts;
        opts.evaluateAlerts = false;
        opts.history.enabled = enabled;
        opts.history.samplerThread = false;
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

        const auto tick = [&service] { service.sampleHistoryOnce(); };
        Paths out;
        tick();
        out.miss = service.handle(post("/v1/whatif", kBody)).body;
        tick();
        out.hit = service.handle(post("/v1/whatif", kBody)).body;
        tick();
        out.resumed =
            service.handle(post("/v1/whatif", kBodyBig)).body;
        tick();
        out.alerts = service.handle(get("/v1/alerts")).body;

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
        tick();
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
    EXPECT_EQ(on.coalesced[0], refCoal);
    EXPECT_EQ(on.coalesced[1], refCoal);
    EXPECT_EQ(off.coalesced[0], refCoal);
    EXPECT_EQ(off.coalesced[1], refCoal);
    EXPECT_EQ(on.alerts, off.alerts);
}

TEST(HistoryServiceTest, AlertTransitionsAreRetainedWithTimestamps)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    // Default options: alerts evaluate after every uncached what-if,
    // and the NoUPS scenario reliably trips ups_charge_low on every
    // sampled trial (the battery-less config's SoC pins at zero).
    ServiceOptions opts;
    opts.history.samplerThread = false;
    CampaignService service(opts);

    EXPECT_EQ(service.handle(post("/v1/whatif", kBody)).status, 200);
    const std::size_t fired = service.alerts().eventLog().size();
    ASSERT_GT(fired, 0u);

    const HttpResponse resp =
        service.handle(get("/v1/alerts/history"));
    EXPECT_EQ(resp.status, 200);
    std::string err;
    const auto doc = parseJson(resp.body, &err);
    ASSERT_TRUE(doc.has_value()) << err << "\n" << resp.body;
    const JsonValue &events = doc->at("events");
    ASSERT_EQ(events.size(), fired);
    EXPECT_EQ(doc->at("dropped").asUint(), 0u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const JsonValue &e = events.item(i);
        EXPECT_GT(e.at("ts_ns").asUint(), 0u);
        EXPECT_FALSE(e.at("rule").asString().empty());
        EXPECT_NE(e.at("from").asString(), e.at("to").asString());
    }

    // The status block counts the retained entries.
    const HttpResponse status = service.handle(get("/v1/status"));
    const auto sdoc = parseJson(status.body, &err);
    ASSERT_TRUE(sdoc.has_value()) << err;
    EXPECT_EQ(sdoc->at("history").at("alert_events").asUint(), fired);
}

TEST(HistoryServiceTest, AlertHistoryCapacityDropsOldestAndCounts)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    ServiceOptions opts;
    opts.history.samplerThread = false;
    opts.history.alertEventCapacity = 1;
    CampaignService service(opts);

    EXPECT_EQ(service.handle(post("/v1/whatif", kBody)).status, 200);
    const std::size_t fired = service.alerts().eventLog().size();
    ASSERT_GT(fired, 1u);

    const HttpResponse resp =
        service.handle(get("/v1/alerts/history"));
    std::string err;
    const auto doc = parseJson(resp.body, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->at("events").size(), 1u);
    EXPECT_EQ(doc->at("dropped").asUint(),
              static_cast<std::uint64_t>(fired - 1));
}

TEST(HistoryServiceTest, HeaderContractCharsetAndNoStore)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.history.samplerThread = false;
    CampaignService service(opts);

    // Every endpoint (success or error) declares no-store: scrapers
    // and the dashboard poller must never cache a stale snapshot.
    const struct
    {
        const char *method;
        const char *target;
        const char *contentType;
    } cases[] = {
        {"GET", "/healthz", "application/json; charset=utf-8"},
        {"GET", "/v1/status", "application/json; charset=utf-8"},
        {"GET", "/v1/alerts", "application/json; charset=utf-8"},
        {"GET", "/metrics",
         "application/openmetrics-text; version=1.0.0; charset=utf-8"},
        {"GET", "/dashboard", "text/html; charset=utf-8"},
        {"GET", "/nope", "application/json; charset=utf-8"},
    };
    for (const auto &c : cases) {
        HttpRequest req;
        req.method = c.method;
        req.target = c.target;
        const HttpResponse resp = service.handle(req);
        EXPECT_EQ(resp.contentType, c.contentType) << c.target;
        const std::string *cc = header(resp, "Cache-Control");
        ASSERT_NE(cc, nullptr) << c.target;
        EXPECT_EQ(*cc, "no-store") << c.target;
    }
    // The rendered wire form carries both headers.
    const std::string wire =
        renderHttpResponse(service.handle(get("/healthz")));
    EXPECT_NE(wire.find("Content-Type: application/json; "
                        "charset=utf-8\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("Cache-Control: no-store\r\n"),
              std::string::npos);
}

TEST(HistoryServiceTest, DashboardIsSelfContained)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.history.samplerThread = false;
    CampaignService service(opts);

    const HttpResponse resp = service.handle(get("/dashboard"));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.contentType, "text/html; charset=utf-8");
    const std::string &html = resp.body;
    EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    // It polls the history endpoint...
    EXPECT_NE(html.find("/v1/series"), std::string::npos);
    // ...and references nothing outside the server: no external
    // links, scripts, styles or images (the air-gap contract the
    // smoke test also greps for).
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("src="), std::string::npos);
    EXPECT_EQ(html.find("href="), std::string::npos);
    EXPECT_EQ(html.find("@import"), std::string::npos);
    // Byte-deterministic: the page carries no server state.
    EXPECT_EQ(service.handle(get("/dashboard")).body, html);
    EXPECT_EQ(renderDashboardHtml(), html);
}

TEST(HistoryServiceTest, SamplerVsRequestHammerIsRaceFree)
{
    if (!RequestObserver::kCompiledIn)
        GTEST_SKIP() << "obs compiled out";

    // TSan target: the background sampler ticking every millisecond
    // while requests hammer every surface it shares state with
    // (registry, caches, flight table, alert engine, history store).
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.history.cadenceNs = 1000000; // 1 ms
    CampaignService service(opts);
    std::string err;
    ASSERT_TRUE(service.start(&err)) << err; // spawns the sampler

    const char *const targets[] = {
        "/v1/series?name=service.requests:rate&tier=0",
        "/v1/series",
        "/v1/status",
        "/metrics",
        "/v1/alerts/history",
        "/dashboard",
        "/healthz",
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&service, &targets, t] {
            for (int i = 0; i < 40; ++i) {
                const HttpResponse resp = service.handle(
                    get(targets[(t + i) % std::size(targets)]));
                EXPECT_EQ(resp.status, 200);
            }
        });
    }
    threads.emplace_back([&service] {
        const char *const body =
            "{\"config\":\"NoUPS\",\"trials\":2,\"seed\":7}";
        for (int i = 0; i < 3; ++i)
            EXPECT_EQ(service.handle(post("/v1/whatif", body)).status,
                      200);
    });
    for (std::thread &t : threads)
        t.join();
    service.stop();
    EXPECT_GT(service.history().stats().samples, 0u);
}
