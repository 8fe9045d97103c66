/**
 * @file
 * Full-service tests through CampaignService::handle() (no socket)
 * plus one loopback session through the real listener. The headline
 * assertions are the issue's acceptance criteria: the what-if
 * response is byte-identical to the deterministic batch export, and
 * a repeated query is answered from the cache.
 */

#include "service/service.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "obs/obs.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

/** A small fixed-budget scenario so tests stay fast. */
const char *const kBody =
    "{\"config\":\"NoUPS\",\"trials\":6,\"seed\":11,"
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

/** One blocking loopback HTTP exchange: connect, send, read to EOF. */
std::string
roundTrip(std::uint16_t port, const std::string &request)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0) << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0)
        << std::strerror(errno);
    std::size_t off = 0;
    while (off < request.size()) {
        const ssize_t n =
            ::send(fd, request.data() + off, request.size() - off, 0);
        EXPECT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return reply;
}

} // namespace

TEST(CampaignServiceTest, WhatIfIsByteIdenticalToBatchAndCached)
{
    // The batch reference, computed before the service arms obs —
    // obs on/off must not perturb results (the golden-trace
    // determinism contract), and this asserts it end to end.
    std::string err;
    const auto parsed = parseJson(kBody, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    const auto req = parseWhatIfRequest(*parsed, &err);
    ASSERT_TRUE(req.has_value()) << err;
    const std::string reference = runWhatIf(*req);

    CampaignService service;
    const HttpResponse first = service.handle(post("/v1/whatif", kBody));
    ASSERT_EQ(first.status, 200) << first.body;
    ASSERT_NE(header(first, "X-Bpsim-Cache"), nullptr);
    EXPECT_EQ(*header(first, "X-Bpsim-Cache"), "miss");
    EXPECT_EQ(first.body, reference);

    // The repeat is a cache hit with the exact same bytes.
    const HttpResponse second =
        service.handle(post("/v1/whatif", kBody));
    ASSERT_EQ(second.status, 200);
    EXPECT_EQ(*header(second, "X-Bpsim-Cache"), "hit");
    EXPECT_EQ(second.body, first.body);
    EXPECT_EQ(service.cache().stats().hits, 1u);
    EXPECT_EQ(service.cache().stats().misses, 1u);

    // Both carry the same content address.
    EXPECT_EQ(*header(first, "X-Bpsim-Key"),
              *header(second, "X-Bpsim-Key"));
}

TEST(CampaignServiceTest, RejectsBadRequests)
{
    CampaignService service;
    EXPECT_EQ(service.handle(post("/v1/whatif", "{nope")).status, 400);
    EXPECT_EQ(service.handle(post("/v1/whatif", "{}")).status, 400);
    // Depth-bombed body: the parser's nesting limit answers, the
    // service survives.
    const std::string deep(200, '[');
    EXPECT_EQ(service.handle(post("/v1/whatif", deep)).status, 400);
    EXPECT_EQ(service.handle(get("/v1/whatif")).status, 405);
    EXPECT_EQ(service.handle(post("/nope", "")).status, 404);
    EXPECT_EQ(service.handle(post("/metrics", "")).status, 405);
}

TEST(CampaignServiceTest, HealthAlertsAndMetricsEndpoints)
{
    CampaignService service;
    service.handle(post("/v1/whatif", kBody));

    const HttpResponse health = service.handle(get("/healthz"));
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
    {
        // The liveness body parses and carries build + uptime so a
        // load balancer can detect stale builds.
        std::string herr;
        const auto hdoc = parseJson(health.body, &herr);
        ASSERT_TRUE(hdoc.has_value()) << herr;
        const JsonValue *bid = hdoc->find("buildId");
        ASSERT_NE(bid, nullptr);
        EXPECT_EQ(bid->asString(), buildId());
        const JsonValue *up = hdoc->find("uptime_seconds");
        ASSERT_NE(up, nullptr);
        EXPECT_GE(up->asDouble(), 0.0);
    }

    const HttpResponse alerts = service.handle(get("/v1/alerts"));
    EXPECT_EQ(alerts.status, 200);
    std::string err;
    const auto doc = parseJson(alerts.body, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue *list = doc->find("alerts");
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->size(), defaultAlertRules().size());

    const HttpResponse metrics = service.handle(get("/metrics"));
    EXPECT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.contentType.find("openmetrics-text"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("bpsim_service_requests_total"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("bpsim_service_cache_misses_total"),
              std::string::npos);
    // The ALERTS-style gauges ride the same exposition.
    EXPECT_NE(metrics.body.find("bpsim_alert_ups_charge_low_state"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("# EOF"), std::string::npos);
}

TEST(CampaignServiceTest, LoopbackSessionWithShutdown)
{
    ServiceOptions opts;
    opts.alertSampleTrials = 2;
    CampaignService service(opts);
    std::string err;
    ASSERT_TRUE(service.start(&err)) << err;
    ASSERT_NE(service.port(), 0);

    const std::string body = kBody;
    const std::string request =
        "POST /v1/whatif HTTP/1.1\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    const std::string first = roundTrip(service.port(), request);
    EXPECT_NE(first.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(first.find("X-Bpsim-Cache: miss"), std::string::npos);
    const std::string second = roundTrip(service.port(), request);
    EXPECT_NE(second.find("X-Bpsim-Cache: hit"), std::string::npos);
    // Identical payload bytes after the blank line.
    EXPECT_EQ(first.substr(first.find("\r\n\r\n")),
              second.substr(second.find("\r\n\r\n")));

    const std::string bye = roundTrip(
        service.port(), "POST /v1/shutdown HTTP/1.1\r\n\r\n");
    EXPECT_NE(bye.find("shutting down"), std::string::npos);
    service.waitUntilStopped();
    EXPECT_FALSE(service.running());
}

TEST(CampaignServiceTest, TwoServicesKeepSeparateMetrics)
{
    // Each service owns its registry: one server's traffic never shows
    // in another's /metrics.
    CampaignService busy;
    CampaignService idle;
    ASSERT_EQ(busy.handle(post("/v1/whatif", kBody)).status, 200);
    ASSERT_EQ(busy.handle(post("/v1/whatif", kBody)).status, 200);
    ASSERT_EQ(busy.handle(get("/healthz")).status, 200);

    const std::string requests =
        std::string("bpsim_service_requests_total{build=\"") + buildId() +
        "\"} ";
    const HttpResponse a = busy.handle(get("/metrics"));
    const HttpResponse b = idle.handle(get("/metrics"));
    EXPECT_NE(a.body.find(requests + "4\n"), std::string::npos) << a.body;
    EXPECT_NE(b.body.find(requests + "1\n"), std::string::npos) << b.body;
    EXPECT_NE(a.body.find("bpsim_service_whatif_campaigns_total"),
              std::string::npos);
    EXPECT_EQ(b.body.find("bpsim_service_whatif_campaigns_total"),
              std::string::npos)
        << b.body;
    EXPECT_EQ(b.body.find("bpsim_service_cache_hits_total"),
              std::string::npos)
        << b.body;
}

namespace
{

/**
 * Post @p body, whose technique or config reads the out-of-range
 * @p field (so the model would assert on it): the parser must refuse
 * it up front with a 400 naming the field, and the service must still
 * answer a valid request afterwards.
 */
void
expectRefused(const char *field, const char *body)
{
    CampaignService service;
    const HttpResponse refused = service.handle(post("/v1/whatif", body));
    EXPECT_EQ(refused.status, 400) << refused.body;
    EXPECT_NE(refused.body.find(field), std::string::npos) << refused.body;
    EXPECT_EQ(service.cache().stats().insertions, 0u);
    EXPECT_EQ(service.handle(post("/v1/whatif", kBody)).status, 200);
}

} // namespace

TEST(WhatIfRangeTest, RefusesPstate)
{
    expectRefused("pstate", "{\"config\":\"LargeEUPS\",\"trials\":2,"
                            "\"technique\":{\"kind\":\"throttle\","
                            "\"pstate\":99}}");
}

TEST(WhatIfRangeTest, RefusesHostPstate)
{
    expectRefused("host_pstate",
                  "{\"config\":\"LargeEUPS\",\"trials\":4,"
                  "\"technique\":{\"kind\":\"migration\","
                  "\"host_pstate\":99}}");
}

TEST(WhatIfRangeTest, RefusesTstate)
{
    expectRefused("tstate", "{\"config\":\"LargeEUPS\",\"trials\":2,"
                            "\"technique\":{\"kind\":\"throttle\","
                            "\"tstate\":99}}");
}

TEST(WhatIfRangeTest, RefusesRemotePerf)
{
    expectRefused("remote_perf",
                  "{\"config\":\"LargeEUPS\",\"trials\":2,"
                  "\"technique\":{\"kind\":\"geo_failover\","
                  "\"remote_perf\":-1}}");
}

TEST(WhatIfRangeTest, RefusesRisk)
{
    expectRefused("risk", "{\"config\":\"LargeEUPS\",\"trials\":2,"
                          "\"technique\":{\"kind\":\"adaptive\","
                          "\"risk\":-1}}");
}

TEST(WhatIfRangeTest, RefusesZeroUpsPowerFrac)
{
    expectRefused("ups_power_frac",
                  "{\"config\":{\"has_ups\":true,\"ups_power_frac\":0,"
                  "\"ups_runtime_sec\":600},\"trials\":2}");
}

TEST(WhatIfRangeTest, RefusesZeroUpsRuntimeSec)
{
    expectRefused("ups_runtime_sec",
                  "{\"config\":{\"has_ups\":true,\"ups_power_frac\":1,"
                  "\"ups_runtime_sec\":0},\"trials\":2}");
}

TEST(WhatIfRangeTest, RefusesZeroDgPowerFrac)
{
    expectRefused("dg_power_frac",
                  "{\"config\":{\"has_dg\":true,\"dg_power_frac\":0},"
                  "\"trials\":2}");
}
