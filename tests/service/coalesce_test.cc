/**
 * @file
 * Single-flight coalescing tests: N identical concurrent what-ifs
 * must execute exactly one campaign, with every follower parked on
 * the leader's flight and answered with the same bytes. The
 * testBeforeCampaign hook holds the leader until every follower has
 * registered, so the assertions are deterministic rather than
 * racy-best-effort; the whole file runs under the service TSan job.
 * The same hook holds a miss to show that a memory hit never waits on
 * it.
 */

#include "service/service.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

const char *const kBody =
    "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":8,\"seed\":7,"
    "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
    "\"serve_for_min\":10.0,\"low_power\":true}}";

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

/** Counter @p name in @p service's own registry (0 = never added). */
std::uint64_t
counterOf(CampaignService &service, const std::string &name)
{
    const auto counters = service.registry().counterSnapshot();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

} // namespace

TEST(CoalesceTest, IdenticalConcurrentRequestsShareOneExecution)
{
    constexpr int kThreads = 4;

    ServiceOptions opts;
    opts.evaluateAlerts = false;
    // Park the leader until every follower has joined the flight, so
    // "all followers coalesced" is a guarantee, not a race we usually
    // win. Armed once: only the first (and only) flight blocks.
    CampaignService *svc = nullptr;
    std::atomic<bool> armed{true};
    opts.testBeforeCampaign = [&svc, &armed] {
        if (!armed.exchange(false))
            return;
        while (svc->coalesceWaiters() < kThreads - 1)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    CampaignService service(opts);
    svc = &service;

    std::vector<HttpResponse> responses(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&service, &responses, i] {
            responses[static_cast<std::size_t>(i)] =
                service.handle(post(kBody));
        });
    for (auto &t : threads)
        t.join();

    // Exactly one campaign ran; every other request was coalesced.
    EXPECT_EQ(counterOf(service, "service.whatif.campaigns"),
              1u);
    EXPECT_EQ(counterOf(service, "service.coalesced"),
              static_cast<std::uint64_t>(kThreads - 1));
    EXPECT_EQ(service.cache().stats().misses, 1u);
    EXPECT_EQ(service.cache().stats().insertions, 1u);
    EXPECT_EQ(service.coalesceWaiters(), 0u);

    int misses = 0, coalesced = 0;
    for (const auto &resp : responses) {
        ASSERT_EQ(resp.status, 200) << resp.body;
        EXPECT_EQ(resp.body, responses[0].body);
        const std::string *tier = header(resp, "X-Bpsim-Cache");
        ASSERT_NE(tier, nullptr);
        if (*tier == "miss")
            ++misses;
        else if (*tier == "coalesced")
            ++coalesced;
    }
    EXPECT_EQ(misses, 1);
    EXPECT_EQ(coalesced, kThreads - 1);

    // And the flight is gone: a repeat is an ordinary cache hit.
    const HttpResponse repeat = service.handle(post(kBody));
    ASSERT_NE(header(repeat, "X-Bpsim-Cache"), nullptr);
    EXPECT_EQ(*header(repeat, "X-Bpsim-Cache"), "hit");
    EXPECT_EQ(repeat.body, responses[0].body);
}

TEST(CoalesceTest, DistinctRequestsNeverCoalesce)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    CampaignService service(opts);

    const char *const other =
        "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":8,\"seed\":8,"
        "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
        "\"serve_for_min\":10.0,\"low_power\":true}}";

    HttpResponse a, b;
    std::thread ta([&] { a = service.handle(post(kBody)); });
    std::thread tb([&] { b = service.handle(post(other)); });
    ta.join();
    tb.join();

    // Different canonical keys are different flights: both executed.
    EXPECT_EQ(counterOf(service, "service.whatif.campaigns"),
              2u);
    EXPECT_EQ(counterOf(service, "service.coalesced"), 0u);
    ASSERT_EQ(a.status, 200);
    ASSERT_EQ(b.status, 200);
    EXPECT_NE(a.body, b.body);
    EXPECT_NE(*header(a, "X-Bpsim-Key"), *header(b, "X-Bpsim-Key"));
}

TEST(CoalesceTest, HitNeverWaitsOnAHeldMiss)
{
    // A memory hit is served before the flight table: hold a miss for
    // another key and a hit must still come back at once, with the
    // cached bytes.
    const char *const other =
        "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":8,\"seed\":9,"
        "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
        "\"serve_for_min\":10.0,\"low_power\":true}}";

    ServiceOptions opts;
    opts.evaluateAlerts = false;
    std::atomic<bool> armed{false};
    std::atomic<bool> held{false};
    std::atomic<bool> release{false};
    opts.testBeforeCampaign = [&] {
        if (!armed.exchange(false))
            return;
        held.store(true);
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    CampaignService service(opts);

    const HttpResponse warm = service.handle(post(kBody));
    ASSERT_EQ(warm.status, 200) << warm.body;

    armed.store(true);
    HttpResponse missed;
    std::thread miss([&] { missed = service.handle(post(other)); });
    while (!held.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Five hits while the miss is held; the best must be quick (the
    // best of several, so one descheduling under load cannot fail
    // it).
    auto hits = std::async(std::launch::async, [&] {
        std::vector<HttpResponse> out;
        auto best = std::chrono::steady_clock::duration::max();
        for (int i = 0; i < 5; ++i) {
            const auto begin = std::chrono::steady_clock::now();
            out.push_back(service.handle(post(kBody)));
            best = std::min(best,
                            std::chrono::steady_clock::now() - begin);
        }
        return std::make_pair(best, out);
    });
    const bool served =
        hits.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    release.store(true);
    miss.join();
    ASSERT_TRUE(served) << "hits waited on the held miss";

    const auto [best, responses] = hits.get();
    EXPECT_LT(best, std::chrono::milliseconds(10));
    for (const HttpResponse &hit : responses) {
        ASSERT_EQ(hit.status, 200);
        ASSERT_NE(header(hit, "X-Bpsim-Cache"), nullptr);
        EXPECT_EQ(*header(hit, "X-Bpsim-Cache"), "hit");
        EXPECT_EQ(hit.body, warm.body);
    }
    ASSERT_EQ(missed.status, 200);
    EXPECT_EQ(*header(missed, "X-Bpsim-Cache"), "miss");
    EXPECT_EQ(service.cache().stats().misses, 2u);
    EXPECT_EQ(service.cache().stats().hits, 5u);
}
