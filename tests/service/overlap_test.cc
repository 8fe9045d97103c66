/**
 * @file
 * Concurrent-miss tests: nothing serializes what-if execution, so two
 * distinct misses overlap, a disk-tier hit is answered while a miss is
 * held, the deepest checkpoint of a scenario survives concurrent
 * budgets, and a miss's recorded evidence holds its own campaign and
 * nothing the server did meanwhile. The testBeforeCampaign hook holds
 * one miss; every wait has a deadline, so a regression fails instead
 * of hanging. The whole file runs under the service TSan job.
 */

#include "service/service.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include <stdlib.h>

#include <gtest/gtest.h>

#include "obs/obs.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

constexpr auto kDeadline = std::chrono::seconds(30);

std::string
whatIf(std::uint64_t trials, std::uint64_t seed)
{
    return "{\"config\":\"MinCost\",\"servers\":4,\"trials\":" +
           std::to_string(trials) + ",\"seed\":" + std::to_string(seed) +
           ",\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
           "\"serve_for_min\":10.0,\"low_power\":true}}";
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

HttpRequest
get(const std::string &target)
{
    HttpRequest req;
    req.method = "GET";
    req.target = target;
    return req;
}

std::string
headerOf(const HttpResponse &resp, const std::string &name)
{
    for (const auto &[k, v] : resp.headers)
        if (k == name)
            return v;
    return "";
}

/** The checkpoint stored for @p body's scenario (nullopt: none). */
std::optional<CampaignCheckpoint>
storedCheckpoint(CampaignService &service, const std::string &body)
{
    const auto req = parseWhatIfRequest(*parseJson(body));
    const auto text =
        service.checkpointCache().get("ckpt|" + canonicalBaseKey(*req));
    if (!text)
        return std::nullopt;
    return readCheckpointJson(*text);
}

/**
 * A testBeforeCampaign gate: once armed, holds the next miss that
 * reaches the hook until released, and counts every call.
 */
struct Gate
{
    std::atomic<bool> armed{false};
    std::atomic<bool> held{false};
    std::atomic<bool> release{false};
    std::atomic<int> calls{0};

    std::function<void()>
    hook()
    {
        return [this] {
            calls.fetch_add(1);
            if (!armed.exchange(false))
                return;
            held.store(true);
            while (!release.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        };
    }

    /** Arm, start @p body on a thread and wait until it is held. */
    std::thread
    holdMiss(CampaignService &service, const std::string &body,
             HttpResponse &out)
    {
        armed.store(true);
        std::thread t(
            [&service, &out, body] { out = service.handle(post(body)); });
        while (!held.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return t;
    }
};

/** A fresh temporary directory, removed (best effort) on scope exit. */
struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/bpsim_overlap_XXXXXX";
        path = ::mkdtemp(tmpl);
        EXPECT_FALSE(path.empty());
    }
    ~TempDir() { std::system(("rm -rf " + path).c_str()); }
    std::string path;
};

} // namespace

TEST(OverlapTest, DistinctMissCompletesWhileAnotherIsHeld)
{
    Gate gate;
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.testBeforeCampaign = gate.hook();
    CampaignService service(opts);

    HttpResponse held;
    std::thread first = gate.holdMiss(service, whatIf(8, 1), held);
    auto other = std::async(std::launch::async, [&] {
        return service.handle(post(whatIf(8, 2)));
    });
    const bool overlapped =
        other.wait_for(kDeadline) == std::future_status::ready;
    gate.release.store(true);
    first.join();
    ASSERT_TRUE(overlapped) << "the second miss waited on the held one";

    const HttpResponse done = other.get();
    EXPECT_EQ(done.status, 200) << done.body;
    EXPECT_EQ(headerOf(done, "X-Bpsim-Cache"), "miss");
    EXPECT_EQ(held.status, 200) << held.body;
    EXPECT_EQ(headerOf(held, "X-Bpsim-Cache"), "miss");
    EXPECT_EQ(held.body, runWhatIf(*parseWhatIfRequest(
                             *parseJson(whatIf(8, 1)))));
}

TEST(OverlapTest, DiskHitAnsweredWhileAMissIsHeld)
{
    TempDir dir;
    Gate gate;
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.cacheDir = dir.path;
    opts.testBeforeCampaign = gate.hook();
    CampaignService service(opts);

    const HttpResponse warm = service.handle(post(whatIf(8, 3)));
    ASSERT_EQ(warm.status, 200) << warm.body;
    service.cache().clear(); // only the disk tier holds it now

    HttpResponse held;
    std::thread miss = gate.holdMiss(service, whatIf(8, 4), held);
    auto hit = std::async(std::launch::async, [&] {
        return service.handle(post(whatIf(8, 3)));
    });
    const bool served = hit.wait_for(kDeadline) == std::future_status::ready;
    gate.release.store(true);
    miss.join();
    ASSERT_TRUE(served) << "the disk hit waited on the held miss";

    const HttpResponse resp = hit.get();
    EXPECT_EQ(headerOf(resp, "X-Bpsim-Cache"), "hit");
    EXPECT_EQ(headerOf(resp, "X-Bpsim-Cache-Tier"), "disk");
    EXPECT_EQ(resp.body, warm.body);
    EXPECT_EQ(held.status, 200) << held.body;
}

TEST(OverlapTest, BeforeCampaignHookFiresOnlyForMisses)
{
    Gate gate;
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.testBeforeCampaign = gate.hook();
    CampaignService service(opts);

    ASSERT_EQ(service.handle(post(whatIf(8, 5))).status, 200);
    EXPECT_EQ(gate.calls.load(), 1);
    ASSERT_EQ(service.handle(post(whatIf(8, 5))).status, 200); // hit
    EXPECT_EQ(gate.calls.load(), 1);
    ASSERT_EQ(service.handle(post(whatIf(8, 6))).status, 200);
    EXPECT_EQ(gate.calls.load(), 2);
}

TEST(OverlapTest, DeepestCheckpointSurvivesConcurrentBudgets)
{
    // Hold the shallow budget so the deep one stores its checkpoint
    // first; the shallow one must then leave the deeper trajectory in
    // place.
    Gate gate;
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.testBeforeCampaign = gate.hook();
    CampaignService service(opts);

    const std::string shallow = whatIf(12, 7), deep = whatIf(40, 7);
    HttpResponse held;
    std::thread first = gate.holdMiss(service, shallow, held);
    auto second = std::async(std::launch::async, [&] {
        return service.handle(post(deep));
    });
    const bool overlapped =
        second.wait_for(kDeadline) == std::future_status::ready;
    gate.release.store(true);
    first.join();
    ASSERT_TRUE(overlapped) << "the deep budget waited on the shallow one";
    EXPECT_EQ(second.get().status, 200);
    EXPECT_EQ(held.status, 200) << held.body;
    const auto stored = storedCheckpoint(service, deep);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->trials, 40u);
}

TEST(OverlapTest, CheckpointHoldsNoServiceCounters)
{
    // A recording miss's checkpoint carries its campaign's counters —
    // not the /healthz traffic another thread drives meanwhile.
    ServiceOptions opts; // alerts on: misses record
    CampaignService service(opts);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> probes{0};
    std::thread prober([&] {
        while (!stop.load()) {
            service.handle(get("/healthz"));
            probes.fetch_add(1);
        }
    });
    while (probes.load() < 100)
        std::this_thread::yield();
    const std::string body = whatIf(48, 8);
    const HttpResponse resp = service.handle(post(body));
    stop.store(true);
    prober.join();
    ASSERT_EQ(resp.status, 200) << resp.body;

    const auto ck = storedCheckpoint(service, body);
    ASSERT_TRUE(ck.has_value());
#if BPSIM_OBS_ENABLED
    EXPECT_NE(ck->counters.find("power.outages"), ck->counters.end());
#endif
    for (const auto &[name, value] : ck->counters)
        EXPECT_NE(name.rfind("service.", 0), 0u)
            << name << "=" << value << " leaked into the checkpoint";
}
