/**
 * @file
 * Google-benchmark microbenchmarks of the metrics-history layer: the
 * raw HistoryStore hot paths (record into all tiers, windowed query,
 * LTTB-downsampled query), one full sampler tick over a realistically
 * populated registry, and — the lane that guards the out-of-band
 * promise — the service's hot cache-hit path with history enabled vs
 * disabled. The committed baseline
 * (bench/baselines/BENCH_micro_history.json) gates all lanes in CI.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "obs/history.hh"
#include "obs/registry.hh"
#include "service/service.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

constexpr std::uint64_t kSec = 1000000000ull;

/** A store sized like the server default (600 buckets per tier). */
obs::HistoryConfig
defaultConfig()
{
    obs::HistoryConfig cfg;
    cfg.cadenceNs = kSec;
    cfg.retentionNs = 600 * kSec;
    return cfg;
}

/** One record() lands the sample in the raw ring and both rollups. */
void
BM_HistoryRecord(benchmark::State &state)
{
    obs::HistoryStore store(defaultConfig());
    std::uint64_t t = 0;
    for (auto _ : state) {
        store.record("bench.signal", t, 1.5);
        t += kSec;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryRecord);

/** Full-window query against a full raw ring (600 buckets copied). */
void
BM_HistoryQueryFullWindow(benchmark::State &state)
{
    obs::HistoryStore store(defaultConfig());
    for (std::uint64_t i = 0; i < 600; ++i)
        store.record("bench.signal", i * kSec, (i % 7) * 0.5);
    obs::HistoryStore::Query q;
    q.tier = 0;
    for (auto _ : state) {
        const auto r = store.query("bench.signal", q);
        benchmark::DoNotOptimize(r.points.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryQueryFullWindow);

/** Same query downsampled to a dashboard-sized point budget. */
void
BM_HistoryQueryLttb(benchmark::State &state)
{
    obs::HistoryStore store(defaultConfig());
    for (std::uint64_t i = 0; i < 600; ++i)
        store.record("bench.signal", i * kSec, (i % 7) * 0.5);
    obs::HistoryStore::Query q;
    q.tier = 0;
    q.maxPoints = 240;
    for (auto _ : state) {
        const auto r = store.query("bench.signal", q);
        benchmark::DoNotOptimize(r.points.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryQueryLttb);

/**
 * One sampler tick over a registry shaped like a busy server's: the
 * per-tick cost the background thread pays every cadence (registry
 * snapshots, counter-to-rate folding, histogram family merges, alert
 * gauge export, ~60 store records).
 */
void
BM_HistorySampleTick(benchmark::State &state)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.history.samplerThread = false;
    CampaignService service(opts);
    obs::Registry &reg = service.registry();
    for (int i = 0; i < 20; ++i) {
        reg.counter("bench.counter." + std::to_string(i)).add(100);
        reg.gauge("bench.gauge." + std::to_string(i)).set(i * 1.5);
    }
    std::uint64_t n = 0;
    for (auto _ : state) {
        // Nudge a counter so every tick folds fresh rates.
        reg.counter("bench.counter.0").add(++n);
        service.sampleHistoryOnce();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistorySampleTick);

/** A tiny scenario so warming the cache costs milliseconds. */
const char *const kBody =
    "{\"config\":\"NoUPS\",\"trials\":2,\"seed\":11,"
    "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
    "\"serve_for_min\":10.0,\"low_power\":true}}";

/**
 * The out-of-band guard: requests/sec through the hot cache-hit path
 * with the history layer on vs off. The two lanes must stay within
 * noise of each other — history's per-request cost is one relaxed
 * atomic load for the lag annotation.
 */
void
hotCacheLoop(benchmark::State &state, bool historyEnabled)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.history.enabled = historyEnabled;
    opts.history.samplerThread = false;
    CampaignService service(opts);
    HttpRequest req;
    req.method = "POST";
    req.target = "/v1/whatif";
    req.body = kBody;
    if (service.handle(req).status != 200) { // warm the cache
        state.SkipWithError("warm-up what-if failed");
        return;
    }
    for (auto _ : state) {
        const HttpResponse resp = service.handle(req);
        benchmark::DoNotOptimize(resp.body.data());
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_ServiceHotCacheHitHistoryOn(benchmark::State &state)
{
    hotCacheLoop(state, /*historyEnabled=*/true);
}
BENCHMARK(BM_ServiceHotCacheHitHistoryOn);

void
BM_ServiceHotCacheHitHistoryOff(benchmark::State &state)
{
    hotCacheLoop(state, /*historyEnabled=*/false);
}
BENCHMARK(BM_ServiceHotCacheHitHistoryOff);

/** The /v1/series render cost for one named series, full window. */
void
BM_ServiceSeriesEndpoint(benchmark::State &state)
{
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.history.samplerThread = false;
    CampaignService service(opts);
    for (int i = 0; i < 240; ++i) {
        service.registry().gauge("bench.gauge").set(i * 0.5);
        service.sampleHistoryOnce();
    }
    HttpRequest req;
    req.method = "GET";
    req.target = "/v1/series?name=bench.gauge&tier=0";
    for (auto _ : state) {
        const HttpResponse resp = service.handle(req);
        benchmark::DoNotOptimize(resp.body.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceSeriesEndpoint);

} // namespace

BENCHMARK_MAIN();
