/**
 * @file
 * The resident campaign service: what-if queries, result cache,
 * live metrics and alert rules behind the HTTP front end.
 *
 * Endpoints (see docs/SERVICE.md for the full contract):
 *
 *   POST /v1/whatif    scenario JSON in, deterministic campaign
 *                      summary JSON out. Responses are served from
 *                      the content-addressed cache when the
 *                      (config, seed, trials, buildId) tuple has
 *                      been computed before; the X-Bpsim-Cache
 *                      header says "hit" or "miss".
 *   GET  /v1/alerts    current alert-rule states as JSON.
 *   GET  /metrics      OpenMetrics exposition of the service's own
 *                      registry, including the ALERTS-style
 *                      alert.<rule>.state gauges.
 *   GET  /healthz      liveness probe.
 *   GET  /v1/series    tiered metrics history (sampler-fed; window,
 *                      max-points and tier query parameters).
 *   GET  /v1/alerts/history
 *                      retained alert transition log.
 *   GET  /dashboard    self-contained live HTML dashboard.
 *   POST /v1/shutdown  graceful stop (used by the CI smoke test).
 *
 * Misses run concurrently: nothing serializes campaign execution.
 * Each miss records into its own obs::Context, so its alert evidence
 * (counters, incident residuals, sampled signals) is its campaign's
 * alone, whatever else the process runs. The first campaign fans out
 * across the shared ThreadPool; a campaign that starts while
 * the pool is busy runs its trials inline on its request thread (the
 * pool's documented fallback), which keeps results bit-identical.
 * Memory-cache hits are served before the flight table, so neither a
 * hit nor a metrics scrape, alert read or health probe waits on a
 * running campaign; a request that misses re-checks the cache before
 * computing, so each request counts at most one hit or miss.
 *
 * A what-if runs one pipeline of stages over one per-request state
 * (docs/SERVICE.md "Request flow"): parse -> memory tier -> flight ->
 * disk tier -> checkpoint -> execute -> store -> alerts. Three of
 * them sit in front of the campaign:
 *
 *   - Single-flight coalescing: identical concurrent what-ifs share
 *     one execution. The first request leads; the rest park on the
 *     flight and copy its response ("X-Bpsim-Cache: coalesced",
 *     counter service.coalesced).
 *   - Incremental trial reuse: every campaign leaves a serialized
 *     CampaignCheckpoint behind, keyed by the budget-wildcarded base
 *     key. A later request for the same scenario with a larger budget
 *     resumes from it, simulating only the remaining trials —
 *     bit-identical to a fresh run (campaign/checkpoint.hh).
 *   - Persistent cache: results and checkpoints spill to --cache-dir
 *     (DiskStore) and are lazily reloaded after a restart; any
 *     corruption degrades to a miss.
 */

#ifndef BPSIM_SERVICE_SERVICE_HH
#define BPSIM_SERVICE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "obs/history.hh"
#include "service/alerts.hh"
#include "service/cache.hh"
#include "service/disk_store.hh"
#include "service/http.hh"
#include "service/reqobs.hh"
#include "service/whatif.hh"

namespace bpsim
{
namespace service
{

/**
 * Metrics-history configuration: the tiered store behind
 * GET /v1/series plus the background sampler that feeds it. Like
 * reqobs, the whole layer is strictly out of band — every existing
 * endpoint's response body is byte-identical with it on, off or
 * compiled out (BPSIM_OBS=OFF), which the history tests pin.
 */
struct HistoryOptions
{
    /** Master switch (--history on|off). */
    bool enabled = true;
    /** Sampler tick period = raw-tier bucket width. */
    std::uint64_t cadenceNs = 1000000000ull;
    /** Raw-tier span; rollup tiers span 10x / 60x this. */
    std::uint64_t retentionNs = 600ull * 1000000000ull;
    /** Hard cap on distinct stored series. */
    std::size_t maxSeries = 256;
    /**
     * Spawn the background sampler thread on start(). Tests set this
     * false and drive sampleHistoryOnce() by hand so every sample
     * lands at a stepping-fake-clock timestamp and /v1/series bytes
     * are pinned exactly.
     */
    bool samplerThread = true;
    /** Alert transitions retained for GET /v1/alerts/history; older
     *  entries are dropped (and counted). */
    std::size_t alertEventCapacity = 1024;
};

/** One retained alert transition (GET /v1/alerts/history). */
struct AlertHistoryEntry
{
    /** Service clock value (ns) of the request whose campaign fired
     *  the transition. */
    std::uint64_t tsNs = 0;
    AlertEvent event;
};

/** Service configuration. */
struct ServiceOptions
{
    HttpServerOptions http;
    /** Result-cache bound (entries). */
    std::size_t cacheEntries = 256;
    /** Request sizing guard-rails. */
    WhatIfLimits limits;
    /**
     * Evaluate the alert rule book after every uncached what-if: the
     * campaign then records into its own obs::Context. Ignored when
     * the obs layer is compiled out.
     */
    bool evaluateAlerts = true;
    /** Simulated time between the signal samples Signal rules read
     *  (--sample-seconds; hourly by default). */
    Time alertSampleCadence = fromHours(1.0);
    /** Trials per campaign that sample signals for the alert engine,
     *  counted from the first trial the campaign simulates (the
     *  Context's sample window; bounds memory). */
    std::uint64_t alertSampleTrials = 4;
    /** Spill results and checkpoints here; empty = memory only. */
    std::string cacheDir;
    /** Checkpoints whose serialized form exceeds this are not stored
     *  (the campaign still runs; only reuse is forfeited). */
    std::size_t checkpointMaxBytes = 1u << 20;
    /**
     * Test hook: invoked by a flight's leader once its memory-cache
     * re-check missed, before the disk, checkpoint and campaign
     * stages. Lets tests
     * hold a miss while followers park, hits arrive or other misses
     * run. Never set in production.
     */
    std::function<void()> testBeforeCampaign;
    /** Request-level observability (ids, spans, access log, status). */
    RequestObsOptions reqobs;
    /** Metrics history (tiered store + sampler + /v1/series). */
    HistoryOptions history;
};

/** The resident server (construct, start(), waitUntilStopped()). */
class CampaignService
{
  public:
    explicit CampaignService(ServiceOptions opts = {});
    ~CampaignService();

    /** Start listening (and the history sampler thread when armed);
     *  false (with @p error) on socket failure. */
    bool start(std::string *error = nullptr);

    /** Graceful stop: finish in-flight requests, then return. */
    void stop();

    /** Block until a shutdown request (or stop()) lands. */
    void waitUntilStopped();

    bool running() const { return http_.running(); }
    std::uint16_t port() const { return http_.port(); }

    /**
     * Route one request (the HTTP handler; public so tests can
     * exercise the full service without a socket). The @p io overload
     * is what the socket layer calls: it carries read timing/bytes in
     * and receives the post-write completion hook, so the access-log
     * line includes the read and write phases.
     */
    HttpResponse handle(const HttpRequest &req);
    HttpResponse handle(const HttpRequest &req, HttpConnectionIo *io);

    /** The service's metrics: what /metrics renders and the history
     *  sampler reads. */
    obs::Registry &registry() { return registry_; }
    ResultCache &cache() { return cache_; }
    ResultCache &checkpointCache() { return ckptCache_; }
    const DiskStore &disk() const { return disk_; }
    AlertEngine &alerts() { return alerts_; }
    RequestObserver &requestObserver() { return reqobs_; }
    obs::HistoryStore &history() { return history_; }

    /** True when the history layer serves /v1/series (enabled and the
     *  obs layer compiled in — the reqobs kCompiledIn contract). */
    bool historyActive() const
    {
        return RequestObserver::kCompiledIn && opts_.history.enabled;
    }

    /**
     * Take one history sample: read the shared clock once, then fold
     * registry() (counters as rates, gauges raw, request-histogram
     * family quantiles), cache/flight depths and alert states into the
     * tiered store. The sampler thread calls this every cadence; tests
     * with samplerThread = false call it directly so sample
     * timestamps follow the injected stepping clock.
     */
    void sampleHistoryOnce();

    /** Milliseconds the last sampler tick ran behind its cadence. */
    std::uint64_t historyLagMs() const
    {
        return historyLagMs_.load(std::memory_order_relaxed);
    }

    /** Followers currently parked on in-flight executions (the
     *  coalescing test uses this to sequence leader vs. followers). */
    std::uint64_t coalesceWaiters() const
    {
        return coalesceWaiters_.load(std::memory_order_acquire);
    }

  private:
    /** One coalesced execution in flight for a canonical key. */
    struct Flight
    {
        /** The leading request's id (followers log it). */
        std::uint64_t leaderId = 0;
        /** The leader's response body, once it lands. */
        std::shared_future<std::string> body;
    };

    /** One POST /v1/whatif on its way through the stages. */
    struct WhatIf
    {
        explicit WhatIf(RequestTrack &t) : track(t) {}
        RequestTrack &track;
        WhatIfRequest request;
        /** canonicalCacheKey(request) and its FNV-1a 64 hex form. */
        std::string key;
        char keyhex[24] = {};
    };

    /** Dispatch to the endpoint handlers (handle() minus the
     *  per-request bookkeeping that wraps every response). */
    HttpResponse route(const HttpRequest &req, Endpoint ep,
                       RequestTrack &track);
    /** @name POST /v1/whatif and its stages, in pipeline order
     *  A stage that returns a response ends the request. lead() is the
     *  flight leader's work: an unspanned memory re-check (it counts
     *  the request's one hit or miss), then the stages after it. */
    ///@{
    HttpResponse handleWhatIf(const HttpRequest &req, RequestTrack &track);
    std::optional<HttpResponse> parse(const HttpRequest &req, WhatIf &w);
    std::optional<HttpResponse> memoryTier(WhatIf &w);
    HttpResponse flight(WhatIf &w);
    HttpResponse lead(WhatIf &w);
    std::optional<HttpResponse> diskTier(WhatIf &w);
    std::optional<CampaignCheckpoint> checkpoint(WhatIf &w,
                                                 const std::string &ckptKey);
    WhatIfExecution execute(WhatIf &w, const CampaignCheckpoint *from,
                            obs::Context *evidence);
    void store(WhatIf &w, const std::string &ckptKey,
               const WhatIfExecution &ex);
    void raiseAlerts(WhatIf &w, const obs::Context &evidence);
    ///@}

    HttpResponse handleAlerts() const;
    HttpResponse handleMetrics();
    HttpResponse handleHealthz();
    HttpResponse handleStatus();
    HttpResponse handleShutdown();
    HttpResponse handleSeries(const HttpRequest &req);
    HttpResponse handleAlertHistory();
    HttpResponse handleDashboard() const;

    /** Retain this round's alert transitions for /v1/alerts/history
     *  (bounded; @p tsNs is the leading request's admission time). */
    void appendAlertHistory(std::uint64_t tsNs,
                            const std::vector<AlertEvent> &fired);
    void startSampler();
    void stopSampler();
    void samplerLoop();

    ServiceOptions opts_;
    /** Declared before every member that publishes into it. */
    obs::Registry registry_;
    /** "service.requests", bumped by every handle(). */
    obs::LazyCounter requestCount_{&registry_, "service.requests"};
    ResultCache cache_;
    /** Serialized CampaignCheckpoints keyed by "ckpt|" + base key. */
    ResultCache ckptCache_;
    DiskStore disk_;
    AlertEngine alerts_;
    /** Serializes storeCheckpoint's compare-and-store. */
    std::mutex ckpt_m_;
    /** Guards inflight_. */
    std::mutex inflight_m_;
    std::unordered_map<std::string, Flight> inflight_;
    std::atomic<std::uint64_t> coalesceWaiters_{0};
    RequestObserver reqobs_;
    /** Clock value at construction (uptime = now - boot). */
    std::uint64_t bootNs_ = 0;

    /** The tiered metrics history (bounded; see obs/history.hh). */
    obs::HistoryStore history_;
    /** Serializes sampler ticks (thread vs. test-driven calls). */
    std::mutex sample_m_;
    /** Clock value of the previous tick (0 = none yet); rates and
     *  lag are computed against it. Guarded by sample_m_. */
    std::uint64_t lastSampleNs_ = 0;
    /** Counter-like values at the previous tick (registry counters,
     *  cache hit/miss totals, histogram counts). Guarded by
     *  sample_m_. */
    std::map<std::string, double> prevSamples_;
    std::atomic<std::uint64_t> historyLagMs_{0};

    /** Guards alertLog_/alertLogDropped_. */
    mutable std::mutex alert_log_m_;
    std::deque<AlertHistoryEntry> alertLog_;
    std::uint64_t alertLogDropped_ = 0;

    /** The background sampler (started by start(), joined by stop()
     *  and the destructor). */
    std::thread sampler_;
    std::mutex sampler_m_;
    std::condition_variable sampler_cv_;
    bool samplerStop_ = false;

    HttpServer http_;
};

} // namespace service
} // namespace bpsim

#endif // BPSIM_SERVICE_SERVICE_HH
