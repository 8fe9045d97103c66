#include "service/service.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/context.hh"
#include "obs/obs.hh"
#include "service/dashboard.hh"

namespace bpsim
{
namespace service
{

namespace
{

/**
 * A what-if response for @p keyhex with its cache outcome: "hit",
 * "miss" or "coalesced", and for a hit the tier that served it. Sets
 * the X-Bpsim-Key/-Cache/-Cache-Tier headers and the track's cache
 * and tier alike, so the log line always matches the headers.
 */
HttpResponse
whatIfResponse(const char *keyhex, RequestTrack &track, const char *cache,
               const char *tier, std::string body)
{
    track.setCache(cache);
    HttpResponse resp;
    resp.headers.emplace_back("X-Bpsim-Key", keyhex);
    resp.headers.emplace_back("X-Bpsim-Cache", cache);
    if (tier != nullptr) {
        track.setTier(tier);
        resp.headers.emplace_back("X-Bpsim-Cache-Tier", tier);
    }
    resp.body = std::move(body);
    return resp;
}

obs::HistoryConfig
historyConfig(const HistoryOptions &h)
{
    obs::HistoryConfig cfg;
    cfg.cadenceNs = h.cadenceNs;
    cfg.retentionNs = h.retentionNs;
    cfg.maxSeries = h.maxSeries;
    return cfg;
}

} // namespace

CampaignService::CampaignService(ServiceOptions opts)
    : opts_(opts),
      cache_(opts.cacheEntries, &registry_),
      ckptCache_(opts.cacheEntries, &registry_, "service.ckpt.cache"),
      disk_(opts.cacheDir, &registry_),
      alerts_(defaultAlertRules()),
      reqobs_(opts.reqobs, &registry_),
      bootNs_(reqobs_.nowNs()),
      history_(historyConfig(opts.history)),
      http_(HttpServer::TimedHandler(
                [this](const HttpRequest &req, HttpConnectionIo &io) {
                    return handle(req, &io);
                }),
            opts.http)
{
}

CampaignService::~CampaignService()
{
    stopSampler();
}

bool
CampaignService::start(std::string *error)
{
    if (!http_.start(error))
        return false;
    startSampler();
    return true;
}

void
CampaignService::stop()
{
    stopSampler();
    http_.stop();
}

void
CampaignService::waitUntilStopped()
{
    http_.waitUntilStopped();
}

HttpResponse
CampaignService::handle(const HttpRequest &req)
{
    return handle(req, nullptr);
}

HttpResponse
CampaignService::handle(const HttpRequest &req, HttpConnectionIo *io)
{
    requestCount_.add();

    const Endpoint ep = endpointOf(req.target);
    const std::string *cid = req.header("x-bpsim-request-id");
    RequestTrack track(&reqobs_, ep, req.method,
                       cid != nullptr ? *cid : std::string(),
                       io != nullptr ? io->bytesIn : req.body.size(),
                       io != nullptr ? io->readNs : 0);

    HttpResponse resp = route(req, ep, track);
    resp.headers.emplace_back("X-Bpsim-Request-Id", track.publicId());
    // Snapshots must never be cached stale by a scraper or the
    // dashboard poller; one header on every response keeps the
    // contract uniform (pinned by the header-contract test).
    resp.headers.emplace_back("Cache-Control", "no-store");
    track.setStatus(resp.status);
    track.setHistoryLagMs(
        historyLagMs_.load(std::memory_order_relaxed));
    if (io != nullptr) {
        // The socket layer completes the record after the response
        // write, so the log line carries the write span + bytes out.
        io->onWritten = track.deferFinish();
    } else {
        track.setBytesOut(resp.body.size());
    }
    return resp;
}

HttpResponse
CampaignService::route(const HttpRequest &req, Endpoint ep,
                       RequestTrack &track)
{
    if (ep == Endpoint::Other) {
        registry_.counter("service.errors").add(1);
        return httpError(404, "no such endpoint: " + req.target);
    }
    const char *method =
        ep == Endpoint::WhatIf || ep == Endpoint::Shutdown ? "POST" : "GET";
    if (req.method != method)
        return httpError(405, std::string("use ") + method + " for " +
                                  targetPath(req.target));
    if (ep == Endpoint::WhatIf)
        return handleWhatIf(req, track);
    if (ep == Endpoint::Shutdown)
        return handleShutdown();

    // Every GET endpoint renders a snapshot.
    const auto s = track.span(RequestPhase::Serialize);
    switch (ep) {
    case Endpoint::Alerts:
        return handleAlerts();
    case Endpoint::Metrics:
        return handleMetrics();
    case Endpoint::Healthz:
        return handleHealthz();
    case Endpoint::Status:
        return handleStatus();
    case Endpoint::Series:
        return handleSeries(req);
    case Endpoint::AlertHistory:
        return handleAlertHistory();
    default:
        return handleDashboard();
    }
}

HttpResponse
CampaignService::handleWhatIf(const HttpRequest &req, RequestTrack &track)
{
    WhatIf w(track);
    if (auto refused = parse(req, w))
        return std::move(*refused);
    if (auto hit = memoryTier(w))
        return std::move(*hit);
    return flight(w);
}

std::optional<HttpResponse>
CampaignService::parse(const HttpRequest &req, WhatIf &w)
{
    const auto s = w.track.span(RequestPhase::Parse);
    std::string err;
    const auto body = parseJson(req.body, &err);
    std::optional<WhatIfRequest> request;
    if (body)
        request = parseWhatIfRequest(*body, &err, opts_.limits);
    if (!request) {
        registry_.counter("service.errors").add(1);
        return httpError(400, body ? err : "malformed JSON: " + err);
    }
    w.request = std::move(*request);
    w.key = canonicalCacheKey(w.request);
    std::snprintf(w.keyhex, sizeof w.keyhex, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(w.key)));
    return std::nullopt;
}

std::optional<HttpResponse>
CampaignService::memoryTier(WhatIf &w)
{
    // Memory hits skip the flight table (ResultCache is thread-safe),
    // so a hit never waits behind a running miss or coalesces behind
    // another hit. An absent key is left uncounted: the leader's
    // re-check counts the one miss, and a flight's followers count
    // nothing.
    const auto s = w.track.span(RequestPhase::CacheMem);
    if (auto body = cache_.get(w.key, /*countMiss=*/false))
        return whatIfResponse(w.keyhex, w.track, "hit", "memory",
                              std::move(*body));
    return std::nullopt;
}

HttpResponse
CampaignService::flight(WhatIf &w)
{
    // Single-flight: the first request for a key leads and executes;
    // identical concurrent requests park on the flight and copy its
    // body. Parse errors never get here (no key, nothing to share),
    // so every flight lands a 200 what-if body.
    std::promise<std::string> landed;
    Flight flight;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lk(inflight_m_);
        auto [it, fresh] = inflight_.try_emplace(w.key);
        if (fresh)
            it->second = {w.track.id(), landed.get_future().share()};
        flight = it->second;
        leader = fresh;
    }

    if (!leader) {
        registry_.counter("service.coalesced").add(1);
        w.track.setCoalescedInto(flight.leaderId);
        {
            const auto s = w.track.span(RequestPhase::Wait);
            coalesceWaiters_.fetch_add(1, std::memory_order_acq_rel);
            flight.body.wait();
            coalesceWaiters_.fetch_sub(1, std::memory_order_acq_rel);
        }
        return whatIfResponse(w.keyhex, w.track, "coalesced", nullptr,
                              flight.body.get());
    }

    const HttpResponse resp = lead(w);
    {
        std::lock_guard<std::mutex> lk(inflight_m_);
        inflight_.erase(w.key);
    }
    landed.set_value(resp.body);
    return resp;
}

HttpResponse
CampaignService::lead(WhatIf &w)
{
    // A result cached since memoryTier looked, say by a flight that
    // just landed, must not be recomputed.
    if (auto body = cache_.get(w.key))
        return whatIfResponse(w.keyhex, w.track, "hit", "memory",
                              std::move(*body));
    if (opts_.testBeforeCampaign)
        opts_.testBeforeCampaign();
    if (auto hit = diskTier(w))
        return std::move(*hit);

    const std::string ckpt_key = "ckpt|" + canonicalBaseKey(w.request);
    const std::optional<CampaignCheckpoint> from = checkpoint(w, ckpt_key);

    // The alert evidence is this campaign's own recording, whatever
    // else runs in the process.
    std::optional<obs::Context> evidence;
    if (opts_.evaluateAlerts && BPSIM_OBS_ENABLED) {
        evidence.emplace();
        evidence->sampleCadence = opts_.alertSampleCadence;
        evidence->sampleTrials = opts_.alertSampleTrials;
        evidence->registry = &registry_;
    }

    const WhatIfExecution ex = execute(w, from ? &*from : nullptr,
                                       evidence ? &*evidence : nullptr);
    HttpResponse resp =
        whatIfResponse(w.keyhex, w.track, "miss", nullptr, ex.body);
    if (ex.resumed)
        resp.headers.emplace_back("X-Bpsim-Resumed-From",
                                  std::to_string(ex.startTrial));
    store(w, ckpt_key, ex);
    if (evidence)
        raiseAlerts(w, *evidence);
    return resp;
}

std::optional<HttpResponse>
CampaignService::diskTier(WhatIf &w)
{
    const auto s = w.track.span(RequestPhase::CacheDisk);
    auto spilled = disk_.load(w.key);
    if (!spilled)
        return std::nullopt;
    // Warm restart: promote the spilled result so the next hit is a
    // map lookup again.
    cache_.put(w.key, *spilled);
    return whatIfResponse(w.keyhex, w.track, "hit", "disk",
                          std::move(*spilled));
}

std::optional<CampaignCheckpoint>
CampaignService::checkpoint(WhatIf &w, const std::string &ckptKey)
{
    // A full miss still need not simulate from trial 0: a checkpoint
    // stored under the budget-wildcarded base key covers any earlier
    // budget for this exact scenario.
    const auto s = w.track.span(RequestPhase::Checkpoint);
    if (auto text = ckptCache_.get(ckptKey))
        return readCheckpointJson(*text);
    auto spilled = disk_.load(ckptKey);
    if (!spilled)
        return std::nullopt;
    auto from = readCheckpointJson(*spilled);
    if (from)
        ckptCache_.put(ckptKey, std::move(*spilled));
    return from;
}

WhatIfExecution
CampaignService::execute(WhatIf &w, const CampaignCheckpoint *from,
                         obs::Context *evidence)
{
    const auto s = w.track.span(RequestPhase::Campaign);
    WhatIfExecution ex = executeWhatIf(w.request, from, evidence);
    registry_.counter("service.whatif.campaigns").add(1);
    if (ex.resumed) {
        registry_.counter("service.whatif.resumed").add(1);
        w.track.setResumedFrom(ex.startTrial);
    }
    return ex;
}

void
CampaignService::store(WhatIf &w, const std::string &ckptKey,
                       const WhatIfExecution &ex)
{
    const auto s = w.track.span(RequestPhase::Serialize);
    cache_.put(w.key, ex.body);
    disk_.store(w.key, ex.body);

    // Compare-and-store against what is stored now, not what this
    // miss read before its campaign: a concurrent miss of the same
    // scenario may have stored a deeper trajectory since, and a
    // smaller budget must never clobber one another request paid for.
    std::lock_guard<std::mutex> lk(ckpt_m_);
    std::optional<std::string> stored = ckptCache_.peek(ckptKey);
    if (!stored)
        stored = disk_.load(ckptKey);
    if (stored) {
        const auto current = readCheckpointJson(*stored);
        if (current && current->trials >= ex.checkpoint.trials)
            return;
    }
    std::ostringstream os;
    writeCheckpointJson(os, ex.checkpoint);
    std::string text = os.str();
    if (text.size() > opts_.checkpointMaxBytes) {
        registry_.counter("service.ckpt.oversize").add(1);
        return;
    }
    disk_.store(ckptKey, text);
    ckptCache_.put(ckptKey, std::move(text));
}

void
CampaignService::raiseAlerts(WhatIf &w, const obs::Context &evidence)
{
    const auto s = w.track.span(RequestPhase::Alerts);
    const auto series =
        obs::TimeSeriesStore::fromSamples(evidence.samples());
    const double residual = evidence.maxResidualMin();
    const auto fired =
        alerts_.evaluate(&series, &evidence.deltas().counters, &residual);
    alerts_.exportTo(registry_);
    if (fired.empty())
        return;
    registry_.counter("service.alerts.transitions").add(fired.size());
    // Timestamp with the leading request's admission time — already
    // read at admission, so retaining history costs no clock call and
    // stays byte-deterministic under the stepping fake clock.
    if (historyActive())
        appendAlertHistory(w.track.startNs(), fired);
}

void
CampaignService::appendAlertHistory(
    std::uint64_t tsNs, const std::vector<AlertEvent> &fired)
{
    std::lock_guard<std::mutex> lk(alert_log_m_);
    for (const AlertEvent &e : fired)
        alertLog_.push_back({tsNs, e});
    while (alertLog_.size() > opts_.history.alertEventCapacity) {
        alertLog_.pop_front();
        ++alertLogDropped_;
    }
}

HttpResponse
CampaignService::handleAlerts() const
{
    HttpResponse resp;
    resp.body = alerts_.toJson();
    return resp;
}

HttpResponse
CampaignService::handleMetrics()
{
    // Refresh the ALERTS-style gauges so a scrape always sees the
    // current rule states, then render the whole registry.
    alerts_.exportTo(registry_);
    std::ostringstream os;
    writeOpenMetrics(os, registry_, {{"build", buildId()}});
    HttpResponse resp;
    resp.contentType =
        "application/openmetrics-text; version=1.0.0; charset=utf-8";
    resp.body = os.str();
    return resp;
}

HttpResponse
CampaignService::handleHealthz()
{
    const std::uint64_t now = reqobs_.nowNs();
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("status", "ok");
    w.field("build", buildId());
    w.field("buildId", buildId());
    w.field("uptime_seconds",
            static_cast<double>(now - bootNs_) * 1e-9);
    w.field("requests", registry_.counter("service.requests").value());
    w.field("cache_entries",
            static_cast<std::uint64_t>(cache_.stats().entries));
    w.endObject();
    os << '\n';
    HttpResponse resp;
    resp.body = os.str();
    return resp;
}

HttpResponse
CampaignService::handleStatus()
{
    const std::uint64_t now = reqobs_.nowNs();
    std::size_t flight_depth = 0;
    {
        std::lock_guard<std::mutex> lk(inflight_m_);
        flight_depth = inflight_.size();
    }
    const CacheStats results = cache_.stats();
    const CacheStats ckpts = ckptCache_.stats();

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("status", "ok");
    w.field("buildId", buildId());
    w.field("uptime_seconds",
            static_cast<double>(now - bootNs_) * 1e-9);
    w.field("requests_total",
            registry_.counter("service.requests").value());
    w.field("flight_depth",
            static_cast<std::uint64_t>(flight_depth));
    w.field("coalesce_waiters", coalesceWaiters());

    w.key("requests");
    w.beginObject();
    w.field("observed", reqobs_.completedRequests());
    w.field("slow", reqobs_.slowRequests());
    w.field("access_log_lines", reqobs_.accessLogLines());
    w.field("access_log_open", reqobs_.logOpen());
    w.field("observability_active", reqobs_.active());
    w.endObject();

    // The in-flight table includes this /v1/status request itself.
    w.key("inflight");
    w.beginArray();
    for (const InflightRequest &r : reqobs_.inflight()) {
        w.beginObject();
        w.field("id", r.id);
        if (!r.clientId.empty())
            w.field("client_id", r.clientId);
        w.field("endpoint", endpointName(r.endpoint));
        w.field("phase", requestPhaseName(r.phase));
        w.field("age_seconds",
                static_cast<double>(now >= r.startNs
                                        ? now - r.startNs
                                        : 0) *
                    1e-9);
        w.endObject();
    }
    w.endArray();

    w.key("cache");
    w.beginObject();
    w.key("results");
    w.beginObject();
    w.field("entries", static_cast<std::uint64_t>(results.entries));
    w.field("value_bytes",
            static_cast<std::uint64_t>(results.valueBytes));
    w.field("hits", results.hits);
    w.field("misses", results.misses);
    w.field("evictions", results.evictions);
    w.endObject();
    w.key("checkpoints");
    w.beginObject();
    w.field("entries", static_cast<std::uint64_t>(ckpts.entries));
    w.field("value_bytes",
            static_cast<std::uint64_t>(ckpts.valueBytes));
    w.field("hits", ckpts.hits);
    w.field("misses", ckpts.misses);
    w.field("evictions", ckpts.evictions);
    w.endObject();
    w.key("disk");
    w.beginObject();
    w.field("enabled", disk_.enabled());
    if (disk_.enabled()) {
        w.field("dir", disk_.dir());
        w.field("files",
                static_cast<std::uint64_t>(disk_.fileCount()));
    }
    w.endObject();
    w.endObject();

    // The history block only exists while the layer is armed, so a
    // --history off (or BPSIM_OBS=OFF) status body is byte-identical
    // to the pre-history contract.
    if (historyActive()) {
        const obs::HistoryStats hs = history_.stats();
        std::size_t alert_events = 0;
        std::uint64_t alert_dropped = 0;
        {
            std::lock_guard<std::mutex> lk(alert_log_m_);
            alert_events = alertLog_.size();
            alert_dropped = alertLogDropped_;
        }
        w.key("history");
        w.beginObject();
        w.field("enabled", true);
        w.field("cadence_ns", opts_.history.cadenceNs);
        w.field("retention_ns", opts_.history.retentionNs);
        w.field("series", static_cast<std::uint64_t>(hs.series));
        w.field("samples", hs.samples);
        w.field("dropped_series", hs.droppedSeries);
        w.field("dropped_stale", hs.droppedStale);
        w.field("evicted_buckets", hs.evictedBuckets);
        w.field("bytes", static_cast<std::uint64_t>(hs.bytes));
        w.field("lag_ms", historyLagMs());
        w.key("tiers");
        w.beginArray();
        for (const obs::HistoryStats::Tier &t : hs.tiers) {
            w.beginObject();
            w.field("width_ns", t.widthNs);
            w.field("capacity",
                    static_cast<std::uint64_t>(t.capacity));
            w.field("buckets",
                    static_cast<std::uint64_t>(t.buckets));
            w.endObject();
        }
        w.endArray();
        w.field("alert_events",
                static_cast<std::uint64_t>(alert_events));
        w.field("alert_events_dropped", alert_dropped);
        w.endObject();
    }

    w.endObject();
    os << '\n';
    HttpResponse resp;
    resp.body = os.str();
    return resp;
}

HttpResponse
CampaignService::handleShutdown()
{
    http_.requestStop();
    HttpResponse resp;
    resp.body = "{\"status\":\"shutting down\"}\n";
    return resp;
}

namespace
{

/** Strict non-negative integer parse for query parameters. */
bool
parseU64(const std::string &s, std::uint64_t *out)
{
    if (s.empty() || s[0] == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

} // namespace

HttpResponse
CampaignService::handleSeries(const HttpRequest &req)
{
    if (!historyActive())
        return httpError(
            404, "metrics history disabled (start with --history on)");

    obs::HistoryStore::Query q;
    std::string v;
    std::uint64_t n = 0;
    if (queryParam(req.target, "after", &v)) {
        if (!parseU64(v, &q.afterNs))
            return httpError(400, "bad after: " + v);
    }
    if (queryParam(req.target, "before", &v)) {
        if (!parseU64(v, &q.beforeNs))
            return httpError(400, "bad before: " + v);
    }
    if (queryParam(req.target, "max", &v)) {
        if (!parseU64(v, &n))
            return httpError(400, "bad max: " + v);
        q.maxPoints = static_cast<std::size_t>(n);
    }
    if (queryParam(req.target, "tier", &v)) {
        if (!parseU64(v, &n) || n >= history_.tierCount())
            return httpError(400, "bad tier: " + v);
        q.tier = static_cast<int>(n);
    }

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("enabled", true);
    w.field("cadence_ns", opts_.history.cadenceNs);
    w.field("retention_ns", opts_.history.retentionNs);
    w.key("tiers");
    w.beginArray();
    for (std::size_t k = 0; k < history_.tierCount(); ++k) {
        w.beginObject();
        w.field("tier", static_cast<std::uint64_t>(k));
        w.field("width_ns", history_.tierWidthNs(k));
        w.field("capacity",
                static_cast<std::uint64_t>(history_.tierCapacity(k)));
        w.endObject();
    }
    w.endArray();

    std::string names;
    if (!queryParam(req.target, "name", &names) || names.empty()) {
        // No name asked: list what the store has (the dashboard and
        // the smoke test discover series this way).
        w.key("names");
        w.beginArray();
        for (const std::string &name : history_.names())
            w.value(name);
        w.endArray();
    } else {
        w.key("series");
        w.beginArray();
        std::size_t pos = 0;
        while (pos <= names.size()) {
            std::size_t comma = names.find(',', pos);
            if (comma == std::string::npos)
                comma = names.size();
            const std::string name = names.substr(pos, comma - pos);
            pos = comma + 1;
            if (name.empty())
                continue;
            const obs::HistoryStore::Series s =
                history_.query(name, q);
            w.beginObject();
            w.field("name", name);
            w.field("found", s.tier >= 0);
            if (s.tier >= 0) {
                w.field("tier", s.tier);
                w.field("width_ns", s.widthNs);
                w.field("capacity",
                        static_cast<std::uint64_t>(s.capacity));
                w.field("downsampled", s.downsampled);
                // Compact point form: [start_ns, count, min, max, sum]
                // (mean = sum/count; rates already divide by count 1).
                w.key("points");
                w.beginArray();
                for (const obs::HistoryBucket &b : s.points) {
                    w.beginArray();
                    w.value(b.startNs);
                    w.value(b.count);
                    w.value(b.min);
                    w.value(b.max);
                    w.value(b.sum);
                    w.endArray();
                }
                w.endArray();
            }
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    os << '\n';
    HttpResponse resp;
    resp.body = os.str();
    return resp;
}

HttpResponse
CampaignService::handleAlertHistory()
{
    if (!historyActive())
        return httpError(
            404, "metrics history disabled (start with --history on)");

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("events");
    w.beginArray();
    {
        std::lock_guard<std::mutex> lk(alert_log_m_);
        for (const AlertHistoryEntry &e : alertLog_) {
            w.beginObject();
            w.field("ts_ns", e.tsNs);
            w.field("rule", e.event.rule);
            w.field("trial", e.event.trial);
            w.field("t_us",
                    static_cast<std::uint64_t>(
                        e.event.t >= 0 ? e.event.t : 0));
            w.field("from", alertStateName(e.event.from));
            w.field("to", alertStateName(e.event.to));
            w.field("value", e.event.value);
            w.endObject();
        }
        w.endArray();
        w.field("dropped", alertLogDropped_);
    }
    w.endObject();
    os << '\n';
    HttpResponse resp;
    resp.body = os.str();
    return resp;
}

HttpResponse
CampaignService::handleDashboard() const
{
    // Served even with history off: the page itself explains the 404
    // its /v1/series poll gets, which beats a bare server-side 404.
    HttpResponse resp;
    resp.contentType = "text/html; charset=utf-8";
    resp.body = renderDashboardHtml();
    return resp;
}

void
CampaignService::sampleHistoryOnce()
{
    if (!historyActive())
        return;
    // One clock read per tick; every record of this tick shares it,
    // so a whole sample lands in one raw bucket.
    const std::uint64_t now = reqobs_.nowNs();

    std::lock_guard<std::mutex> lk(sample_m_);
    const bool first = lastSampleNs_ == 0;
    const double dt_sec =
        first ? 0.0
              : static_cast<double>(now - lastSampleNs_) * 1e-9;
    if (!first) {
        const std::uint64_t due =
            lastSampleNs_ + opts_.history.cadenceNs;
        historyLagMs_.store(now > due ? (now - due) / 1000000ull : 0,
                            std::memory_order_relaxed);
    }
    lastSampleNs_ = now;

    // Counter-like values become rates against the previous tick
    // (nothing is recorded on the first tick — there is no interval
    // to rate over yet).
    const auto rate = [&](const std::string &base, double value) {
        const auto it = prevSamples_.find(base);
        const bool have_prev = it != prevSamples_.end();
        const double prev = have_prev ? it->second : 0.0;
        prevSamples_[base] = value;
        if (!have_prev || dt_sec <= 0.0)
            return;
        const double r = value >= prev ? (value - prev) / dt_sec : 0.0;
        history_.record(base + ":rate", now, r);
    };

    // Refresh the ALERTS-style gauges first so the alert panel tracks
    // rule state at sample resolution, not scrape resolution.
    alerts_.exportTo(registry_);

    for (const auto &[name, value] : registry_.counterSnapshot())
        rate(name, static_cast<double>(value));
    for (const auto &[name, value] : registry_.gaugeSnapshot())
        history_.record(name, now, value);

    // Request histograms are label-encoded per endpoint/phase/status;
    // the history tracks the merged family (bucket-wise addition is
    // exact) as quantiles plus a completion rate.
    std::map<std::string, obs::HistogramSnapshot> families;
    for (const auto &[name, snap] : registry_.histogramSnapshot()) {
        const std::size_t bar = name.find('|');
        std::map<std::string, obs::HistogramSnapshot> one;
        one.emplace(bar == std::string::npos ? name
                                             : name.substr(0, bar),
                    snap);
        obs::mergeHistograms(families, one);
    }
    for (const auto &[family, snap] : families) {
        history_.record(family + ":p50", now, snap.quantile(0.5));
        history_.record(family + ":p99", now, snap.quantile(0.99));
        rate(family + ":count", static_cast<double>(snap.count()));
    }

    // Service depths (cache/flight/in-flight tables): gauges the
    // registry does not carry.
    const CacheStats results = cache_.stats();
    const CacheStats ckpts = ckptCache_.stats();
    history_.record("service.cache.results.entries", now,
                    static_cast<double>(results.entries));
    history_.record("service.cache.results.value_bytes", now,
                    static_cast<double>(results.valueBytes));
    rate("service.cache.results.hits",
         static_cast<double>(results.hits));
    rate("service.cache.results.misses",
         static_cast<double>(results.misses));
    history_.record("service.cache.ckpt.entries", now,
                    static_cast<double>(ckpts.entries));
    history_.record("service.cache.ckpt.value_bytes", now,
                    static_cast<double>(ckpts.valueBytes));
    std::size_t flight_depth = 0;
    {
        std::lock_guard<std::mutex> flk(inflight_m_);
        flight_depth = inflight_.size();
    }
    history_.record("service.flight.depth", now,
                    static_cast<double>(flight_depth));
    history_.record("service.coalesce.waiters", now,
                    static_cast<double>(coalesceWaiters()));
    history_.record("service.inflight.requests", now,
                    static_cast<double>(reqobs_.inflight().size()));
}

void
CampaignService::startSampler()
{
    if (!historyActive() || !opts_.history.samplerThread ||
        sampler_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lk(sampler_m_);
        samplerStop_ = false;
    }
    sampler_ = std::thread([this] { samplerLoop(); });
}

void
CampaignService::stopSampler()
{
    {
        std::lock_guard<std::mutex> lk(sampler_m_);
        samplerStop_ = true;
    }
    sampler_cv_.notify_all();
    if (sampler_.joinable())
        sampler_.join();
}

void
CampaignService::samplerLoop()
{
    std::unique_lock<std::mutex> lk(sampler_m_);
    while (!samplerStop_) {
        lk.unlock();
        sampleHistoryOnce();
        lk.lock();
        sampler_cv_.wait_for(
            lk, std::chrono::nanoseconds(opts_.history.cadenceNs),
            [this] { return samplerStop_; });
    }
}

} // namespace service
} // namespace bpsim
