#include "service/reqobs.hh"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string_view>

#include "campaign/json.hh"

namespace bpsim
{
namespace service
{

namespace
{

/** Monotonic nanoseconds since the first call (the default clock). */
std::uint64_t
steadyNs(std::chrono::steady_clock::time_point epoch)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

/** A client-supplied request id is accepted only when it is short and
 *  header/log-safe; anything else is silently ignored. */
bool
validClientId(const std::string &id)
{
    if (id.empty() || id.size() > 64)
        return false;
    for (const char c : id) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

const char *
requestPhaseName(RequestPhase phase)
{
    switch (phase) {
    case RequestPhase::Read:
        return "read";
    case RequestPhase::Parse:
        return "parse";
    case RequestPhase::Wait:
        return "wait";
    case RequestPhase::CacheMem:
        return "cache_mem";
    case RequestPhase::CacheDisk:
        return "cache_disk";
    case RequestPhase::Checkpoint:
        return "checkpoint";
    case RequestPhase::Campaign:
        return "campaign";
    case RequestPhase::Alerts:
        return "alerts";
    case RequestPhase::Serialize:
        return "serialize";
    case RequestPhase::Write:
        return "write";
    }
    return "?";
}

const char *
endpointName(Endpoint ep)
{
    switch (ep) {
    case Endpoint::WhatIf:
        return "whatif";
    case Endpoint::Alerts:
        return "alerts";
    case Endpoint::Metrics:
        return "metrics";
    case Endpoint::Healthz:
        return "healthz";
    case Endpoint::Status:
        return "status";
    case Endpoint::Shutdown:
        return "shutdown";
    case Endpoint::Series:
        return "series";
    case Endpoint::AlertHistory:
        return "alert_history";
    case Endpoint::Dashboard:
        return "dashboard";
    case Endpoint::Other:
        return "other";
    }
    return "?";
}

Endpoint
endpointOf(const std::string &target)
{
    // Series queries carry parameters ("/v1/series?name=..."); the
    // endpoint identity is the path alone.
    const std::size_t qm = target.find('?');
    const std::string_view path(
        target.data(), qm == std::string::npos ? target.size() : qm);
    if (path == "/v1/whatif")
        return Endpoint::WhatIf;
    if (path == "/v1/alerts")
        return Endpoint::Alerts;
    if (path == "/metrics")
        return Endpoint::Metrics;
    if (path == "/healthz")
        return Endpoint::Healthz;
    if (path == "/v1/status")
        return Endpoint::Status;
    if (path == "/v1/shutdown")
        return Endpoint::Shutdown;
    if (path == "/v1/series")
        return Endpoint::Series;
    if (path == "/v1/alerts/history")
        return Endpoint::AlertHistory;
    if (path == "/dashboard")
        return Endpoint::Dashboard;
    return Endpoint::Other;
}

std::string
requestMetricName(Endpoint ep, const char *phase, int status)
{
    std::string name = "service.request.seconds|endpoint=";
    name += endpointName(ep);
    name += ",phase=";
    name += phase;
    name += ",status=";
    name += std::to_string(status);
    return name;
}

void
RequestRecord::addSpan(RequestPhase p, std::uint64_t beginNs,
                       std::uint64_t endNs)
{
    spans.push_back({p, beginNs, endNs});
    const auto i = static_cast<std::size_t>(p);
    phaseNs[i] += endNs - beginNs;
    phaseSeen[i] = true;
}

RequestObserver::RequestObserver(RequestObsOptions opts,
                                 obs::Registry *registry)
    : opts_(std::move(opts)), registry_(registry)
{
    if (!opts_.clock) {
        const auto epoch = std::chrono::steady_clock::now();
        opts_.clock = [epoch] { return steadyNs(epoch); };
    }
    if (active() && !opts_.accessLogPath.empty()) {
        logFile_.open(opts_.accessLogPath,
                      std::ios::out | std::ios::app);
        if (!logFile_.good() && registry_ != nullptr)
            registry_->counter("service.reqobs.log_errors").add(1);
    }
}

std::uint64_t
RequestObserver::nowNs() const
{
    return opts_.clock();
}

std::vector<InflightRequest>
RequestObserver::inflight() const
{
    std::vector<InflightRequest> out;
    {
        std::lock_guard<std::mutex> lk(m_);
        out.reserve(inflightTable_.size());
        for (const auto &e : inflightTable_)
            out.push_back({e->id, e->clientId, e->endpoint,
                           static_cast<RequestPhase>(
                               e->phase.load(std::memory_order_relaxed)),
                           e->startNs});
    }
    std::sort(out.begin(), out.end(),
              [](const InflightRequest &a, const InflightRequest &b) {
                  return a.id < b.id;
              });
    return out;
}

std::uint64_t
RequestObserver::completedRequests() const
{
    return completed_.load(std::memory_order_relaxed);
}

std::uint64_t
RequestObserver::slowRequests() const
{
    return slow_.load(std::memory_order_relaxed);
}

std::uint64_t
RequestObserver::accessLogLines() const
{
    return logLines_.load(std::memory_order_relaxed);
}

bool
RequestObserver::logOpen() const
{
    return opts_.accessLogStream != nullptr || logFile_.is_open();
}

std::shared_ptr<RequestObserver::Inflight>
RequestObserver::admit(std::uint64_t id, std::string clientId,
                       Endpoint ep, std::uint64_t startNs)
{
    auto info = std::make_shared<Inflight>();
    info->id = id;
    info->clientId = std::move(clientId);
    info->endpoint = ep;
    info->startNs = startNs;
    std::lock_guard<std::mutex> lk(m_);
    inflightTable_.push_back(info);
    return info;
}

void
RequestObserver::retire(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(m_);
    for (auto it = inflightTable_.begin(); it != inflightTable_.end();
         ++it) {
        if ((*it)->id == id) {
            inflightTable_.erase(it);
            return;
        }
    }
}

void
RequestObserver::complete(RequestRecord &&rec)
{
    const std::uint64_t total = rec.endNs - rec.startNs;
    if (registry_ != nullptr) {
        for (std::size_t i = 0; i < kRequestPhaseCount; ++i) {
            if (!rec.phaseSeen[i])
                continue;
            registry_
                ->histogram(requestMetricName(
                    rec.endpoint,
                    requestPhaseName(static_cast<RequestPhase>(i)),
                    rec.status))
                .record(static_cast<double>(rec.phaseNs[i]) * 1e-9);
        }
        registry_->histogram(requestMetricName(rec.endpoint, "total",
                                               rec.status))
            .record(static_cast<double>(total) * 1e-9);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);

    const bool slow =
        total >= opts_.slowMs * 1000000ull; // slowMs == 0: all slow
    if (slow)
        slow_.fetch_add(1, std::memory_order_relaxed);
    if (logOpen())
        writeLogLine(rec);

    std::lock_guard<std::mutex> lk(m_);
    ring_.push_back(std::move(rec));
    while (ring_.size() > opts_.traceCapacity)
        ring_.pop_front();
}

void
RequestObserver::writeLogLine(const RequestRecord &rec)
{
    const std::uint64_t total = rec.endNs - rec.startNs;
    const bool slow = total >= opts_.slowMs * 1000000ull;

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("ts_us", rec.startNs / 1000);
    w.field("id", rec.id);
    if (!rec.clientId.empty())
        w.field("client_id", rec.clientId);
    w.field("endpoint", endpointName(rec.endpoint));
    w.field("method", rec.method);
    w.field("status", rec.status);
    if (!rec.cache.empty())
        w.field("cache", rec.cache);
    if (!rec.tier.empty())
        w.field("tier", rec.tier);
    if (rec.coalescedInto != 0)
        w.field("coalesced_into", rec.coalescedInto);
    if (rec.resumedFrom >= 0)
        w.field("resumed_from",
                static_cast<std::uint64_t>(rec.resumedFrom));
    w.field("bytes_in", rec.bytesIn);
    w.field("bytes_out", rec.bytesOut);
    if (rec.historyLagMs != 0)
        w.field("history_lag_ms", rec.historyLagMs);
    w.field("total_us", total / 1000);
    w.key("phases");
    w.beginObject();
    for (std::size_t i = 0; i < kRequestPhaseCount; ++i)
        if (rec.phaseSeen[i])
            w.field(requestPhaseName(static_cast<RequestPhase>(i)),
                    rec.phaseNs[i] / 1000);
    w.endObject();
    if (slow) {
        // The slow threshold promotes the request from one summary
        // line to a full span timeline (begin/end offsets from the
        // request start), so a tail-latency request explains itself.
        w.field("slow", true);
        w.key("spans");
        w.beginArray();
        for (const RequestSpan &s : rec.spans) {
            w.beginObject();
            w.field("phase", requestPhaseName(s.phase));
            w.field("begin_us", (s.beginNs - rec.startNs) / 1000);
            w.field("end_us", (s.endNs - rec.startNs) / 1000);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();

    std::lock_guard<std::mutex> lk(log_m_);
    if (opts_.accessLogStream != nullptr)
        *opts_.accessLogStream << os.str() << '\n';
    if (logFile_.is_open()) {
        logFile_ << os.str() << '\n';
        logFile_.flush(); // whole lines survive a SIGKILL
    }
    logLines_.fetch_add(1, std::memory_order_relaxed);
}

void
RequestObserver::writeTrace(std::ostream &os) const
{
    std::vector<obs::SpanEvent> spans;
    {
        std::lock_guard<std::mutex> lk(m_);
        for (const RequestRecord &r : ring_) {
            obs::SpanEvent req;
            req.name = endpointName(r.endpoint);
            req.category = "request";
            req.track = r.id;
            req.startUs = static_cast<std::int64_t>(r.startNs / 1000);
            req.durUs =
                static_cast<std::int64_t>((r.endNs - r.startNs) / 1000);
            req.args.emplace_back("id", std::to_string(r.id));
            req.args.emplace_back("status", std::to_string(r.status));
            if (!r.cache.empty())
                req.args.emplace_back("cache", '"' + r.cache + '"');
            if (!r.tier.empty())
                req.args.emplace_back("tier", '"' + r.tier + '"');
            if (r.coalescedInto != 0)
                req.args.emplace_back("coalesced_into",
                                      std::to_string(r.coalescedInto));
            if (r.resumedFrom >= 0)
                req.args.emplace_back("resumed_from",
                                      std::to_string(r.resumedFrom));
            req.args.emplace_back("bytes_in",
                                  std::to_string(r.bytesIn));
            req.args.emplace_back("bytes_out",
                                  std::to_string(r.bytesOut));
            spans.push_back(std::move(req));
            for (const RequestSpan &s : r.spans) {
                obs::SpanEvent ph;
                ph.name = requestPhaseName(s.phase);
                ph.category = "phase";
                ph.track = r.id;
                ph.startUs =
                    static_cast<std::int64_t>(s.beginNs / 1000);
                ph.durUs = static_cast<std::int64_t>(
                    (s.endNs - s.beginNs) / 1000);
                spans.push_back(std::move(ph));
            }
        }
    }
    obs::TraceExportOptions opts;
    opts.metadata = {{"build", buildId()}};
    obs::writeSpanTrace(os, spans, opts);
}

RequestTrack::RequestTrack(RequestObserver *obs, Endpoint ep,
                           std::string method,
                           const std::string &clientId,
                           std::uint64_t bytesIn, std::uint64_t readNs)
    : obs_(obs)
{
    rec_.id = obs_->nextId();
    if (validClientId(clientId))
        rec_.clientId = clientId;
    rec_.endpoint = ep;
    rec_.method = std::move(method);
    rec_.bytesIn = bytesIn;
    rec_.startNs = obs_->nowNs();
    if (obs_->active() && readNs != 0) {
        // The HTTP layer read the request before this track existed;
        // back-date the request start so the read span is part of it.
        const std::uint64_t begin =
            rec_.startNs >= readNs ? rec_.startNs - readNs : 0;
        rec_.addSpan(RequestPhase::Read, begin, rec_.startNs);
        rec_.startNs = begin;
    }
    info_ = obs_->admit(rec_.id, rec_.clientId, ep, rec_.startNs);
}

RequestTrack::~RequestTrack()
{
    finish();
}

std::string
RequestTrack::publicId() const
{
    return rec_.clientId.empty() ? std::to_string(rec_.id)
                                 : rec_.clientId;
}

RequestTrack::Span::Span(RequestTrack *track, RequestPhase phase)
    : track_(track), phase_(phase),
      beginNs_(track != nullptr && track->obs_->active()
                   ? track->obs_->nowNs()
                   : 0)
{
    if (track_ != nullptr)
        track_->info_->phase.store(static_cast<std::uint8_t>(phase),
                                   std::memory_order_relaxed);
}

RequestTrack::Span::Span(Span &&other) noexcept
    : track_(other.track_), phase_(other.phase_),
      beginNs_(other.beginNs_)
{
    other.track_ = nullptr;
}

RequestTrack::Span::~Span()
{
    if (track_ == nullptr || !track_->obs_->active())
        return;
    track_->rec_.addSpan(phase_, beginNs_, track_->obs_->nowNs());
}

RequestTrack::Span
RequestTrack::span(RequestPhase phase)
{
    return Span(this, phase);
}

std::function<void(std::uint64_t, std::uint64_t)>
RequestTrack::deferFinish()
{
    deferred_ = true;
    RequestObserver *obs = obs_;
    auto rec = std::make_shared<RequestRecord>(std::move(rec_));
    return [obs, rec](std::uint64_t writeNs, std::uint64_t bytesOut) {
        rec->bytesOut = bytesOut;
        obs->retire(rec->id);
        if (!obs->active())
            return;
        const std::uint64_t now = obs->nowNs();
        if (writeNs != 0)
            rec->addSpan(RequestPhase::Write,
                         now >= writeNs ? now - writeNs : 0, now);
        rec->endNs = now;
        obs->complete(std::move(*rec));
    };
}

void
RequestTrack::finish()
{
    if (finished_ || deferred_)
        return;
    finished_ = true;
    obs_->retire(rec_.id);
    if (!obs_->active())
        return;
    rec_.endNs = obs_->nowNs();
    obs_->complete(std::move(rec_));
}

} // namespace service
} // namespace bpsim
