/**
 * @file
 * Request-level observability for the resident what-if service: a
 * monotonic request id per request (echoed as X-Bpsim-Request-Id,
 * client-supplied ids accepted), span timing of every lifecycle phase
 * (read, parse, cache tiers, checkpoint, campaign, alerts, serialize,
 * write), per-endpoint/per-phase/per-status latency histograms in the
 * service's obs::Registry, a structured JSON-lines access log with a
 * slow-request threshold, a bounded ring of completed requests
 * exportable as Chrome-trace spans (obs::writeSpanTrace), and the
 * in-flight table behind GET /v1/status.
 *
 * Determinism contract: the layer is strictly out-of-band. Response
 * bodies are never touched — a what-if reply is byte-identical with
 * the layer enabled, disabled, or compiled out (BPSIM_OBS=OFF), which
 * the service regression tests pin across the cache-hit, miss,
 * coalesced and resumed paths. All timing rides in headers, the
 * access log, /metrics and /v1/status.
 *
 * Clock injection: every timestamp comes from one injectable
 * monotonic nanosecond clock (RequestObsOptions::clock), so tests pin
 * the access-log and span-trace *bytes* with a stepping fake clock
 * without pinning wall times. The default clock is steady_clock
 * nanoseconds relative to observer construction.
 *
 * Metric naming: request histograms use label-encoded registry names
 * (`service.request.seconds|endpoint=whatif,phase=campaign,status=200`);
 * obs::writeOpenMetrics() renders the `|k=v,...` suffix as a proper
 * OpenMetrics label set, so /metrics exposes
 * `bpsim_service_request_seconds_bucket{endpoint="whatif",...,le="..."}`
 * in the PR-4 cumulative-bucket form.
 *
 * Cost contract: with the layer disabled (or BPSIM_OBS=OFF) a request
 * costs one id fetch_add, one in-flight table insert/erase and a
 * single clock read at admission (so /v1/status can still report
 * request ages) — no span timing, no histogram records, no log I/O.
 * bench/micro_service gates the enabled-path overhead against a
 * committed baseline.
 */

#ifndef BPSIM_SERVICE_REQOBS_HH
#define BPSIM_SERVICE_REQOBS_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/obs.hh"

namespace bpsim
{
namespace service
{

/** One lifecycle phase of a served request (the span vocabulary). */
enum class RequestPhase : std::uint8_t
{
    /** Socket accept + head/body read (timed by the HTTP layer). */
    Read,
    /** JSON parse + request validation. */
    Parse,
    /** Parked on a coalescing leader's flight. */
    Wait,
    /** Memory result-cache lookup. */
    CacheMem,
    /** Disk-tier lookup (DiskStore load + promotion). */
    CacheDisk,
    /** Checkpoint lookup/parse before, and persist after, the run. */
    Checkpoint,
    /** Campaign execution (executeWhatIf). */
    Campaign,
    /** Alert-rule evaluation over the run's drained signals. */
    Alerts,
    /** Response-body/cache serialization (and GET-endpoint render). */
    Serialize,
    /** Response write to the socket (timed by the HTTP layer). */
    Write,
};

/** Number of RequestPhase enumerators (Write is last). */
constexpr std::size_t kRequestPhaseCount =
    static_cast<std::size_t>(RequestPhase::Write) + 1;

/** Stable lowercase identifier of @p phase ("cache_mem", ...). */
const char *requestPhaseName(RequestPhase phase);

/** The served endpoint (the histogram/label vocabulary). */
enum class Endpoint : std::uint8_t
{
    WhatIf,
    Alerts,
    Metrics,
    Healthz,
    Status,
    Shutdown,
    /** GET /v1/series (metrics-history query). */
    Series,
    /** GET /v1/alerts/history (alert transition log). */
    AlertHistory,
    /** GET /dashboard (the self-contained live page). */
    Dashboard,
    /** Unrouted targets (404s). */
    Other,
};

/** Number of Endpoint enumerators (Other is last). */
constexpr std::size_t kEndpointCount =
    static_cast<std::size_t>(Endpoint::Other) + 1;

/** Stable lowercase identifier of @p ep ("whatif", "status", ...). */
const char *endpointName(Endpoint ep);

/** Map a request target to its endpoint (Other for 404 targets).
 *  The query string, if any, is ignored. */
Endpoint endpointOf(const std::string &target);

/**
 * The label-encoded registry name of one request-latency histogram:
 * `service.request.seconds|endpoint=<ep>,phase=<phase>,status=<status>`.
 * @p phase is a requestPhaseName() or the synthetic "total".
 */
std::string requestMetricName(Endpoint ep, const char *phase,
                              int status);

/** Request-observability configuration (ServiceOptions::reqobs). */
struct RequestObsOptions
{
    /** Master switch for span timing, histograms, log and trace ring
     *  (request ids and the in-flight table stay on regardless). */
    bool enabled = true;
    /** Append one JSON line per request here; empty = no file log. */
    std::string accessLogPath;
    /** Test hook: log lines additionally go to this stream. */
    std::ostream *accessLogStream = nullptr;
    /** Requests at or above this total latency additionally log their
     *  full phase spans ("slow":true); 0 marks every request slow. */
    std::uint64_t slowMs = 1000;
    /** Completed requests retained for the Chrome span export. */
    std::size_t traceCapacity = 1024;
    /** Injectable monotonic nanosecond clock (tests pass a stepping
     *  fake so log/trace bytes are pinned); null = steady_clock. */
    std::function<std::uint64_t()> clock;
};

/** One timed span within a request. */
struct RequestSpan
{
    RequestPhase phase = RequestPhase::Read;
    /** Clock values (ns) at span begin/end. */
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
};

/** Everything recorded about one completed request. */
struct RequestRecord
{
    /** Monotonic server-assigned id (1-based). */
    std::uint64_t id = 0;
    /** Validated client-supplied X-Bpsim-Request-Id ("" when none). */
    std::string clientId;
    Endpoint endpoint = Endpoint::Other;
    std::string method;
    int status = 0;
    /** "hit", "miss" or "coalesced" ("" for non-whatif requests). */
    std::string cache;
    /** "memory" or "disk" ("" when the result was computed). */
    std::string tier;
    /** The leader id a coalesced follower parked on (0 = led). */
    std::uint64_t coalescedInto = 0;
    /** First trial of an incremental resume (-1 = not resumed). */
    std::int64_t resumedFrom = -1;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    /** Milliseconds the history sampler was behind its cadence when
     *  this request was served (0 = on schedule; omitted from the
     *  log line when 0). */
    std::uint64_t historyLagMs = 0;
    /** Clock values (ns) bracketing the whole request. */
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Individual spans in begin order (slow log + trace export). */
    std::vector<RequestSpan> spans;
    /** Accumulated nanoseconds per phase (indexed by RequestPhase). */
    std::uint64_t phaseNs[kRequestPhaseCount] = {};
    /** Whether the phase was entered at all (a 0 ns span still
     *  logs; an untouched phase is omitted from the log line). */
    bool phaseSeen[kRequestPhaseCount] = {};

    /** Append a finished span and fold it into the phase totals. */
    void addSpan(RequestPhase p, std::uint64_t beginNs,
                 std::uint64_t endNs);
};

/** One in-flight request as reported by GET /v1/status. */
struct InflightRequest
{
    std::uint64_t id = 0;
    std::string clientId;
    Endpoint endpoint = Endpoint::Other;
    /** The most recently entered phase. */
    RequestPhase phase = RequestPhase::Read;
    /** Clock value (ns) when the request was admitted. */
    std::uint64_t startNs = 0;
};

class RequestTrack;

/**
 * The per-service observer: owns the id counter, the in-flight table,
 * the histograms, the access log and the completed-request ring.
 * Thread-safe; one instance per CampaignService.
 */
class RequestObserver
{
  public:
    /** True when the obs layer is compiled in (BPSIM_OBS=ON); with it
     *  compiled out the observer is inert beyond ids + in-flight. */
    static constexpr bool kCompiledIn = BPSIM_OBS_ENABLED != 0;

    /** @p registry receives the request histograms and the
     *  service.reqobs.* counters; null records none of them. */
    explicit RequestObserver(RequestObsOptions opts = {},
                             obs::Registry *registry = nullptr);

    /** Span timing / histograms / log / trace ring armed? */
    bool active() const { return kCompiledIn && opts_.enabled; }

    /** Current clock value (ns); 0-based at observer construction for
     *  the default clock. */
    std::uint64_t nowNs() const;

    /** Snapshot of the in-flight table, sorted by id. */
    std::vector<InflightRequest> inflight() const;

    /** @name Lifetime totals */
    ///@{
    std::uint64_t completedRequests() const;
    std::uint64_t slowRequests() const;
    std::uint64_t accessLogLines() const;
    ///@}

    /** True when --access-log opened (or a test stream is set). */
    bool logOpen() const;

    /**
     * Export the retained completed requests as Chrome-trace spans
     * (one track per request id, a "request" span with one child span
     * per phase) via obs::writeSpanTrace. Deterministic given a
     * deterministic clock.
     */
    void writeTrace(std::ostream &os) const;

    const RequestObsOptions &options() const { return opts_; }

  private:
    friend class RequestTrack;

    struct Inflight
    {
        std::uint64_t id = 0;
        std::string clientId;
        Endpoint endpoint = Endpoint::Other;
        std::atomic<std::uint8_t> phase{
            static_cast<std::uint8_t>(RequestPhase::Read)};
        std::uint64_t startNs = 0;
    };

    std::uint64_t nextId() { return nextId_.fetch_add(1) + 1; }
    std::shared_ptr<Inflight> admit(std::uint64_t id,
                                    std::string clientId, Endpoint ep,
                                    std::uint64_t startNs);
    void retire(std::uint64_t id);
    /** Record histograms, write the log line, retain the record. */
    void complete(RequestRecord &&rec);

    void writeLogLine(const RequestRecord &rec);

    RequestObsOptions opts_;
    obs::Registry *registry_;
    std::ofstream logFile_;
    std::atomic<std::uint64_t> nextId_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> slow_{0};
    std::atomic<std::uint64_t> logLines_{0};
    /** Guards inflightTable_ and ring_. */
    mutable std::mutex m_;
    std::vector<std::shared_ptr<Inflight>> inflightTable_;
    std::deque<RequestRecord> ring_;
    /** Guards log emission (one line at a time, whole lines only). */
    std::mutex log_m_;
};

/**
 * RAII per-request handle living on the handler's stack: admits the
 * request on construction, collects spans and annotations, and
 * completes the record on destruction — or, when the HTTP layer will
 * report write timing, via the closure returned by deferFinish().
 */
class RequestTrack
{
  public:
    /**
     * Admit a request. @p clientId is the raw X-Bpsim-Request-Id
     * header value (empty = none); it is validated (<= 64 chars of
     * [A-Za-z0-9._-]) and ignored when malformed. @p bytesIn counts
     * the raw request bytes; @p readNs is the HTTP layer's measured
     * read duration (0 when handled without a socket).
     */
    RequestTrack(RequestObserver *obs, Endpoint ep, std::string method,
                 const std::string &clientId, std::uint64_t bytesIn,
                 std::uint64_t readNs);
    ~RequestTrack();

    RequestTrack(const RequestTrack &) = delete;
    RequestTrack &operator=(const RequestTrack &) = delete;

    /** The echoed id: the validated client id, else the numeric id. */
    std::string publicId() const;
    std::uint64_t id() const { return rec_.id; }

    /** RAII phase span (ends when it leaves scope). */
    class Span
    {
      public:
        Span(RequestTrack *track, RequestPhase phase);
        Span(Span &&other) noexcept;
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        Span &operator=(Span &&) = delete;

      private:
        RequestTrack *track_;
        RequestPhase phase_;
        std::uint64_t beginNs_;
    };

    /** Enter @p phase: updates the in-flight table (always) and times
     *  the span (when the observer is active). */
    Span span(RequestPhase phase);

    /** @name Annotations (plain stores into the record) */
    ///@{
    void setStatus(int status) { rec_.status = status; }
    void setCache(const char *c) { rec_.cache = c; }
    void setTier(const char *t) { rec_.tier = t; }
    void setCoalescedInto(std::uint64_t leader)
    {
        rec_.coalescedInto = leader;
    }
    void setResumedFrom(std::uint64_t trial)
    {
        rec_.resumedFrom = static_cast<std::int64_t>(trial);
    }
    void setBytesOut(std::uint64_t n) { rec_.bytesOut = n; }
    void setHistoryLagMs(std::uint64_t ms) { rec_.historyLagMs = ms; }
    ///@}

    /** Clock value (ns) when the request was admitted (already read
     *  at admission — using it costs no extra clock call, which is
     *  what lets alert-history timestamps stay byte-deterministic). */
    std::uint64_t startNs() const { return rec_.startNs; }

    /**
     * Hand completion to the HTTP layer: returns a closure to invoke
     * once after the response bytes are written (with the write
     * duration and rendered byte count); the destructor then no-ops.
     * The closure appends the Write span and completes the record.
     */
    std::function<void(std::uint64_t writeNs, std::uint64_t bytesOut)>
    deferFinish();

  private:
    friend class Span;

    void finish();

    RequestObserver *obs_;
    std::shared_ptr<RequestObserver::Inflight> info_;
    RequestRecord rec_;
    bool deferred_ = false;
    bool finished_ = false;
};

} // namespace service
} // namespace bpsim

#endif // BPSIM_SERVICE_REQOBS_HH
