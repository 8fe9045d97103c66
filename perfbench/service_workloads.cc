/**
 * @file
 * The service workloads: the real campaign_server, spawned with
 * default flags, driven over loopback by this single-threaded process
 * (loadgen.hh), one fresh connection per request.
 *
 *  - service-hot: a small hot key set is warmed before timing, then a
 *    closed loop over nproc connection slots asks only for those keys.
 *    No campaign runs; transport and the hit handler are the cost.
 *  - service-mixed: an open loop. Hits arrive at a fixed rate on three
 *    slots; misses (each a new key of tens of trials, alternating
 *    Throttle and Migration) at a fixed low rate on one slot. Latency
 *    is timed from each request's due time.
 *
 * Every body must equal an in-process runWhatIf() of the same request,
 * computed untimed once per distinct key; hot keys must answer
 * X-Bpsim-Cache: hit. The traced run adds client spans per request,
 * the server's phase split (deltas of its /metrics request histograms
 * around the traced window) and in-process probes of the public
 * serving functions.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "bench.hh"
#include "campaign/batch_kernel.hh"
#include "campaign/checkpoint.hh"
#include "obs/trace.hh"
#include "outage/trace.hh"
#include "service/cache.hh"
#include "service/http.hh"
#include "service/service.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

using namespace bpsim;

constexpr int kHotKeys = 8;
constexpr int kHotTrials = 4;
constexpr int kMissTrials = 12;
constexpr double kHitRate = 200.0;
constexpr int kHitSlots = 3;
constexpr double kMissRate = 1.4;
constexpr int kMissSlots = 1;
/** Servers per timed run, each set up and timed for 1/kPasses. */
constexpr int kPasses = 5;

enum Class : int { kHit = 0, kMiss = 1 };

std::string
hotBody(int i, std::uint64_t seed)
{
    static const char *configs[] = {"LargeEUPS", "MaxPerf", "NoDG",
                                    "SmallPUPS"};
    return std::string(R"({"config":")") + configs[i % 4] +
           R"(","technique":{"kind":"throttle","pstate":5},"servers":8,)"
           R"("trials":)" +
           std::to_string(kHotTrials) + R"(,"seed":)" + std::to_string(seed) +
           "}";
}

/** Miss i: Throttle (kernel-eligible shape) or Migration (scalar). */
std::string
missBody(std::uint64_t i, std::uint64_t seed)
{
    const char *tech = i % 2 == 0 ? R"({"kind":"throttle","pstate":5})"
                                  : R"({"kind":"migration"})";
    return std::string(R"({"config":"LargeEUPS","technique":)") + tech +
           R"(,"servers":8,"trials":)" + std::to_string(kMissTrials) +
           R"(,"seed":)" + std::to_string(seed) + "}";
}

/** One distinct what-if and its expected reply body. */
struct Key
{
    std::string body;
    std::string expected;
};

Key
makeKey(std::string body)
{
    Key k;
    k.expected = service::runWhatIf(parseWhatIf(body));
    k.body = std::move(body);
    return k;
}

/** The spawned campaign_server; stopped and reaped on destruction. */
class ServerProcess
{
  public:
    ServerProcess() = default;
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;
    ~ServerProcess() { stop(); }

    /** Spawn @p path with default flags; read its port from stdout. */
    bool
    spawn(const std::string &path, std::string *err)
    {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0) {
            *err = "pipe failed";
            return false;
        }
        pid_ = ::fork();
        if (pid_ < 0) {
            *err = "fork failed";
            return false;
        }
        if (pid_ == 0) {
            // Die with the benchmark, whatever ends it.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(fds[1], STDOUT_FILENO);
            ::execl(path.c_str(), path.c_str(), static_cast<char *>(nullptr));
            ::_exit(127);
        }
        ::close(fds[1]);
        out_ = fds[0];
        // "campaign_server listening on 127.0.0.1:PORT (build ...)"
        std::string text;
        const std::int64_t deadline = nowNs() + 20000000000LL;
        while (text.find('\n') == std::string::npos && nowNs() < deadline) {
            pollfd p{out_, POLLIN, 0};
            if (::poll(&p, 1, 100) <= 0)
                continue;
            char buf[256];
            const ssize_t n = ::read(out_, buf, sizeof buf);
            if (n <= 0)
                break;
            text.append(buf, static_cast<std::size_t>(n));
        }
        const std::size_t at = text.find("127.0.0.1:");
        if (at == std::string::npos) {
            *err = "server did not report its port: " + text;
            return false;
        }
        port_ = static_cast<std::uint16_t>(std::atoi(text.c_str() + at + 10));
        return port_ != 0;
    }

    void
    stop()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            const std::int64_t deadline = nowNs() + 10000000000LL;
            int status = 0;
            while (::waitpid(pid_, &status, WNOHANG) == 0) {
                if (nowNs() > deadline) {
                    ::kill(pid_, SIGKILL);
                    ::waitpid(pid_, &status, 0);
                    break;
                }
                ::usleep(2000);
            }
            pid_ = -1;
        }
        if (out_ >= 0) {
            ::close(out_);
            out_ = -1;
        }
    }

    std::uint16_t port() const { return port_; }
    int pid() const { return pid_; }

  private:
    int pid_ = -1;
    int out_ = -1;
    std::uint16_t port_ = 0;
};

std::string
whatIfWire(const std::string &body, const std::string &id)
{
    return buildRequest("POST", "/v1/whatif", body, id);
}

/** What one timed window measured. */
struct Window
{
    std::vector<double> hitMs, missMs, allMs, lateMs, connectUs;
    /** Requests completed in each whole second of the window. */
    std::vector<double> perSecond;
    std::uint64_t completed = 0;
    std::uint64_t hit = 0, miss = 0, coalesced = 0, failed = 0;
    std::int64_t startNs = 0, endNs = 0;
    /** Window length, first due or send to last byte (summed when pooled). */
    std::int64_t elapsedNs = 0;
    std::int64_t busyNs = 0; // union of request spans (traced only)
};

/** Everything a window needs to issue and check requests. */
struct Client
{
    std::uint16_t port = 0;
    const std::vector<Key> *hot = nullptr;
    const std::vector<Key> *misses = nullptr;
    /** Hot key of the k-th hit (a seeded order). */
    std::vector<int> hotOrder;
    std::uint64_t nextToken = 1;
    std::uint64_t nextMiss = 0;
    std::vector<std::string> errors;
};

struct Pending
{
    int cls = kHit;
    const Key *key = nullptr;
    std::int64_t dueNs = 0;
};

/**
 * Run one window. Closed loop (@p mixed false): nproc slots, each
 * reissues on completion. Open loop: the fixed-rate schedule.
 */
Window
runWindow(Client &d, bool mixed, double seconds, bool traced)
{
    Window w;
    Loadgen lg(d.port);
    std::map<std::uint64_t, Pending> pending;
    const std::int64_t window_ns = static_cast<std::int64_t>(seconds * 1e9);
    w.startNs = nowNs();
    OpenLoopSchedule sched(w.startNs, window_ns,
                           {{kHitRate, kHitSlots}, {kMissRate, kMissSlots}});
    std::uint64_t hits_issued = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> request_iv;

    const Loadgen::Done done = [&](std::uint64_t token, HttpResult &&res) {
        const Pending p = pending.at(token);
        pending.erase(token);
        if (mixed)
            sched.done(p.cls, nowNs());
        // A hit may also be answered by the single-flight table when the
        // same hot key is already in flight; misses are unique keys.
        const bool cache_ok = p.cls == kHit ? res.cache == "hit" ||
                                                  res.cache == "coalesced"
                                            : res.cache == "miss";
        std::string why;
        if (res.status != 200)
            why = res.status == 0 ? res.error
                                  : "status " + std::to_string(res.status);
        else if (!cache_ok)
            why = "unexpected X-Bpsim-Cache: " + res.cache;
        else if (res.body != p.key->expected)
            why = "body differs from in-process runWhatIf";
        else if (res.requestId != "pb-" + std::to_string(token))
            why = "request id not echoed";
        ++w.completed;
        const std::size_t sec =
            static_cast<std::size_t>((res.endNs - w.startNs) / 1000000000);
        if (sec >= w.perSecond.size())
            w.perSecond.resize(sec + 1, 0.0);
        ++w.perSecond[sec];
        if (res.cache == "hit")
            ++w.hit;
        else if (res.cache == "miss")
            ++w.miss;
        else if (res.cache == "coalesced")
            ++w.coalesced;
        if (!why.empty()) {
            ++w.failed;
            if (d.errors.size() < 5)
                d.errors.push_back("request pb-" + std::to_string(token) +
                                   ": " + why);
        }
        const std::int64_t from = mixed ? p.dueNs : res.startNs;
        const double ms = static_cast<double>(res.endNs - from) * 1e-6;
        (p.cls == kHit ? w.hitMs : w.missMs).push_back(ms);
        w.allMs.push_back(ms);
        if (res.connectedNs > 0)
            w.connectUs.push_back(
                static_cast<double>(res.connectedNs - res.startNs) * 1e-3);
        w.endNs = std::max(w.endNs, res.endNs);
        if (traced) {
            const std::uint64_t top =
                recordSpan("client.request", 0, from, res.endNs, token);
            if (res.startNs > from)
                recordSpan("client.queue", top, from, res.startNs, token);
            if (res.connectedNs > 0)
                recordSpan("client.connect", top, res.startNs,
                           res.connectedNs, token);
            if (res.sentNs > 0)
                recordSpan("client.send", top, res.connectedNs, res.sentNs,
                           token);
            if (res.firstByteNs > 0) {
                recordSpan("client.server", top, res.sentNs, res.firstByteNs,
                           token);
                recordSpan("client.recv", top, res.firstByteNs, res.endNs,
                           token);
            }
            request_iv.emplace_back(from, res.endNs);
        }
    };

    const auto issue = [&](int cls, std::int64_t due) {
        const std::uint64_t token = d.nextToken++;
        const Key *key =
            cls == kHit
                ? &(*d.hot)[d.hotOrder[hits_issued++ % d.hotOrder.size()]]
                : &d.misses->at(d.nextMiss++);
        pending[token] = {cls, key, due};
        lg.start(token, whatIfWire(key->body, "pb-" + std::to_string(token)),
                 done);
    };

    if (!mixed) {
        const int slots = static_cast<int>(bpsim::hostCoreCount());
        const std::int64_t end = w.startNs + window_ns;
        while (nowNs() < end || lg.active() > 0) {
            while (static_cast<int>(lg.active()) < slots && nowNs() < end)
                issue(kHit, nowNs());
            lg.pump(nowNs() + 10000000, done);
        }
    } else {
        while (!sched.exhausted() || lg.active() > 0) {
            const std::int64_t now = nowNs();
            OpenLoopSchedule::Release rel;
            while (sched.next(now, rel)) {
                w.lateMs.push_back(static_cast<double>(rel.lateNs) * 1e-6);
                issue(rel.cls, rel.dueNs);
            }
            const std::int64_t due = sched.nextDue();
            const std::int64_t cap = now + 10000000;
            lg.pump(due < 0 ? cap : std::min(due, cap), done);
        }
    }
    w.elapsedNs = w.endNs - w.startNs;
    // Only whole seconds inside the window count as per-second rates.
    w.perSecond.resize(static_cast<std::size_t>(window_ns / 1000000000));
    if (traced)
        w.busyNs = coveredNs(request_iv, w.startNs, w.endNs);
    return w;
}

std::map<std::string, PhaseTotals>
scrapePhases(std::uint16_t port, RunResult &r)
{
    const HttpResult m =
        httpExchange(port, buildRequest("GET", "/metrics", "", "pb-scrape"));
    r.check(m.status == 200, "GET /metrics failed");
    return parseRequestPhases(m.body, "whatif");
}

/**
 * Spawn the server, wait for /healthz, warm the hot keys (and
 * @p warmMiss, the warm-up campaign, when given) and confirm the hot
 * keys now hit. Returns the seconds this took.
 */
double
setUp(ServerProcess &server, const std::string &path,
      const std::vector<Key> &hot, const Key *warmMiss, RunResult &r)
{
    const std::int64_t t0 = nowNs();
    std::string err;
    if (!server.spawn(path, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        std::exit(4);
    }
    const std::string health = buildRequest("GET", "/healthz", "", "pb-health");
    while (httpExchange(server.port(), health).status != 200) {
        if (nowNs() - t0 > 20000000000LL) {
            std::fprintf(stderr, "perfbench: /healthz never ready\n");
            std::exit(4);
        }
        ::usleep(2000);
    }
    std::vector<const Key *> warmups;
    for (const Key &k : hot)
        warmups.push_back(&k);
    if (warmMiss != nullptr)
        warmups.push_back(warmMiss);
    for (const Key *k : warmups) {
        const HttpResult res =
            httpExchange(server.port(), whatIfWire(k->body, "pb-warm"));
        r.check(res.status == 200 && res.cache == "miss" &&
                    res.body == k->expected,
                "warm-up of a key did not miss with the expected body");
    }
    for (const Key &k : hot) {
        const HttpResult res =
            httpExchange(server.port(), whatIfWire(k.body, "pb-warm"));
        r.check(res.status == 200 && res.cache == "hit" &&
                    res.body == k.expected,
                "hot key does not answer X-Bpsim-Cache: hit after warm-up");
    }
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Pool window @p b into @p a. */
void
merge(Window &a, const Window &b)
{
    for (auto [to, from] :
         {std::pair{&a.hitMs, &b.hitMs}, std::pair{&a.missMs, &b.missMs},
          std::pair{&a.allMs, &b.allMs}, std::pair{&a.lateMs, &b.lateMs},
          std::pair{&a.connectUs, &b.connectUs},
          std::pair{&a.perSecond, &b.perSecond}})
        to->insert(to->end(), from->begin(), from->end());
    a.completed += b.completed;
    a.hit += b.hit;
    a.miss += b.miss;
    a.coalesced += b.coalesced;
    a.failed += b.failed;
    a.elapsedNs += b.elapsedNs;
}

} // namespace

RunResult
runServiceWorkload(const RunArgs &args, bool mixed)
{
    RunResult r;
    SeedStream seeds(args.seed);

    // The timed run is kPasses windows, each on a freshly spawned and
    // warmed server: setup_s and peak_rss_mb are medians over the
    // servers, latencies are pooled. The traced run adds one more
    // server and one traced window of the full length.
    const double pass_s = args.seconds / kPasses;
    const auto plannedMisses = [](double s) {
        return OpenLoopSchedule(0, static_cast<std::int64_t>(s * 1e9),
                                {{kHitRate, kHitSlots}, {kMissRate, kMissSlots}})
            .planned(kMiss);
    };

    // Inputs, and their expected bodies computed untimed in-process
    // (this process has not armed obs yet; bodies do not depend on it).
    std::vector<Key> hot;
    for (int i = 0; i < kHotKeys; ++i)
        hot.push_back(makeKey(hotBody(i, seeds.nextSmall())));
    std::vector<Key> misses;
    std::vector<Key> warm;
    if (mixed) {
        const std::uint64_t n = kPasses * plannedMisses(pass_s) +
                                (args.trace ? plannedMisses(args.seconds) : 0);
        for (std::uint64_t i = 0; i < n; ++i)
            misses.push_back(makeKey(missBody(i, seeds.nextSmall())));
        for (int pass = 0; pass <= kPasses; ++pass)
            warm.push_back(makeKey(missBody(1, seeds.nextSmall())));
    }
    Client d;
    d.hot = &hot;
    d.misses = &misses;
    for (int i = 0; i < 4096; ++i)
        d.hotOrder.push_back(static_cast<int>(seeds.next() % kHotKeys));

    std::vector<double> setup_s, rss_mb;
    Window w;
    for (int pass = 0; pass < kPasses; ++pass) {
        ServerProcess server;
        setup_s.push_back(setUp(server, args.serverPath, hot,
                                mixed ? &warm[pass] : nullptr, r));
        d.port = server.port();
        merge(w, runWindow(d, mixed, pass_s, false));
        rss_mb.push_back(peakRssMb(server.pid()));
    }
    const double elapsed_s = static_cast<double>(w.elapsedNs) * 1e-9;
    const LatencySummary all = summarize(w.allMs, 0.90);
    const LatencySummary hits = summarize(w.hitMs, 0.99);
    const LatencySummary miss = summarize(w.missMs, 0.50);
    r.attempted = w.completed;
    r.failed = w.failed;
    // Closed loop: the median one-second rate, robust to a burst of
    // other load on the host. Open loop: completions over the window
    // (the offered rate, unless the server falls behind).
    r.metrics["throughput"] = mixed || w.perSecond.empty()
                                  ? static_cast<double>(w.completed) / elapsed_s
                                  : median(w.perSecond);
    r.metrics["p50_ms"] = mixed ? miss.p50 : hits.p50;
    r.metrics["p90_ms"] = all.tail;
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["peak_rss_mb"] = median(rss_mb);
    r.note(std::string(mixed ? "open loop: hits " + fmt(kHitRate) + "/s on " +
                                   std::to_string(kHitSlots) +
                                   " slots, misses " + fmt(kMissRate) +
                                   "/s on " + std::to_string(kMissSlots) +
                                   " slot (" + std::to_string(kMissTrials) +
                                   " trials each)"
                             : "closed loop: " +
                                   std::to_string(bpsim::hostCoreCount()) +
                                   " slots over " + std::to_string(kHotKeys) +
                                   " hot keys") +
           ", fresh connection per request, " + std::to_string(kPasses) +
           " servers x " + fmt(pass_s) + " s");
    r.note("rps " + fmt(r.metrics["throughput"]) +
           (mixed ? " req/s" : " req/s (median of " +
                                   std::to_string(w.perSecond.size()) +
                                   " one-second rates)") +
           "; mean " + fmt(static_cast<double>(w.completed) / elapsed_s) +
           " req/s over " + fmt(elapsed_s) + " s");
    r.note("hit_p50_ms " + formatTiming(hits.p50, "ms", hits.n) + ", hit_" +
           quantileLabel(hits.tailQ) + "_ms " +
           formatTiming(hits.tail, "ms", hits.n));
    r.note("all requests " + quantileLabel(all.tailQ) + " " +
           formatTiming(all.tail, "ms", all.n) +
           (mixed ? " (from due time)" : ""));
    if (mixed) {
        r.note("miss_p50_ms " + formatTiming(miss.p50, "ms", miss.n) +
               " (from due time)");
        r.note("generator lateness p99 " + fmt(summarize(w.lateMs, 0.99).tail) +
               " ms");
    }
    r.note("setup_s " + fmt(r.metrics["setup_s"]) + " s, peak_rss_mb " +
           fmt(r.metrics["peak_rss_mb"]) + " MB (medians over " +
           std::to_string(kPasses) + " servers)");
    for (const std::string &e : d.errors)
        r.note("error: " + e);

    if (args.trace) {
        // The traced window on one more server, bracketed by /metrics
        // scrapes of that server.
        ServerProcess server;
        setUp(server, args.serverPath, hot, mixed ? &warm[kPasses] : nullptr,
              r);
        d.port = server.port();
        const auto before = scrapePhases(d.port, r);
        d.errors.clear();
        const Window tw = runWindow(d, mixed, args.seconds, true);
        const auto after = scrapePhases(d.port, r);
        server.stop();
        r.attempted += tw.completed;
        r.failed += tw.failed;
        for (const std::string &e : d.errors)
            r.note("error (traced): " + e);
        const auto phases = phaseDeltas(before, after);
        for (const auto &[p, s] : phases)
            if (p != "total")
                r.metrics["service.phase." + p + "_s"] = s;
        std::string split = "server whatif phases (s, approx.): total " +
                            fmt(phases.at("total"));
        for (const auto &[p, s] : phases)
            if (p != "total" && s != 0.0)
                split += ", " + p + " " + fmt(s);
        r.note(split);

        const LatencySummary thits = summarize(tw.hitMs, 0.99);
        r.metrics["service.requests.hit"] = static_cast<double>(w.hit + tw.hit);
        r.metrics["service.requests.miss"] = static_cast<double>(w.miss + tw.miss);
        r.metrics["service.requests.coalesced"] =
            static_cast<double>(w.coalesced + tw.coalesced);
        r.metrics["service.requests.failed"] = static_cast<double>(r.failed);
        r.metrics["service.cache.hit_frac"] =
            static_cast<double>(tw.hit) /
            static_cast<double>(std::max<std::uint64_t>(1, tw.completed));
        r.metrics["loadgen.late_p99_ms"] = summarize(tw.lateMs, 0.99).tail;
        r.metrics["loadgen.connect_us"] = summarize(tw.connectUs, 0.5).p50;
        r.metrics["loadgen.hit_p50_ms"] = thits.p50;
        r.metrics["loadgen.hit_p99_ms"] = thits.tail;
        r.metrics["loadgen.miss_p50_ms"] = summarize(tw.missMs, 0.5).p50;
        r.metrics["trace.overhead_frac"] =
            summarize(tw.allMs, 0.5).p50 / all.p50 - 1.0;
        const double twall = static_cast<double>(tw.elapsedNs);
        r.metrics["trace.unattributed_frac"] =
            1.0 - static_cast<double>(tw.busyNs) / twall;

        const std::vector<Span> spans = collectSpans();
        std::string selfs = "client span self time (s):";
        for (const auto &[name, ns] : selfTimeByName(spans))
            selfs += " " + name + " " + fmt(static_cast<double>(ns) * 1e-9);
        r.note(selfs);
        r.note("traced window " + fmt(twall * 1e-9) +
               " s; no request in flight for " +
               fmt(r.metrics["trace.unattributed_frac"]) + " of it");
        writeRunTrace(args, spans, r);

        // In-process probes, after the server is gone so they do not
        // compete with it. A default-options CampaignService arms obs
        // process-wide; from here on this process is no longer fit to
        // time campaigns.
        service::CampaignService svc;
        const std::string raw = whatIfWire(hot[0].body, "pb-probe");
        service::HttpRequest hreq;
        r.check(service::parseHttpRequest(raw, hreq), "probe request parse");
        svc.handle(hreq); // the miss that fills the cache
        bool hit_ok = true;
        const double handle_us = usPerCall([&] {
            hit_ok = hit_ok && svc.handle(hreq).body == hot[0].expected;
        });
        r.check(hit_ok, "in-process handle() hit body differs");
        r.metrics["service.handle_hit_us"] = handle_us;
        r.metrics["service.transport_frac"] =
            1.0 - handle_us / (r.metrics["loadgen.hit_p50_ms"] * 1e3);

        // The layers' functions on the shape this workload computes (a
        // miss, or a hot key), with obs armed as in the server.
        const std::string &shape = mixed ? misses[0].body : hot[0].body;
        probeLayers(shape, parseWhatIf(shape).opts.seed, r);
    }

    r.check(r.failed == 0, std::to_string(r.failed) + " requests failed");
    r.check(r.attempted > 0, "no request completed in the window");
    return r;
}

} // namespace perfbench
