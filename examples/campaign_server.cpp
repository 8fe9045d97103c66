/**
 * @file
 * The resident what-if server: campaign_sweep turned into a
 * long-running service. Start it, then ask availability questions
 * over HTTP — repeated questions are answered from the
 * content-addressed result cache without re-simulating, and the
 * alert rule book watches every run's live signals.
 *
 *     ./build/examples/campaign_server --port 8080 &
 *     curl -XPOST localhost:8080/v1/whatif \
 *         -d '{"config":"LargeEUPS","trials":200,"seed":2014}'
 *     curl localhost:8080/v1/alerts
 *     curl localhost:8080/metrics
 *     curl -XPOST localhost:8080/v1/shutdown
 *
 * See docs/SERVICE.md for the endpoint and schema contract.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "service/service.hh"
#include "sim/logging.hh"

using namespace bpsim;

namespace
{

/** Set by SIGINT/SIGTERM; polled by the wait loop below. */
volatile std::sig_atomic_t g_signalled = 0;

void
onSignal(int)
{
    g_signalled = 1;
}

int
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: campaign_server [--port N] [--bind ADDR]\n"
        "                       [--port-file FILE] [--cache-entries N]\n"
        "                       [--cache-dir DIR] [--ckpt-max-bytes N]\n"
        "                       [--max-trials N] [--sample-seconds S]\n"
        "                       [--access-log FILE] [--slow-ms N]\n"
        "                       [--request-trace FILE]\n"
        "                       [--request-obs on|off]\n"
        "                       [--history on|off]\n"
        "                       [--history-cadence S]\n"
        "                       [--history-retention S]\n"
        "                       [--no-alerts] [--help]\n"
        "\n"
        "Resident what-if query server (see docs/SERVICE.md):\n"
        "  POST /v1/whatif    scenario JSON -> campaign summary JSON\n"
        "  GET  /v1/alerts    alert-rule states\n"
        "  GET  /metrics      OpenMetrics exposition\n"
        "  GET  /healthz      liveness probe\n"
        "  GET  /v1/status    uptime, in-flight requests, cache sizes\n"
        "  GET  /v1/series    tiered metrics history\n"
        "  GET  /v1/alerts/history\n"
        "                     retained alert transitions\n"
        "  GET  /dashboard    self-contained live dashboard\n"
        "  POST /v1/shutdown  graceful stop\n"
        "\n"
        "  --port N           listen port (default 0 = ephemeral)\n"
        "  --bind ADDR        bind address (default 127.0.0.1)\n"
        "  --port-file FILE   write the bound port to FILE once "
        "listening\n"
        "  --cache-entries N  result-cache bound (default 256)\n"
        "  --cache-dir DIR    spill results/checkpoints to DIR and\n"
        "                     reload them after a restart (default "
        "off)\n"
        "  --ckpt-max-bytes N do not store checkpoints larger than N\n"
        "                     serialized bytes (default 1048576)\n"
        "  --max-trials N     per-query trial budget cap (default "
        "100000)\n"
        "  --sample-seconds S alert-signal sample cadence (default "
        "3600)\n"
        "  --access-log FILE  append one JSON line per request to "
        "FILE\n"
        "  --slow-ms N        requests taking >= N ms also log their\n"
        "                     full phase spans (default 1000; 0 marks\n"
        "                     every request slow)\n"
        "  --request-trace FILE\n"
        "                     write recent request timelines as a\n"
        "                     Chrome trace on shutdown\n"
        "  --request-obs on|off\n"
        "                     request span timing, latency histograms\n"
        "                     and the access log (default on)\n"
        "  --history on|off   background metrics sampler, /v1/series\n"
        "                     and /v1/alerts/history (default on)\n"
        "  --history-cadence S\n"
        "                     sampler tick period in seconds, > 0\n"
        "                     (default 1)\n"
        "  --history-retention S\n"
        "                     raw-tier history span in seconds, > 0;\n"
        "                     rollup tiers keep 10x/60x this\n"
        "                     (default 600)\n"
        "  --no-alerts        disable the alert-rule engine\n");
    return to == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    service::ServiceOptions opts;
    std::string port_file;
    std::string request_trace;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--help" || arg == "-h") {
            return usage(stdout);
        } else if (arg == "--port" && val) {
            opts.http.port =
                static_cast<std::uint16_t>(std::atoi(val));
            ++i;
        } else if (arg == "--bind" && val) {
            opts.http.bindAddress = val;
            ++i;
        } else if (arg == "--port-file" && val) {
            port_file = val;
            ++i;
        } else if (arg == "--cache-entries" && val) {
            opts.cacheEntries =
                static_cast<std::size_t>(std::strtoull(val, nullptr, 10));
            ++i;
        } else if (arg == "--cache-dir" && val) {
            opts.cacheDir = val;
            ++i;
        } else if (arg == "--ckpt-max-bytes" && val) {
            opts.checkpointMaxBytes =
                static_cast<std::size_t>(std::strtoull(val, nullptr, 10));
            ++i;
        } else if (arg == "--max-trials" && val) {
            opts.limits.maxTrials = std::strtoull(val, nullptr, 10);
            ++i;
        } else if (arg == "--sample-seconds" && val) {
            const double v = std::atof(val);
            if (v > 0.0)
                opts.alertSampleCadence = fromSeconds(v);
            ++i;
        } else if (arg == "--access-log" && val) {
            opts.reqobs.accessLogPath = val;
            ++i;
        } else if (arg == "--slow-ms" && val) {
            char *end = nullptr;
            const unsigned long long v = std::strtoull(val, &end, 10);
            if (*val == '\0' || *val == '-' || end == val ||
                *end != '\0') {
                std::fprintf(stderr,
                             "campaign_server: --slow-ms needs a "
                             "non-negative integer, got \"%s\"\n",
                             val);
                return usage(stderr);
            }
            opts.reqobs.slowMs = v;
            ++i;
        } else if (arg == "--request-trace" && val) {
            request_trace = val;
            ++i;
        } else if (arg == "--request-obs" && val) {
            const std::string v = val;
            if (v == "on") {
                opts.reqobs.enabled = true;
            } else if (v == "off") {
                opts.reqobs.enabled = false;
            } else {
                std::fprintf(stderr, "campaign_server: --request-obs "
                                     "takes \"on\" or \"off\", got "
                                     "\"%s\"\n",
                             v.c_str());
                return usage(stderr);
            }
            ++i;
        } else if (arg == "--history" && val) {
            const std::string v = val;
            if (v == "on") {
                opts.history.enabled = true;
            } else if (v == "off") {
                opts.history.enabled = false;
            } else {
                std::fprintf(stderr, "campaign_server: --history "
                                     "takes \"on\" or \"off\", got "
                                     "\"%s\"\n",
                             v.c_str());
                return usage(stderr);
            }
            ++i;
        } else if (arg == "--history-cadence" && val) {
            char *end = nullptr;
            const double v = std::strtod(val, &end);
            if (*val == '\0' || end == val || *end != '\0' ||
                !(v > 0.0)) {
                std::fprintf(stderr,
                             "campaign_server: --history-cadence "
                             "needs a positive number of seconds, "
                             "got \"%s\"\n",
                             val);
                return usage(stderr);
            }
            opts.history.cadenceNs =
                static_cast<std::uint64_t>(v * 1e9);
            ++i;
        } else if (arg == "--history-retention" && val) {
            char *end = nullptr;
            const double v = std::strtod(val, &end);
            if (*val == '\0' || end == val || *end != '\0' ||
                !(v > 0.0)) {
                std::fprintf(stderr,
                             "campaign_server: --history-retention "
                             "needs a positive number of seconds, "
                             "got \"%s\"\n",
                             val);
                return usage(stderr);
            }
            opts.history.retentionNs =
                static_cast<std::uint64_t>(v * 1e9);
            ++i;
        } else if (arg == "--no-alerts") {
            opts.evaluateAlerts = false;
        } else {
            std::fprintf(stderr, "campaign_server: unknown argument "
                                 "\"%s\"\n",
                         arg.c_str());
            return usage(stderr);
        }
    }
    // Fail fast on an unwritable access-log path: a long-lived server
    // silently dropping its audit trail is worse than not starting.
    if (!opts.reqobs.accessLogPath.empty()) {
        std::ofstream probe(opts.reqobs.accessLogPath,
                            std::ios::out | std::ios::app);
        if (!probe.good()) {
            std::fprintf(stderr,
                         "campaign_server: cannot open access log "
                         "\"%s\" for append\n",
                         opts.reqobs.accessLogPath.c_str());
            return 1;
        }
    }

    service::CampaignService server(opts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "campaign_server: %s\n", err.c_str());
        return 1;
    }
    std::printf("campaign_server listening on %s:%u (build %s, %d "
                "worker threads)\n",
                opts.http.bindAddress.c_str(), server.port(), buildId(),
                WorkStealingPool::hardwareThreads());
    std::fflush(stdout);
    if (!port_file.empty()) {
        std::ofstream os(port_file);
        os << server.port() << '\n';
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // Wait for either a POST /v1/shutdown (running() flips) or a
    // signal; both end with a drain of in-flight connections.
    while (server.running() && g_signalled == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();
    if (!request_trace.empty()) {
        std::ofstream os(request_trace, std::ios::out | std::ios::trunc);
        if (os.good())
            server.requestObserver().writeTrace(os);
        else
            std::fprintf(stderr,
                         "campaign_server: cannot write request trace "
                         "\"%s\"\n",
                         request_trace.c_str());
    }
    std::printf("campaign_server: stopped\n");
    return 0;
}
