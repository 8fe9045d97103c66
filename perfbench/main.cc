/**
 * @file
 * The benchmark program. One process runs one workload:
 *
 *     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * It prints a human-readable report (every metric with its unit and
 * sample count, the output checks, host provenance) and, as its last
 * line, one JSON object {"correct","attempted","failed","metrics"}.
 * With --trace 0 the metrics are the end-to-end set, measured with
 * tracing off; with --trace 1 they are the per-layer set, from a
 * separate traced run that also writes a Chrome trace.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "campaign/json.hh"
#include "sim/logging.hh"
#include "trace.hh"

namespace perfbench
{

bpsim::service::WhatIfRequest
parseWhatIf(const std::string &body)
{
    std::string err;
    const auto json = bpsim::parseJson(body, &err);
    std::optional<bpsim::service::WhatIfRequest> req;
    if (json)
        req = bpsim::service::parseWhatIfRequest(*json, &err);
    if (!req) {
        std::fprintf(stderr, "perfbench: bad what-if body: %s\n",
                     err.c_str());
        std::exit(2);
    }
    return *req;
}

void
writeRunTrace(const RunArgs &args, const std::vector<Span> &spans,
              RunResult &r)
{
    std::filesystem::create_directories(args.traceDir);
    const std::string path = args.traceDir + "/" + args.workload + "-" +
                             std::to_string(args.seed) + ".trace.json";
    r.check(writeChromeTrace(path, spans,
                             {{"workload", args.workload},
                              {"seed", std::to_string(args.seed)},
                              {"build", bpsim::buildId()}}),
            "cannot write " + path);
    r.note("trace written to " + path + " (" +
           std::to_string(std::min(spans.size(), kMaxTraceSpans)) + " of " +
           std::to_string(spans.size()) + " spans)");
}

double
peakRssMb(int pid)
{
    const std::string path = pid == 0 ? std::string("/proc/self/status")
                                      : "/proc/" + std::to_string(pid) +
                                            "/status";
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

} // namespace perfbench

namespace
{

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (--trace 0); mirrors BENCHMARK.json. */
const std::vector<MetricDef> kEndToEnd = {
    {"throughput", "1/s"}, {"p50_ms", "ms"},       {"p90_ms", "ms"}, 
    {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

/** Per-layer metrics (--trace 1); mirrors BENCHMARK.json. A layer a
 *  workload does not exercise reads 0. */
const std::vector<MetricDef> kPerLayer = {
    {"outage.generate_ns", "ns"},
    {"outage.events_per_trace", "count"},
    {"campaign.kernel.lane_ns", "ns"},
    {"campaign.kernel.fast_lane_frac", "fraction"},
    {"campaign.fold_ns", "ns"},
    {"campaign.fold_serial_frac", "fraction"},
    {"campaign.runner.speedup", "x"},
    {"core.run_year_us", "us"},
    {"campaign.json_us", "us"},
    {"campaign.json_bytes", "bytes"},
    {"campaign.checkpoint.write_us", "us"},
    {"campaign.checkpoint.read_us", "us"},
    {"campaign.checkpoint.bytes", "bytes"},
    {"service.http.parse_us", "us"},
    {"service.http.render_us", "us"},
    {"service.whatif.parse_us", "us"},
    {"service.cache.get_us", "us"},
    {"service.cache.hit_frac", "fraction"},
    {"service.handle_hit_us", "us"},
    {"service.transport_frac", "fraction"},
    {"service.phase.read_s", "s"},
    {"service.phase.parse_s", "s"},
    {"service.phase.wait_s", "s"},
    {"service.phase.cache_mem_s", "s"},
    {"service.phase.checkpoint_s", "s"},
    {"service.phase.campaign_s", "s"},
    {"service.phase.alerts_s", "s"},
    {"service.phase.serialize_s", "s"},
    {"service.phase.write_s", "s"},
    {"service.phase.unspanned_s", "s"},
    {"service.requests.hit", "count"},
    {"service.requests.miss", "count"},
    {"service.requests.coalesced", "count"},
    {"service.requests.failed", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.connect_us", "us"},
    {"loadgen.hit_p50_ms", "ms"},
    {"loadgen.hit_p99_ms", "ms"},
    {"loadgen.miss_p50_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
    {"trace.unattributed_frac", "fraction"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload campaign-batched|"
                 "campaign-scalar|service-hot|service-mixed\n"
                 "                 --seed N --seconds S --trace 0|1\n");
    return 2;
}

/** JSON number with every digit (%.17g); non-finite values become 0. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
binaryDir(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    const std::string self = n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                                   : std::string(argv0);
    return std::filesystem::path(self).parent_path().string();
}

} // namespace

int
main(int argc, char **argv)
{
    bpsim::setQuietLogging(true);
    RunArgs args;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload") {
            args.workload = v;
        } else if (k == "--seed") {
            args.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            args.seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            args.trace = std::strcmp(v, "1") == 0;
            have_trace = std::strcmp(v, "0") == 0 || args.trace;
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || !have_trace || !(args.seconds > 0.0))
        return usage();
    args.serverPath = binaryDir(argv[0]) + "/campaign_server";

    RunResult r;
    if (args.workload == "campaign-batched" ||
        args.workload == "campaign-scalar") {
        r = runCampaignWorkload(args, args.workload == "campaign-batched");
    } else if (args.workload == "service-hot" ||
               args.workload == "service-mixed") {
        r = runServiceWorkload(args, args.workload == "service-mixed");
    } else {
        return usage();
    }

    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("host: build %s, cpu \"%s\", %u cores\n", bpsim::buildId(),
                bpsim::hostCpuModel().c_str(), bpsim::hostCoreCount());
    for (const std::string &line : r.lines)
        std::printf("  %s\n", line.c_str());

    const auto &defs = args.trace ? kPerLayer : kEndToEnd;
    std::printf("  %-34s %16s  %s\n", args.trace ? "per-layer metric"
                                                 : "end-to-end metric",
                "value", "unit");
    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        const auto it = r.metrics.find(d.name);
        const double v = it == r.metrics.end() ? 0.0 : it->second;
        std::printf("  %-34s %16.6g  %s\n", d.name, v, d.unit);
        json += first ? "" : ", ";
        first = false;
        json += "\"" + std::string(d.name) + "\": {\"value\": " +
                jsonNumber(v) + ", \"unit\": \"" + d.unit + "\"}";
    }
    json += "}}";
    std::printf("  error_rate %s (%llu failed of %llu attempted)\n",
                fmt(r.attempted ? static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted)
                                : 0.0)
                    .c_str(),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    std::printf("%s\n", json.c_str());
    return 0;
}
