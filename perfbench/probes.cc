/**
 * @file
 * Per-layer probes of public functions on one workload's what-if
 * shape, run after the workload's timing is over. Every workload runs
 * them, so a layer a workload does not stress still reads its cost
 * there (the "no change on" column of the prediction table), in this
 * process's obs state. A value the workload's traced run already
 * measured under real load is kept.
 */

#include <sstream>

#include "bench.hh"
#include "campaign/batch_kernel.hh"
#include "campaign/checkpoint.hh"
#include "obs/trace.hh"
#include "outage/trace.hh"
#include "service/cache.hh"
#include "service/http.hh"

namespace perfbench
{

namespace
{

using namespace bpsim;

/** Trials per probe: enough to average trace shapes, cheap on 32 servers. */
constexpr std::uint64_t kProbeLanes = 64;

} // namespace

void
probeLayers(const std::string &body, std::uint64_t seed, RunResult &r)
{
    service::WhatIfRequest req = parseWhatIf(body);
    req.opts.seed = seed;
    req.opts.maxTrials = kProbeLanes;
    const AnnualCampaignSpec &spec = req.spec;
    const auto set = [&r](const char *name, double v) {
        r.metrics.emplace(name, v);
    };

    // Trace generation, runYear and the kernel on the same traces.
    const auto gen = OutageTraceGenerator::figure1();
    std::vector<std::vector<OutageEvent>> traces;
    std::uint64_t events = 0;
    std::int64_t t0 = nowNs();
    for (std::uint64_t t = 0; t < kProbeLanes; ++t) {
        Rng rng = Rng::stream(seed, t);
        traces.push_back(gen.generate(rng, kYear));
        events += traces.back().size();
    }
    const double lanes = static_cast<double>(kProbeLanes);
    const double gen_ns = static_cast<double>(nowNs() - t0) / lanes;
    set("outage.generate_ns", gen_ns);
    set("outage.events_per_trace", static_cast<double>(events) / lanes);

    const AnnualSimulator sim;
    std::vector<AnnualResult> results;
    t0 = nowNs();
    for (const auto &trace : traces)
        results.push_back(sim.runYear(spec.profile, spec.nServers,
                                      spec.technique, spec.config, trace));
    set("core.run_year_us", static_cast<double>(nowNs() - t0) * 1e-3 / lanes);

    const BatchAnnualKernel kernel(spec.profile, spec.nServers,
                                   spec.technique, spec.config);
    std::vector<AnnualResult> batch(kProbeLanes);
    t0 = nowNs();
    kernel.runBatch(seed, 0, kProbeLanes, batch.data());
    set("campaign.kernel.lane_ns",
        static_cast<double>(nowNs() - t0) / lanes - gen_ns);
    std::uint64_t fast = 0;
    for (const auto &trace : traces)
        fast += kernel.fastPathEligible() && !obs::enabled() &&
                kernel.traceEligible(trace);
    set("campaign.kernel.fast_lane_frac", static_cast<double>(fast) / lanes);

    // The in-order fold: five MetricStats::add calls and the loss-free
    // count per trial.
    AnnualCampaignSummary folded;
    set("campaign.fold_ns", 1e3 / lanes * usPerCall([&] {
                                for (const AnnualResult &x : results) {
                                    folded.downtimeMin.add(x.downtimeMin);
                                    folded.lossesPerYear.add(
                                        static_cast<double>(x.losses));
                                    folded.meanPerf.add(x.meanPerf);
                                    folded.batteryKwh.add(x.batteryKwh);
                                    folded.worstGapMin.add(x.worstGapMin);
                                    folded.lossFreeTrials += x.losses == 0;
                                    ++folded.trials;
                                }
                            }));

    // Serialization: the summary document and a resumable checkpoint.
    const ResumableOutcome ro = runResumableCampaign(spec, req.opts);
    std::string summary;
    set("campaign.json_us", usPerCall([&] {
            std::ostringstream os;
            CampaignJsonOptions o;
            o.includeTiming = false;
            writeCampaignJson(os, ro.summary, o);
            summary = os.str();
        }));
    set("campaign.json_bytes", static_cast<double>(summary.size()));
    std::string text;
    set("campaign.checkpoint.write_us", usPerCall([&] {
            std::ostringstream os;
            writeCheckpointJson(os, ro.checkpoint);
            text = os.str();
        }));
    bool read_ok = true;
    set("campaign.checkpoint.read_us", usPerCall([&] {
            read_ok = read_ok && readCheckpointJson(text).has_value();
        }));
    set("campaign.checkpoint.bytes", static_cast<double>(text.size()));
    r.check(read_ok, "checkpoint failed to read back");

    // The serving functions a cache hit passes through.
    const std::string raw =
        buildRequest("POST", "/v1/whatif", body, "pb-probe");
    service::HttpRequest hreq;
    set("service.http.parse_us",
        usPerCall([&] { service::parseHttpRequest(raw, hreq); }));
    service::HttpResponse resp;
    resp.body = summary;
    resp.headers = {{"X-Bpsim-Key", "0123456789abcdef"},
                    {"X-Bpsim-Cache", "hit"},
                    {"X-Bpsim-Cache-Tier", "memory"},
                    {"X-Bpsim-Request-Id", "pb-probe"},
                    {"Cache-Control", "no-store"}};
    set("service.http.render_us",
        usPerCall([&] { service::renderHttpResponse(resp); }));
    set("service.whatif.parse_us", usPerCall([&] {
            const auto j = parseJson(body);
            const auto q = service::parseWhatIfRequest(*j);
            service::canonicalCacheKey(*q);
        }));
    service::ResultCache cache;
    const std::string key = service::canonicalCacheKey(req);
    cache.put(key, summary);
    set("service.cache.get_us", usPerCall([&] { cache.get(key); }));
}

} // namespace perfbench
