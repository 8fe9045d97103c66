/**
 * @file
 * Campaign sweep: size every Table 3 backup configuration against a
 * standing defense by running year-scale Monte Carlo campaigns on the
 * parallel campaign engine — with a confidence-interval early stop,
 * live progress, and machine-readable JSON/CSV exports.
 *
 * Demonstrates the full campaign surface:
 *   - runAnnualCampaign() fanning trials across every core, with
 *     aggregates that are bit-identical to a serial run;
 *   - the CI early-stop rule (stop once E[downtime] is pinned down to
 *     +-10% or +-1 min/yr, whichever is looser);
 *   - progress callbacks, streamed as trials complete in order;
 *   - writeCampaignJson() / writeCampaignCsv() exports per scenario;
 *   - per-scenario observability, each campaign recording into its
 *     own obs::Context (so one scenario's metrics never bleed into the
 *     next) and, with --sample, signal time series rendered as
 *     Perfetto counter tracks.
 *
 * Build and run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/campaign_sweep
 */

#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/json.hh"
#include "obs/context.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "sim/logging.hh"

using namespace bpsim;

namespace
{

/** The defense each configuration is paired with in this sweep. */
TechniqueSpec
standingDefense(const BackupConfigSpec &config)
{
    if (!config.hasUps)
        return {}; // nothing to ride an outage on
    if (config.hasDg)
        return {TechniqueKind::ThrottleSleep, 5, 0, fromMinutes(4.0), true};
    // UPS-only: serve throttled for half the rated runtime, then sleep.
    return {TechniqueKind::ThrottleSleep, 5, 0,
            fromSeconds(std::max(180.0, config.upsRuntimeSec * 0.5)), true};
}

/** LTTB budget per (trial, signal) channel kept in memory. */
constexpr std::size_t kSamplePointsPerChannel = 512;

/**
 * Trials per scenario that sample signals (the Context's sample
 * window). The sweep runs hundreds of trials per scenario, and a year
 * at hourly cadence is ~8760 samples per signal. Exporting a counter
 * lane for every (trial, signal) pair would produce a multi-gigabyte
 * trace no viewer can load, and a handful of representative years is
 * what a human actually inspects.
 */
constexpr std::uint64_t kSampledTrialsPerConfig = 4;

/**
 * Write one scenario's observability delta — the counters and
 * histogram buckets its campaign's Context folded, so scenario N's
 * file holds scenario N's trials and nothing else.
 */
void
writeScenarioMetrics(const std::string &path, const std::string &config,
                     const std::map<std::string, std::uint64_t> &counters,
                     const std::map<std::string, obs::HistogramSnapshot>
                         &histograms)
{
    std::ofstream os(path);
    JsonWriter w(os);
    w.beginObject();
    w.field("build", buildId());
    w.field("seed", "2014");
    w.field("config", config);
    w.key("counters").beginObject();
    for (const auto &[name, v] : counters)
        w.field(name, v);
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[name, h] : histograms) {
        w.key(name).beginObject();
        w.field("count", h.count());
        w.field("sum", h.sum());
        w.field("p50", h.quantile(0.50));
        w.field("p99", h.quantile(0.99));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    os << '\n';
}

/**
 * Shift this scenario's sampled trial ids by @p trial_base (so the
 * combined trace keeps one lane set per simulated year across
 * scenarios) and append a per-channel LTTB-downsampled copy to
 * @p out. The downsample bounds trace size.
 */
void
collectSamples(const obs::TimeSeriesStore &store,
               std::uint64_t trial_base,
               std::vector<obs::SignalSample> &out)
{
    for (const auto &ch : store.channels()) {
        std::vector<obs::SeriesPoint> pts;
        pts.reserve(ch.end - ch.begin);
        for (std::size_t i = ch.begin; i < ch.end; ++i)
            pts.push_back({store.times()[i], store.values()[i]});
        for (const auto &p : obs::lttb(pts, kSamplePointsPerChannel))
            out.push_back({ch.trial + trial_base, p.t, ch.signal,
                           p.value});
    }
}

int
usage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: campaign_sweep [--trace FILE.json] "
                 "[--metrics FILE.json] [--sample SECONDS] "
                 "[--report FILE.html] [--batch N] [--deterministic] "
                 "[--help]\n"
                 "\n"
                 "Runs every Table 3 backup configuration against the "
                 "standing defense and\n"
                 "exports campaign_<config>.json/.csv per scenario.\n"
                 "  --batch N        run trials through the batched SoA "
                 "kernel, N lanes per\n"
                 "                   batch (N >= 1); results are "
                 "bit-identical to the default\n"
                 "                   scalar path, only faster\n"
                 "  --deterministic  omit wall-clock fields from the "
                 "JSON exports, so the\n"
                 "                   files are a pure function of "
                 "(config, seed, buildId) and\n"
                 "                   byte-identical to the what-if "
                 "server's responses\n");
    return to == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);

    std::string trace_path, metrics_path, report_path;
    double sample_seconds = 0.0;
    bool deterministic = false;
    std::uint64_t batch = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--help" || arg == "-h") {
            return usage(stdout);
        } else if (arg == "--trace" && val) {
            trace_path = val;
            ++i;
        } else if (arg == "--metrics" && val) {
            metrics_path = val;
            ++i;
        } else if (arg == "--sample" && val) {
            sample_seconds = std::atof(val);
            ++i;
        } else if (arg == "--report" && val) {
            report_path = val;
            ++i;
        } else if (arg == "--batch" && val) {
            char *end = nullptr;
            // strtoull accepts (and wraps) negative input; reject it.
            const unsigned long long n =
                val[0] == '-' ? 0 : std::strtoull(val, &end, 10);
            if (end == val || end == nullptr || *end != '\0' || n == 0) {
                std::fprintf(stderr,
                             "campaign_sweep: --batch needs a positive "
                             "integer, got \"%s\"\n",
                             val);
                return usage(stderr);
            }
            batch = n;
            ++i;
        } else if (arg == "--deterministic") {
            deterministic = true;
        } else {
            std::fprintf(stderr,
                         "campaign_sweep: unknown argument \"%s\"\n",
                         arg.c_str());
            return usage(stderr);
        }
    }
    // The report's signal lanes come from the sampler; default it to
    // hourly cadence when a report was asked for without --sample.
    if (!report_path.empty() && sample_seconds <= 0.0)
        sample_seconds = 3600.0;
    // Record trials only when an export was requested; an unrecorded
    // campaign pays nothing for the instrumentation.
    const bool record = !trace_path.empty() || !metrics_path.empty() ||
                        !report_path.empty() || sample_seconds > 0.0;
    // The whole-sweep --metrics snapshot: every scenario's campaign
    // publishes into it.
    obs::Registry registry;
    std::vector<obs::TraceEvent> all_events;
    std::vector<obs::SignalSample> all_samples;
    std::uint64_t trial_base = 0;
    obs::CampaignReport report;
    report.provenance = {{"build", buildId()},
                         {"seed", "2014"},
                         {"defense", "ThrottleSleep"},
                         {"servers", "8 x specjbb"}};

    std::printf("Campaign sweep: Table 3 configurations x standing "
                "defense, up to 400\n"
                "simulated years each (early stop: E[downtime] CI "
                "half-width <= max(10%%, 1 min))\n"
                "on %d thread(s).\n\n",
                ThreadPool::hardwareThreads());

    std::printf("%-20s %7s %16s %10s %18s %8s\n", "configuration",
                "years", "E[down] min/yr", "P99 down", "p(loss-free) [CI]",
                "yrs/sec");

    for (const auto &config : table3Configs()) {
        AnnualCampaignSpec spec;
        spec.profile = specJbbProfile();
        spec.nServers = 8;
        spec.technique = standingDefense(config);
        spec.config = config;

        AnnualCampaignOptions opts;
        opts.maxTrials = 400;
        opts.seed = 2014;
        opts.minTrials = 64;
        opts.ciRelTol = 0.10;   // +-10% of the mean...
        opts.ciAbsTolMin = 1.0; // ...or +-1 min/yr, whichever is looser
        opts.batch = batch;
        opts.progressEvery = 100;
        opts.progress = [&](const CampaignProgress &p) {
            std::fprintf(stderr, "  [%s] %llu/%llu years%s\r",
                         config.name.c_str(),
                         static_cast<unsigned long long>(p.consumed),
                         static_cast<unsigned long long>(p.total),
                         p.stopped ? " (early stop)" : "");
        };

        obs::Context evidence;
        evidence.sampleCadence =
            sample_seconds > 0.0 ? fromSeconds(sample_seconds) : 0;
        evidence.sampleTrials = kSampledTrialsPerConfig;
        evidence.keepEvents = !trace_path.empty() || !report_path.empty();
        evidence.registry = &registry;
        if (record)
            opts.obs = &evidence;

        const auto s = runAnnualCampaign(spec, opts);
        std::fprintf(stderr, "%*s\r", 60, ""); // clear the progress line
        std::printf("%-20s %6llu%s %16.1f %10.1f %8.0f%% [%2.0f,%3.0f] "
                    "%8.0f\n",
                    config.name.c_str(),
                    static_cast<unsigned long long>(s.trials),
                    s.stoppedEarly ? "*" : " ",
                    s.downtimeMin.mean(), s.downtimeMin.p99(),
                    s.lossFree.fraction * 100.0, s.lossFree.lo * 100.0,
                    s.lossFree.hi * 100.0, s.trialsPerSec);

        // Per-scenario machine-readable exports.
        const std::string stem = "campaign_" + config.name;
        CampaignJsonOptions jopts;
        jopts.includeTiming = !deterministic;
        std::ofstream js(stem + ".json");
        writeCampaignJson(js, s, jopts);
        std::ofstream csv(stem + ".csv");
        writeCampaignCsv(csv, s);

        if (record) {
            writeScenarioMetrics(stem + "_metrics.json", config.name,
                                 evidence.deltas().counters,
                                 evidence.deltas().histograms);

            std::vector<obs::TraceEvent> events = evidence.events();
            const auto store =
                obs::TimeSeriesStore::fromSamples(evidence.samples());

            // Forensics run on the raw events (trial id == simulated
            // year), before the combined-trace id shift below.
            if (!report_path.empty()) {
                obs::ReportScenario rs;
                rs.name = config.name;
                rs.trials = s.trials;
                rs.stoppedEarly = s.stoppedEarly;
                rs.meanDowntimeMin = s.downtimeMin.mean();
                rs.p99DowntimeMin = s.downtimeMin.p99();
                rs.lossFreeFraction = s.lossFree.fraction;
                rs.lossFreeLo = s.lossFree.lo;
                rs.lossFreeHi = s.lossFree.hi;
                rs.forensics = obs::buildIncidentReport(events);
                rs.health =
                    obs::checkHealth(events, &store, &rs.forensics);
                for (const auto &ch : store.channels()) {
                    obs::ReportLane lane;
                    lane.trial = ch.trial;
                    lane.signal = ch.signal;
                    std::vector<obs::SeriesPoint> pts;
                    pts.reserve(ch.end - ch.begin);
                    for (std::size_t i = ch.begin; i < ch.end; ++i)
                        pts.push_back(
                            {store.times()[i], store.values()[i]});
                    lane.points =
                        obs::lttb(pts, kSamplePointsPerChannel);
                    rs.lanes.push_back(std::move(lane));
                }
                report.scenarios.push_back(std::move(rs));
            }

            // Offset this scenario's trial ids past every earlier
            // scenario's range so the combined trace keeps one track
            // per simulated year.
            for (auto &ev : events)
                ev.trial += trial_base;
            all_events.insert(all_events.end(), events.begin(),
                              events.end());
            collectSamples(store, trial_base, all_samples);
            trial_base += opts.maxTrials;
        }
    }

    if (!trace_path.empty()) {
        obs::TraceExportOptions topts;
        topts.metadata = {{"build", buildId()}, {"seed", "2014"}};
        std::ofstream os(trace_path);
        const auto series =
            obs::TimeSeriesStore::fromSamples(std::move(all_samples));
        if (series.empty())
            writeChromeTrace(os, all_events, topts);
        else
            writeChromeTrace(os, all_events, series, topts);
        std::printf("\n[wrote %zu trace events and %zu counter samples "
                    "to %s — load it in chrome://tracing or "
                    "ui.perfetto.dev]\n",
                    all_events.size(), series.rows(), trace_path.c_str());
    }
    if (!metrics_path.empty()) {
        std::ofstream os(metrics_path);
        writeMetricsJson(os, registry,
                         {{"build", buildId()}, {"seed", "2014"}});
        std::printf("[wrote whole-sweep metrics snapshot to %s; "
                    "per-scenario deltas are in "
                    "campaign_<config>_metrics.json]\n",
                    metrics_path.c_str());
    }
    if (!report_path.empty()) {
        std::ofstream os(report_path);
        obs::writeHtmlReport(os, report);
        std::printf("[wrote self-contained HTML campaign report "
                    "(%zu scenarios) to %s — open it in any browser, "
                    "no assets needed]\n",
                    report.scenarios.size(), report_path.c_str());
    }

    std::printf("\n(*) stopped early by the CI rule. Per-scenario "
                "results exported to\n"
                "campaign_<config>.json / .csv; re-running with the "
                "same seed reproduces them\n"
                "bit-for-bit on any machine and any thread count.\n");
    return 0;
}
