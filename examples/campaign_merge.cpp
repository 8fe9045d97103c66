/**
 * @file
 * Distributed campaign driver: run one shard of an annual campaign on
 * this machine and export its aggregate file, or merge shard files
 * produced anywhere into whole-campaign statistics.
 *
 *   # run shard i of n (any subset of machines, any order)
 *   campaign_merge run --shard 3/16 --trials 400 --seed 2014 \
 *       --checkpoint-every 1 --out shard3.json
 *
 *   # recombine (count/mean/CI bit-identical for any shard count;
 *   # quantiles rank-accurate via merged t-digests)
 *   campaign_merge merge --stop-rel 0.10 --stop-abs 1.0 shard*.json
 *
 * The shard scenario is the claims-headline campaign (DG-free
 * LargeEUPS datacenter behind a Throttle+Sleep defense); the point of
 * the example is the sharding surface, not the scenario. See
 * docs/CAMPAIGN.md "Sharding".
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/json.hh"
#include "campaign/shard.hh"
#include "core/selector.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"

using namespace bpsim;

namespace
{

int
usage(std::FILE *to = stderr)
{
    std::fprintf(
        to,
        "usage:\n"
        "  campaign_merge run --shard I/N [--trials T] [--seed S]\n"
        "                 [--checkpoint-every K] [--threads T]"
        " [--out FILE]\n"
        "                 [--trace FILE] [--metrics FILE]\n"
        "  campaign_merge merge [--stop-min T] [--stop-rel R]\n"
        "                 [--stop-abs A] FILE...\n");
    return to == stdout ? 0 : 2;
}

/** The standing claims-headline scenario every shard simulates. */
AnnualCampaignSpec
headlineSpec()
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 8;
    spec.technique = {TechniqueKind::ThrottleSleep, 5, 0,
                      fromMinutes(10.0), true};
    spec.config = largeEUpsConfig();
    return spec;
}

int
runShard(int argc, char **argv)
{
    std::uint64_t index = 0, count = 0, trials = 200, seed = 2011;
    ShardOptions opts;
    std::string out_path, trace_path, metrics_path;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--shard" && val) {
            if (std::sscanf(val, "%llu/%llu",
                            reinterpret_cast<unsigned long long *>(
                                &index),
                            reinterpret_cast<unsigned long long *>(
                                &count)) != 2)
                return usage();
            ++i;
        } else if (arg == "--trials" && val) {
            trials = std::strtoull(val, nullptr, 10);
            ++i;
        } else if (arg == "--seed" && val) {
            seed = std::strtoull(val, nullptr, 10);
            ++i;
        } else if (arg == "--checkpoint-every" && val) {
            opts.checkpointEvery = std::strtoull(val, nullptr, 10);
            ++i;
        } else if (arg == "--threads" && val) {
            opts.threads = std::atoi(val);
            ++i;
        } else if (arg == "--out" && val) {
            out_path = val;
            ++i;
        } else if (arg == "--trace" && val) {
            trace_path = val;
            ++i;
        } else if (arg == "--metrics" && val) {
            metrics_path = val;
            ++i;
        } else {
            return usage();
        }
    }
    if (count == 0 || index >= count || trials == 0)
        return usage();
    obs::Registry registry;
    obs::Context evidence;
    evidence.keepEvents = !trace_path.empty();
    evidence.registry = &registry;
    if (!trace_path.empty() || !metrics_path.empty())
        opts.obs = &evidence;

    const ShardSpec spec = shardOf(seed, trials, index, count);
    std::fprintf(stderr,
                 "shard %llu/%llu: trials [%llu, %llu) of %llu, "
                 "seed %llu\n",
                 static_cast<unsigned long long>(index),
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(spec.lo),
                 static_cast<unsigned long long>(spec.hi),
                 static_cast<unsigned long long>(trials),
                 static_cast<unsigned long long>(seed));
    const ShardResult result = runAnnualShard(headlineSpec(), spec, opts);
    std::fprintf(stderr,
                 "  %llu trials in %.2f s: E[down] %.1f min/yr, "
                 "loss-free %llu\n",
                 static_cast<unsigned long long>(result.trials),
                 result.wallSeconds, result.downtimeMin.mean(),
                 static_cast<unsigned long long>(result.lossFreeTrials));

    if (!trace_path.empty()) {
        // Shard traces already carry GLOBAL trial ids, so traces from
        // different shards interleave cleanly in one Perfetto view.
        obs::TraceExportOptions topts;
        topts.metadata = {{"build", buildId()},
                          {"seed", std::to_string(seed)},
                          {"shard", std::to_string(index) + "/" +
                                        std::to_string(count)}};
        std::ofstream os(trace_path);
        writeChromeTrace(os, evidence.events(), topts);
        std::fprintf(stderr, "[wrote trace to %s]\n", trace_path.c_str());
    }
    if (!metrics_path.empty()) {
        std::ofstream os(metrics_path);
        writeMetricsJson(os, registry,
                         {{"build", buildId()},
                          {"seed", std::to_string(seed)}});
        std::fprintf(stderr, "[wrote metrics to %s]\n",
                     metrics_path.c_str());
    }

    if (out_path.empty()) {
        writeShardJson(std::cout, result);
        return 0;
    }
    std::ofstream os(out_path);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    writeShardJson(os, result);
    std::fprintf(stderr, "[wrote %s]\n", out_path.c_str());
    return 0;
}

int
mergeFiles(int argc, char **argv)
{
    EarlyStopRule rule;
    std::vector<std::string> paths;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--stop-min" && val) {
            rule.minTrials = std::strtoull(val, nullptr, 10);
            ++i;
        } else if (arg == "--stop-rel" && val) {
            rule.ciRelTol = std::atof(val);
            ++i;
        } else if (arg == "--stop-abs" && val) {
            rule.ciAbsTolMin = std::atof(val);
            ++i;
        } else if (arg.rfind("--", 0) == 0) {
            return usage();
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty())
        return usage();

    std::vector<ShardResult> shards;
    for (const auto &path : paths) {
        std::string err;
        auto shard = readShardFile(path, &err);
        if (!shard) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 1;
        }
        shards.push_back(std::move(*shard));
    }

    std::string err;
    const auto merged =
        mergeShards(std::move(shards),
                    rule.enabled() ? &rule : nullptr, &err);
    if (!merged) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    writeMergedJson(std::cout, *merged);
    std::fprintf(
        stderr,
        "merged %llu shard(s), %llu trials: E[down] %.2f min/yr "
        "(P99 %.1f), loss-free %.1f%% [%.1f, %.1f]\n",
        static_cast<unsigned long long>(merged->shardCount),
        static_cast<unsigned long long>(merged->trials),
        merged->downtimeMin.mean(), merged->downtimeMin.p99(),
        merged->lossFree.fraction * 100.0, merged->lossFree.lo * 100.0,
        merged->lossFree.hi * 100.0);
    if (rule.enabled()) {
        if (merged->earlyStop.fired)
            std::fprintf(stderr,
                         "early stop: a coordinator would have "
                         "stopped after trial %llu (half-width %.3f)\n",
                         static_cast<unsigned long long>(
                             merged->earlyStop.stopTrial),
                         merged->earlyStop.halfWidth);
        else
            std::fprintf(stderr,
                         "early stop: rule never fired on the merged "
                         "prefix\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    if (mode == "--help" || mode == "-h")
        return usage(stdout);
    if (mode == "run")
        return runShard(argc - 2, argv + 2);
    if (mode == "merge")
        return mergeFiles(argc - 2, argv + 2);
    return usage();
}
