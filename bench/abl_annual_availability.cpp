/**
 * @file
 * Ablation: year-scale availability. Instead of single-outage
 * experiments, whole years of Figure 1 utility behaviour (including
 * battery recharge between events) are simulated against each backup
 * configuration with a standing defense policy — what a capacity
 * planner ultimately buys.
 *
 * Re-platformed on the campaign engine: each configuration's years
 * fan out across every core via runAnnualCampaign(), which also
 * yields streaming P95/P99 downtime and a Wilson interval on the
 * loss-free fraction. Aggregates are bit-identical to a serial run.
 * Machine-readable results land in BENCH_abl_annual_availability.json.
 */

#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/json.hh"
#include "power/battery.hh"
#include "sim/logging.hh"

using namespace bpsim;

namespace
{

std::uint64_t
trialBudget()
{
    // Default matches the historical 40-year sweep; override to run
    // deeper campaigns (the engine keeps results seed-stable).
    if (const char *env = std::getenv("BPSIM_CAMPAIGN_TRIALS"))
        return std::max(1L, std::atol(env));
    return 40;
}

/** The standing defense the sweep pairs with each configuration. */
TechniqueSpec
defenseFor(const BackupConfigSpec &config)
{
    // A standing policy: throttle, then sleep if the outage drags.
    // With a DG the serve window just has to cover its ~2.5 min
    // transition (the technique reacts to the DG takeover); without
    // one it is sized to the battery, accounting for the Peukert
    // stretch at the half-power throttle.
    TechniqueSpec defense;
    if (config.hasUps) {
        Time serve = fromMinutes(4.0);
        if (!config.hasDg) {
            const double load_frac =
                (8.0 * 119.0) / (8.0 * 250.0 * config.upsPowerFrac);
            const double stretched =
                config.upsRuntimeSec *
                std::pow(std::min(1.0, load_frac),
                         -figure3PeukertExponent());
            serve = fromSeconds(
                std::min(std::max(180.0, config.upsRuntimeSec * 0.5),
                         0.8 * stretched));
        }
        defense = {TechniqueKind::ThrottleSleep, 5, 0, serve, true};
    }
    return defense;
}

} // namespace

int
main()
{
    setQuietLogging(true);
    const std::uint64_t trials = trialBudget();
    std::printf("=== Annual availability: %llu simulated years per "
                "configuration ===\n",
                static_cast<unsigned long long>(trials));
    std::printf("(workload: Specjbb x 8; defense: Throttle+Sleep-L "
                "hybrid where a UPS exists;\n campaign engine on %d "
                "thread(s))\n\n",
                ThreadPool::hardwareThreads());

    std::printf("%-20s %7s %16s %10s %19s %12s\n", "configuration",
                "cost", "E[down] min/yr", "P95 down",
                "p(loss-free) [CI]", "mean perf");

    const CostModel cost;
    double total_wall = 0.0;
    std::uint64_t total_trials = 0;
    std::ostringstream rows; // JSON array body, built as we sweep

    {
        JsonWriter scratch(rows); // writes the per-config array only
        scratch.beginArray();
        for (const auto &config : table3Configs()) {
            AnnualCampaignSpec spec;
            spec.profile = specJbbProfile();
            spec.nServers = 8;
            spec.technique = defenseFor(config);
            spec.config = config;

            AnnualCampaignOptions opts;
            opts.maxTrials = trials;
            opts.seed = 1234;
            const auto s = runAnnualCampaign(spec, opts);
            total_wall += s.wallSeconds;
            total_trials += s.trials;

            const auto cap = capacityOf(config, 8 * 250.0);
            std::printf(
                "%-20s %7.2f %16.1f %10.1f %9.0f%% [%2.0f,%3.0f] %12.4f\n",
                config.name.c_str(),
                cost.normalizedCost(cap, 8 * 0.25),
                s.downtimeMin.mean(), s.downtimeMin.p95(),
                s.lossFree.fraction * 100.0, s.lossFree.lo * 100.0,
                s.lossFree.hi * 100.0, s.meanPerf.mean());

            scratch.beginObject();
            scratch.field("configuration", config.name);
            scratch.field("normalized_cost",
                          cost.normalizedCost(cap, 8 * 0.25));
            scratch.field("trials", s.trials);
            scratch.field("trials_per_sec", s.trialsPerSec);
            writeMetricJson(scratch, "downtime_min", s.downtimeMin);
            writeMetricJson(scratch, "mean_perf", s.meanPerf);
            writeMetricJson(scratch, "battery_kwh", s.batteryKwh);
            writeMetricJson(scratch, "worst_gap_min", s.worstGapMin);
            scratch.key("loss_free").beginObject();
            scratch.field("fraction", s.lossFree.fraction);
            scratch.field("ci_lo", s.lossFree.lo);
            scratch.field("ci_hi", s.lossFree.hi);
            scratch.endObject();
            scratch.endObject();
        }
        scratch.endArray();
    }

    std::printf("\nSame, with NVDIMM hardware and no backup at all:\n");
    AnnualCampaignSummary nv;
    {
        // Custom trial body so the server params carry the NVDIMM
        // flag; still one Simulator per trial, campaign-scheduled.
        const auto gen = OutageTraceGenerator::figure1();
        AnnualCampaignOptions opts;
        opts.maxTrials = trials;
        opts.seed = 1234;
        nv = runAnnualCampaign(
            [&gen](std::uint64_t, Rng &rng) {
                constexpr Time year = 365LL * 24 * kHour;
                const auto events = gen.generate(rng, year);
                Simulator s;
                Utility utility(s);
                PowerHierarchy::Config cfg; // no backup
                cfg.hasDg = false;
                cfg.hasUps = false;
                PowerHierarchy hierarchy(s, utility, cfg);
                ServerModel::Params sp;
                sp.nvdimm = true;
                Cluster cluster(s, hierarchy, ServerModel{sp},
                                specJbbProfile(), 8);
                cluster.primeSteadyState();
                for (const auto &ev : events)
                    utility.scheduleOutage(ev.start, ev.duration);
                s.runUntil(year);
                AnnualResult r;
                r.outages = static_cast<int>(events.size());
                r.downtimeMin =
                    (1.0 - cluster.availabilityTimeline().average(
                               0, year)) *
                    toMinutes(year);
                r.meanPerf = cluster.perfTimeline().average(0, year);
                r.losses = cluster.app(0).stateLosses();
                return r;
            },
            opts);
        total_wall += nv.wallSeconds;
        total_trials += nv.trials;
        std::printf("%-20s %7.2f %16.1f %10.1f %9.0f%% [%2.0f,%3.0f]\n",
                    "MinCost+NVDIMM", 0.0,
                    nv.downtimeMin.mean(),
                    nv.downtimeMin.p95(), nv.lossFree.fraction * 100.0,
                    nv.lossFree.lo * 100.0, nv.lossFree.hi * 100.0);
    }

    const std::string json = writeBenchJsonFile(
        "abl_annual_availability", [&](JsonWriter &w) {
            w.field("seed", nv.seed);
            w.field("trials", total_trials);
            w.field("wall_seconds", total_wall);
            w.field("trials_per_sec",
                    total_wall > 0.0
                        ? static_cast<double>(total_trials) / total_wall
                        : 0.0);
            w.field("threads", ThreadPool::hardwareThreads());
            w.key("nvdimm").beginObject();
            w.field("mean_downtime_min", nv.downtimeMin.mean());
            w.field("p95_downtime_min", nv.downtimeMin.p95());
            w.field("loss_free_fraction", nv.lossFree.fraction);
            w.endObject();
            w.key("configurations").raw(rows.str());
        });
    if (!json.empty())
        std::printf("\n[wrote %s]\n", json.c_str());

    std::printf("\nReading: the long-runtime UPS configurations plus "
                "the hybrid defense are\n"
                "100%% loss-free at 0.38-0.55x cost, with the residual "
                "downtime concentrated\n"
                "in the rare multi-hour outages the paper assigns to "
                "geo-failover. The 2-minute\n"
                "batteries (NoDG/SmallPUPS) still lose state in some "
                "years: clustered outages\n"
                "catch them before the 4-hour recharge completes — an "
                "argument for state-of-\n"
                "charge-aware policies (see the adaptive controller "
                "example). NVDIMM achieves\n"
                "loss-free years at zero backup cost but cannot serve "
                "during the outage.\n");
    return 0;
}
