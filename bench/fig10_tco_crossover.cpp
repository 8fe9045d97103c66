/**
 * @file
 * Figure 10 reproduction: revenue loss + server depreciation versus
 * the savings from not provisioning diesel generators, for Google's
 * 2011 financials. The crossover (~5 hours of yearly outage) marks the
 * region where backup under-provisioning is profitable.
 *
 * The analytic table is followed by a Monte Carlo cross-check on the
 * campaign engine: whole years of Figure 1 outage traces, yielding the
 * distribution of yearly exposure and a Wilson interval on the
 * fraction of years where skipping the DG is profitable. Results are
 * exported to BENCH_fig10_tco_crossover.json.
 */

#include <cstdio>
#include <cstdlib>

#include <algorithm>

#include "campaign/annual_campaign.hh"
#include "campaign/json.hh"
#include "core/tco.hh"
#include "outage/distribution.hh"
#include "sim/logging.hh"

using namespace bpsim;

int
main()
{
    setQuietLogging(true);
    const TcoModel tco;

    std::printf("=== Figure 10: Revenue loss vs backup savings "
                "(Google 2011) ===\n\n");
    std::printf("  revenue/KW/min:            $%.3f\n",
                tco.params().revenuePerKwMin);
    std::printf("  server depreciation/KW/min: $%.3f\n",
                tco.params().serverDepreciationPerKwMin);
    std::printf("  DG savings:                $%.1f/KW/year\n\n",
                tco.dgSavingsPerKwYr());

    std::printf("%-26s %-22s %-14s %s\n", "yearly outage (min)",
                "loss ($/KW/yr)", "DG cost", "verdict");
    for (int minutes = 0; minutes <= 500; minutes += 50) {
        const double loss = tco.outageCostPerKwYr(minutes);
        std::printf("%-26d %-22.1f %-14.1f %s\n", minutes, loss,
                    tco.dgSavingsPerKwYr(),
                    tco.profitableWithoutDg(minutes)
                        ? "profitable without DG"
                        : "DG pays off");
    }

    std::printf("\nCrossover: %.0f minutes/year (~%.1f hours; "
                "paper: ~5 hours)\n",
                tco.crossoverMinutesPerYr(),
                tco.crossoverMinutesPerYr() / 60.0);

    // Tie the crossover back to the outage statistics: what yearly
    // outage exposure does Figure 1 actually imply?
    const auto dur = OutageDurationDistribution::figure1();
    const auto freq = OutageFrequencyDistribution::figure1();
    const double expected_min_per_yr =
        toMinutes(dur.mean()) * freq.mean();
    std::printf("\nExpected outage exposure from Figure 1: "
                "%.0f min/year (%.1f h)\n",
                expected_min_per_yr, expected_min_per_yr / 60.0);
    std::printf("  -> under-provisioning is %s for the *average* US "
                "business site\n",
                tco.profitableWithoutDg(expected_min_per_yr)
                    ? "profitable"
                    : "not profitable");
    std::printf("  (and most sites see far less than the mean: the "
                "duration tail is heavy)\n");

    // Monte Carlo cross-check: sample whole years of Figure 1 traces
    // on the campaign engine. The mean only tells half the story —
    // the heavy duration tail means the *typical* year is far below
    // the crossover even when a rare year blows past it.
    std::uint64_t years = 2000;
    if (const char *env = std::getenv("BPSIM_CAMPAIGN_TRIALS"))
        years = static_cast<std::uint64_t>(std::max(1L, std::atol(env)));
    const auto gen = OutageTraceGenerator::figure1();
    AnnualCampaignOptions opts;
    opts.maxTrials = years;
    opts.seed = 10;
    // Custom trial: downtimeMin carries the year's outage exposure in
    // minutes, meanPerf its TCO loss in $/KW/yr, and `losses` flags a
    // year where keeping the DG would have been the right call.
    const auto mc = runAnnualCampaign(
        [&gen, &tco](std::uint64_t, Rng &rng) {
            constexpr Time year = 365LL * 24 * kHour;
            const auto events = gen.generate(rng, year);
            double minutes = 0.0;
            for (const auto &ev : events)
                minutes += toMinutes(ev.duration);
            AnnualResult r;
            r.outages = static_cast<int>(events.size());
            r.downtimeMin = minutes;
            r.meanPerf = tco.outageCostPerKwYr(minutes);
            r.losses = tco.profitableWithoutDg(minutes) ? 0 : 1;
            return r;
        },
        opts);

    std::printf("\nMonte Carlo over %llu sampled years (campaign "
                "engine, %d thread(s)):\n",
                static_cast<unsigned long long>(mc.trials),
                WorkStealingPool::hardwareThreads());
    std::printf("  exposure min/yr: mean %.0f, P50 %.0f, P95 %.0f, "
                "P99 %.0f\n",
                mc.downtimeMin.mean(), mc.downtimeMin.p50(),
                mc.downtimeMin.p95(), mc.downtimeMin.p99());
    std::printf("  TCO loss $/KW/yr: mean %.1f vs DG savings %.1f\n",
                mc.meanPerf.mean(), tco.dgSavingsPerKwYr());
    std::printf("  years profitable without DG: %.1f%% "
                "[%.1f%%, %.1f%%] (Wilson 95%%)\n",
                mc.lossFree.fraction * 100.0, mc.lossFree.lo * 100.0,
                mc.lossFree.hi * 100.0);

    const std::string json =
        writeBenchJsonFile("fig10_tco_crossover", [&](JsonWriter &w) {
            w.field("seed", mc.seed);
            w.field("trials", mc.trials);
            w.field("wall_seconds", mc.wallSeconds);
            w.field("trials_per_sec", mc.trialsPerSec);
            w.field("threads", WorkStealingPool::hardwareThreads());
            w.field("crossover_min_per_yr", tco.crossoverMinutesPerYr());
            w.field("dg_savings_per_kw_yr", tco.dgSavingsPerKwYr());
            w.field("expected_exposure_min_per_yr", expected_min_per_yr);
            writeMetricJson(w, "exposure_min_per_yr", mc.downtimeMin);
            writeMetricJson(w, "tco_loss_per_kw_yr", mc.meanPerf);
            w.key("profitable_without_dg").beginObject();
            w.field("fraction", mc.lossFree.fraction);
            w.field("ci_lo", mc.lossFree.lo);
            w.field("ci_hi", mc.lossFree.hi);
            w.endObject();
        });
    if (!json.empty())
        std::printf("\n[wrote %s]\n", json.c_str());
    return 0;
}
