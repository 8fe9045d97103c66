/**
 * @file
 * Google-benchmark microbenchmarks of the campaign aggregation
 * primitives: ExactSum accumulation (the cost of bit-stable merging),
 * t-digest add/quantile/merge, and the full MergingMetric update an
 * annual shard performs per trial. These sit on the per-trial hot
 * path of every sharded campaign, so regressions here scale with N.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/exact_sum.hh"
#include "campaign/shard.hh"
#include "campaign/tdigest.hh"
#include "core/annual.hh"
#include "core/backup_config.hh"
#include "obs/obs.hh"
#include "outage/trace.hh"
#include "sim/random.hh"
#include "workload/profile.hh"

using namespace bpsim;

namespace
{

std::vector<double>
mixedSample(int n)
{
    Rng rng(7);
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = rng.exponential(90.0) - 30.0; // signed, heavy-tailed
    return xs;
}

void
BM_ExactSumAdd(benchmark::State &state)
{
    const auto xs = mixedSample(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        ExactSum s;
        for (const double x : xs)
            s.add(x);
        benchmark::DoNotOptimize(s.value());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExactSumAdd)->Arg(1000)->Arg(100000);

void
BM_ExactSumMerge(benchmark::State &state)
{
    const auto xs = mixedSample(10000);
    std::vector<ExactSum> parts(16);
    for (std::size_t i = 0; i < xs.size(); ++i)
        parts[i % parts.size()].add(xs[i]);
    for (auto _ : state) {
        ExactSum total;
        for (const auto &p : parts)
            total.merge(p);
        benchmark::DoNotOptimize(total.value());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int>(parts.size()));
}
BENCHMARK(BM_ExactSumMerge);

void
BM_TDigestAdd(benchmark::State &state)
{
    const auto xs = mixedSample(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        TDigest td;
        for (const double x : xs)
            td.add(x);
        benchmark::DoNotOptimize(td.quantile(0.99));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TDigestAdd)->Arg(1000)->Arg(100000);

void
BM_TDigestMerge(benchmark::State &state)
{
    const auto xs = mixedSample(160000);
    std::vector<TDigest> parts(16, TDigest{100.0});
    for (std::size_t i = 0; i < xs.size(); ++i)
        parts[i % parts.size()].add(xs[i]);
    for (auto &p : parts)
        benchmark::DoNotOptimize(p.centroids().size()); // pre-flush
    for (auto _ : state) {
        TDigest total;
        for (const auto &p : parts)
            total.merge(p);
        benchmark::DoNotOptimize(total.quantile(0.5));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int>(parts.size()));
}
BENCHMARK(BM_TDigestMerge);

void
BM_MergingMetricAdd(benchmark::State &state)
{
    // The per-trial aggregation cost of a sharded campaign metric:
    // two ExactSum folds + min/max + one t-digest insert.
    const auto xs = mixedSample(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        MergingMetric m;
        for (const double x : xs)
            m.add(x);
        benchmark::DoNotOptimize(m.meanCiHalfWidth());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MergingMetricAdd)->Arg(1000)->Arg(100000);

/**
 * The in-order consumer of a batched campaign on 256-trial chunks:
 * per value (CampaignAggregate::fold, trial by trial) versus chunk
 * partials (CampaignAggregate::foldChunk over what prepareChunk built
 * off the fold's thread). Both lanes fold the same results into an
 * aggregate carried across iterations, cycling through 25 chunks
 * (6400 trials, a whole number of 800-value digest flush cycles); the
 * partials are prepared once up front. items_per_second counts trials.
 */
constexpr std::size_t kChunk = 256;
constexpr std::size_t kCycleChunks = 25;

std::vector<AnnualResult>
chunkResults()
{
    Rng rng(11);
    std::vector<AnnualResult> rs(kChunk * kCycleChunks);
    for (auto &r : rs) {
        r.losses = rng.nextDouble() < 0.1 ? 1 : 0;
        r.downtimeMin = r.losses ? rng.exponential(30.0) : 0.0;
        r.meanPerf = 1.0 - 0.01 * rng.nextDouble();
        r.batteryKwh = rng.exponential(5.0);
        r.worstGapMin = r.downtimeMin * rng.nextDouble();
    }
    return rs;
}

void
BM_FoldChunkPerValue(benchmark::State &state)
{
    const auto rs = chunkResults();
    CampaignAggregate agg;
    std::size_t c = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < kChunk; ++i)
            agg.fold(rs[c * kChunk + i]);
        c = (c + 1) % kCycleChunks;
    }
    benchmark::DoNotOptimize(agg.downtimeMin.sum().value());
    state.SetItemsProcessed(state.iterations() * kChunk);
}
BENCHMARK(BM_FoldChunkPerValue);

void
BM_FoldChunkPartials(benchmark::State &state)
{
    const auto rs = chunkResults();
    CampaignAggregate agg;
    std::vector<std::vector<MetricChunk>> parts(kCycleChunks);
    for (std::size_t c = 0; c < kCycleChunks; ++c)
        CampaignAggregate::prepareChunk(parts[c], &rs[c * kChunk], kChunk);
    const std::function<bool(std::size_t)> more = [](std::size_t) {
        return true;
    };
    std::size_t c = 0;
    for (auto _ : state) {
        agg.foldChunk(&rs[c * kChunk], kChunk, parts[c], more);
        c = (c + 1) % kCycleChunks;
    }
    benchmark::DoNotOptimize(agg.downtimeMin.sum().value());
    state.SetItemsProcessed(state.iterations() * kChunk);
}
BENCHMARK(BM_FoldChunkPartials);

/** The worker's share of the partials lane: prepareChunk alone. */
void
BM_PrepareChunk(benchmark::State &state)
{
    const auto rs = chunkResults();
    std::vector<MetricChunk> parts;
    std::size_t c = 0;
    for (auto _ : state) {
        CampaignAggregate::prepareChunk(parts, &rs[c * kChunk], kChunk);
        benchmark::DoNotOptimize(parts.data());
        c = (c + 1) % kCycleChunks;
    }
    state.SetItemsProcessed(state.iterations() * kChunk);
}
BENCHMARK(BM_PrepareChunk);

/**
 * One full annual trial — the unit of work every campaign repeats N
 * times. items_per_second IS the single-thread trials/sec figure the
 * observability acceptance gate tracks: with tracing disabled (the
 * default, BM_AnnualTrial) the obs hooks must cost < 2 % vs. the
 * pre-obs baseline; BM_AnnualTrialTraced measures the cost of
 * recording every power/technique event into a TrialRecord.
 */
void
annualTrialLoop(benchmark::State &state, bool traced)
{
    constexpr Time kYear = 365LL * 24 * kHour;
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = noDgConfig();

    const auto gen = OutageTraceGenerator::figure1();
    const AnnualSimulator sim;
    std::uint64_t id = 0;
    for (auto _ : state) {
        const std::uint64_t trial = id++ % 64;
        Rng rng = Rng::stream(42, trial);
        const auto events = gen.generate(rng, kYear);
        obs::TrialRecord record;
        const obs::TrialScope scope(trial, traced ? &record : nullptr);
        const AnnualResult r = sim.runYear(spec.profile, spec.nServers,
                                           spec.technique, spec.config,
                                           events);
        benchmark::DoNotOptimize(r.downtimeMin);
        benchmark::DoNotOptimize(record.events.size());
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_AnnualTrial(benchmark::State &state)
{
    annualTrialLoop(state, false);
}
BENCHMARK(BM_AnnualTrial);

void
BM_AnnualTrialTraced(benchmark::State &state)
{
    annualTrialLoop(state, true);
}
BENCHMARK(BM_AnnualTrialTraced);

/**
 * One runYear on the campaign-scalar shape (specjbb, DG-SmallPUPS,
 * Migration, obs off) at range(0) servers. Traces are generated up
 * front so the lane times the scalar simulator alone; the /128 over
 * /32 ratio shows how a trial's cost grows with cluster size.
 */
void
BM_AnnualTrialServers(benchmark::State &state)
{
    constexpr Time kYear = 365LL * 24 * kHour;
    const int n_servers = static_cast<int>(state.range(0));
    const WorkloadProfile profile = specJbbProfile();
    const TechniqueSpec technique{TechniqueKind::Migration};
    const BackupConfigSpec config = dgSmallPUpsConfig();

    const auto gen = OutageTraceGenerator::figure1();
    std::vector<std::vector<OutageEvent>> traces;
    for (std::uint64_t trial = 0; trial < 64; ++trial) {
        Rng rng = Rng::stream(42, trial);
        traces.push_back(gen.generate(rng, kYear));
    }
    const AnnualSimulator sim;
    std::size_t next = 0;
    for (auto _ : state) {
        const AnnualResult r = sim.runYear(profile, n_servers, technique,
                                           config, traces[next]);
        next = (next + 1) % traces.size();
        benchmark::DoNotOptimize(r.downtimeMin);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnnualTrialServers)->Arg(8)->Arg(32)->Arg(128);

} // namespace

BENCHMARK_MAIN();
