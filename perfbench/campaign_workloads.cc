/**
 * @file
 * The campaign workloads: full annual campaigns, spec to deterministic
 * summary JSON, through the public runAnnualCampaign(spec, opts) and
 * writeCampaignJson(..., {includeTiming = false}), in this process.
 *
 *  - campaign-batched: specjbb, LargeEUPS, Throttle p5, 8 servers,
 *    batch 256. Every lane takes the kernel fast path, so trace
 *    generation, the kernel and the serial in-order fold do the work.
 *  - campaign-scalar: specjbb, DG-SmallPUPS, Migration, 32 servers,
 *    batch 0: a paper shape the kernel cannot replay, so the time is
 *    AnnualSimulator::runYear.
 *
 * The traced run drives the same spec through the public pieces,
 * runCampaign + OutageTraceGenerator::generate + runBatch or runYear +
 * an in-order fold of the five MetricStats, with spans around each,
 * and checks that it reproduces the summary bytes.
 */

#include <atomic>
#include <sstream>

#include "bench.hh"
#include "campaign/annual_campaign.hh"
#include "campaign/batch_kernel.hh"
#include "campaign/runner.hh"
#include "obs/trace.hh"
#include "outage/trace.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

using namespace bpsim;

/** One campaign workload's fixed shape. */
struct Shape
{
    /** The scenario, in the what-if request vocabulary. */
    const char *spec;
    /** Trials per timed campaign. */
    std::uint64_t trials;
    std::uint64_t batch;
    /** Untimed budget on which batch = 256 must equal batch = 0. */
    std::uint64_t prefix;
};

const Shape kBatched = {
    R"({"config":"LargeEUPS","technique":{"kind":"throttle","pstate":5},)"
    R"("servers":8})",
    50000, 256, 4096};
const Shape kScalar = {
    R"({"config":"DG-SmallPUPS","technique":{"kind":"migration"},)"
    R"("servers":32})",
    128, 0, 64};

/*
 * Campaign sizes keep a run at a few hundred campaigns, so the p90 keeps
 * its ten samples beyond even on a host twice as slow.
 */

/** Campaign seeds the timed loop cycles through. */
constexpr int kSeeds = 4;
/** Set-up passes; setup_s is their median. */
constexpr int kSetupPasses = 9;

std::string
summaryJson(const AnnualCampaignSummary &s)
{
    std::ostringstream os;
    CampaignJsonOptions o;
    o.includeTiming = false;
    writeCampaignJson(os, s, o);
    return os.str();
}

/** What one traced campaign measured. */
struct Traced
{
    std::string json;
    std::int64_t wallNs = 0;
    std::int64_t generateNs = 0;
    std::int64_t kernelNs = 0;
    std::int64_t runYearNs = 0;
    std::int64_t foldNs = 0;
    std::uint64_t traces = 0;
    std::uint64_t events = 0;
    std::uint64_t fastLanes = 0;
};

/**
 * One campaign driven through the public pieces with spans around
 * generation, the kernel or runYear, and the in-order fold (the five
 * MetricStats::add calls and the loss-free count per trial).
 */
Traced
tracedCampaign(const AnnualCampaignSpec &spec,
               const AnnualCampaignOptions &opts)
{
    const auto gen = OutageTraceGenerator::figure1();
    const AnnualSimulator sim;
    AnnualCampaignSummary out;
    out.planned = opts.maxTrials;
    out.seed = opts.seed;
    std::atomic<std::int64_t> gen_ns{0}, kernel_ns{0}, year_ns{0};
    std::atomic<std::uint64_t> events{0}, fast{0};
    std::int64_t fold_ns = 0; // the consumer is serialized

    const auto fold = [&out](const AnnualResult &r) {
        out.downtimeMin.add(r.downtimeMin);
        out.lossesPerYear.add(static_cast<double>(r.losses));
        out.meanPerf.add(r.meanPerf);
        out.batteryKwh.add(r.batteryKwh);
        out.worstGapMin.add(r.worstGapMin);
        if (r.losses == 0)
            ++out.lossFreeTrials;
        ++out.trials;
    };

    const std::uint64_t root = newSpanId();
    const std::int64_t t0 = nowNs();
    CampaignOptions copts;
    copts.threads = opts.threads;
    if (opts.batch != 0) {
        const BatchAnnualKernel kernel(spec.profile, spec.nServers,
                                       spec.technique, spec.config);
        const std::uint64_t batch = opts.batch;
        const std::uint64_t chunks = (opts.maxTrials + batch - 1) / batch;
        const std::function<std::vector<AnnualResult>(std::uint64_t)>
            body = [&](std::uint64_t chunk) {
                const std::uint64_t lo = chunk * batch;
                const std::uint64_t hi = std::min(lo + batch, opts.maxTrials);
                // Generation probe: the kernel draws these same traces
                // again inside runBatch; lane_ns subtracts this.
                const std::int64_t a = nowNs();
                std::uint64_t ev = 0, fl = 0;
                for (std::uint64_t t = lo; t < hi; ++t) {
                    Rng rng = Rng::stream(opts.seed, t);
                    const auto trace = gen.generate(rng, kYear);
                    ev += trace.size();
                    fl += kernel.fastPathEligible() && !obs::enabled() &&
                          kernel.traceEligible(trace);
                }
                const std::int64_t b = nowNs();
                std::vector<AnnualResult> res(hi - lo);
                kernel.runBatch(opts.seed, lo, hi, res.data());
                const std::int64_t c = nowNs();
                recordSpan("outage.generate", root, a, b, lo);
                recordSpan("campaign.kernel", root, b, c, lo);
                gen_ns += b - a;
                kernel_ns += c - b;
                events += ev;
                fast += fl;
                return res;
            };
        const std::function<bool(std::uint64_t,
                                 std::vector<AnnualResult> &&)>
            consume = [&](std::uint64_t chunk,
                          std::vector<AnnualResult> &&res) {
                const std::int64_t a = nowNs();
                for (const AnnualResult &r : res)
                    fold(r);
                const std::int64_t b = nowNs();
                recordSpan("campaign.fold", root, a, b, chunk * batch);
                fold_ns += b - a;
                return true;
            };
        runCampaign<std::vector<AnnualResult>>(chunks, body, consume, copts);
    } else {
        const std::function<AnnualResult(std::uint64_t)> body =
            [&](std::uint64_t id) {
                Rng rng = Rng::stream(opts.seed, id);
                const std::int64_t a = nowNs();
                const auto trace = gen.generate(rng, kYear);
                const std::int64_t b = nowNs();
                const AnnualResult r =
                    sim.runYear(spec.profile, spec.nServers, spec.technique,
                                spec.config, trace);
                const std::int64_t c = nowNs();
                recordSpan("outage.generate", root, a, b, id);
                recordSpan("core.run_year", root, b, c, id);
                gen_ns += b - a;
                year_ns += c - b;
                events += trace.size();
                return r;
            };
        const std::function<bool(std::uint64_t, AnnualResult &&)> consume =
            [&](std::uint64_t id, AnnualResult &&r) {
                const std::int64_t a = nowNs();
                fold(r);
                const std::int64_t b = nowNs();
                recordSpan("campaign.fold", root, a, b, id);
                fold_ns += b - a;
                return true;
            };
        runCampaign<AnnualResult>(opts.maxTrials, body, consume, copts);
    }
    const std::int64_t t1 = nowNs();
    Span top;
    top.id = root;
    top.name = "campaign";
    top.startNs = t0;
    top.endNs = t1;
    top.tag = opts.seed;
    recordSpan(top);

    out.lossFree = wilsonInterval(out.lossFreeTrials, out.trials, opts.ciZ);
    Traced t;
    t.json = summaryJson(out);
    t.wallNs = t1 - t0;
    t.generateNs = gen_ns;
    t.kernelNs = kernel_ns;
    t.runYearNs = year_ns;
    t.foldNs = fold_ns;
    t.traces = out.trials;
    t.events = events;
    t.fastLanes = fast;
    return t;
}

} // namespace

RunResult
runCampaignWorkload(const RunArgs &args, bool batched)
{
    RunResult r;
    // Isolation guard: a process with obs armed (as a default
    // CampaignService arms it) sends every kernel lane to the scalar
    // fallback, so its campaign numbers would be meaningless.
    if (bpsim::obs::enabled()) {
        std::fprintf(stderr, "perfbench: obs is enabled in this process; "
                             "refusing to time a campaign workload\n");
        std::exit(3);
    }
    const Shape &shape = batched ? kBatched : kScalar;
    const int threads = static_cast<int>(bpsim::hostCoreCount());
    SeedStream seeds(args.seed);
    std::vector<std::uint64_t> campaign_seeds;
    for (int i = 0; i < kSeeds; ++i)
        campaign_seeds.push_back(seeds.nextSmall());

    AnnualCampaignOptions opts;
    opts.maxTrials = shape.trials;
    opts.threads = threads;
    opts.batch = shape.batch;

    // Set-up: resolve the spec and run one warm-up campaign, several
    // times; each pass must reproduce the same summary bytes.
    std::map<std::uint64_t, std::string> reference;
    std::vector<double> setup_s;
    AnnualCampaignSpec spec;
    for (int pass = 0; pass < kSetupPasses; ++pass) {
        const std::int64_t t0 = nowNs();
        spec = parseWhatIf(shape.spec).spec;
        opts.seed = campaign_seeds[0];
        const std::string json = summaryJson(runAnnualCampaign(spec, opts));
        setup_s.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        if (pass == 0)
            reference[opts.seed] = json;
        r.check(json == reference[opts.seed],
                "set-up pass " + std::to_string(pass) +
                    " summary differs from pass 0");
    }
    r.metrics["setup_s"] = median(setup_s);

    // Untimed: the batched and scalar paths agree on a prefix budget.
    {
        AnnualCampaignOptions p = opts;
        p.maxTrials = shape.prefix;
        p.seed = campaign_seeds[1];
        p.batch = 256;
        const std::string with_batch = summaryJson(runAnnualCampaign(spec, p));
        p.batch = 0;
        const std::string scalar = summaryJson(runAnnualCampaign(spec, p));
        r.check(with_batch == scalar,
                "batch=256 summary differs from batch=0 on " +
                    std::to_string(shape.prefix) + " trials");
    }

    // Timed campaigns, cycling the seeds; every repetition of a seed
    // must reproduce its first summary byte for byte.
    std::vector<double> lat_ms;
    double trials = 0.0, wall_s = 0.0;
    const std::int64_t end =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    for (std::size_t i = 0; nowNs() < end; ++i) {
        AnnualCampaignOptions o = opts;
        o.seed = campaign_seeds[i % kSeeds];
        const std::int64_t t0 = nowNs();
        const AnnualCampaignSummary s = runAnnualCampaign(spec, o);
        const std::string json = summaryJson(s);
        const double dt = static_cast<double>(nowNs() - t0) * 1e-9;
        lat_ms.push_back(dt * 1e3);
        trials += static_cast<double>(s.trials);
        wall_s += dt;
        ++r.attempted;
        auto [it, fresh] = reference.emplace(o.seed, json);
        if (!fresh && it->second != json) {
            ++r.failed;
            r.check(false, "summary of seed " + std::to_string(o.seed) +
                               " changed between repetitions");
        }
    }
    const LatencySummary lat = summarize(lat_ms, 0.90);
    // The median campaign's rate: robust to a few campaigns slowed by
    // other load on the host, unlike total trials / total wall.
    const double tput = static_cast<double>(shape.trials) / (lat.p50 * 1e-3);
    r.metrics["throughput"] = tput;
    r.metrics["p50_ms"] = lat.p50;
    r.metrics["p90_ms"] = lat.tail;
    r.note("campaign: " + std::to_string(shape.trials) + " trials, " +
           std::to_string(threads) + " threads, batch " +
           std::to_string(shape.batch) + ", " + shape.spec);
    r.note("trials_per_s " + fmt(tput) + " trials/s of the median campaign (n=" +
           std::to_string(lat.n) + " campaigns; mean " + fmt(trials / wall_s) + ")");
    r.note("campaign latency p50 " + formatTiming(lat.p50, "ms", lat.n) +
           ", " + quantileLabel(lat.tailQ) + " " +
           formatTiming(lat.tail, "ms", lat.n));
    r.note("setup_s " + fmt(r.metrics["setup_s"]) + " s (median of " +
           std::to_string(kSetupPasses) + " passes)");

    if (args.trace) {
        // A second window of the same length, traced: same seeds, same
        // spec, driven through the public pieces.
        std::vector<double> traced_ms;
        Traced sum;
        std::int64_t wall_ns = 0;
        const std::int64_t traced_end =
            nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
        for (std::size_t i = 0; nowNs() < traced_end; ++i) {
            AnnualCampaignOptions o = opts;
            o.seed = campaign_seeds[i % kSeeds];
            const Traced t = tracedCampaign(spec, o);
            traced_ms.push_back(static_cast<double>(t.wallNs) * 1e-6);
            const auto it = reference.find(o.seed);
            r.check(it == reference.end() || it->second == t.json,
                    "traced campaign summary differs for seed " +
                        std::to_string(o.seed));
            wall_ns += t.wallNs;
            sum.generateNs += t.generateNs;
            sum.kernelNs += t.kernelNs;
            sum.runYearNs += t.runYearNs;
            sum.foldNs += t.foldNs;
            sum.traces += t.traces;
            sum.events += t.events;
            sum.fastLanes += t.fastLanes;
        }
        const double n = static_cast<double>(std::max<std::uint64_t>(1, sum.traces));
        const double gen_ns = static_cast<double>(sum.generateNs) / n;
        r.metrics["outage.generate_ns"] = gen_ns;
        r.metrics["outage.events_per_trace"] = static_cast<double>(sum.events) / n;
        r.metrics["campaign.fold_ns"] = static_cast<double>(sum.foldNs) / n;
        r.metrics["campaign.fold_serial_frac"] =
            static_cast<double>(sum.foldNs) / static_cast<double>(wall_ns);
        if (batched) {
            r.metrics["campaign.kernel.lane_ns"] =
                static_cast<double>(sum.kernelNs) / n - gen_ns;
            r.metrics["campaign.kernel.fast_lane_frac"] =
                static_cast<double>(sum.fastLanes) / n;
        } else {
            r.metrics["core.run_year_us"] =
                static_cast<double>(sum.runYearNs) / n * 1e-3;
        }
        r.metrics["trace.overhead_frac"] =
            median(traced_ms) / median(lat_ms) - 1.0;

        // Layer shares of the traced wall: parallel layers divide their
        // busy time by the pool width; the fold runs on one thread.
        const std::vector<Span> spans = collectSpans();
        const auto self = selfTimeByName(spans);
        const double w = static_cast<double>(wall_ns);
        const double unattributed =
            self.count("campaign") ? static_cast<double>(self.at("campaign")) / w
                                   : 0.0;
        r.metrics["trace.unattributed_frac"] = unattributed;
        r.note("traced: " + std::to_string(traced_ms.size()) +
               " campaigns, wall " + fmt(w * 1e-9) + " s");
        r.note("layer share of traced wall: generate " +
               fmt(static_cast<double>(sum.generateNs) / w / threads) +
               ", kernel " + fmt(static_cast<double>(sum.kernelNs) / w / threads) +
               ", run_year " + fmt(static_cast<double>(sum.runYearNs) / w / threads) +
               ", fold (serial) " + fmt(static_cast<double>(sum.foldNs) / w) +
               ", unattributed " + fmt(unattributed));

        // Thread scaling, untraced: the same campaigns on one thread.
        {
            AnnualCampaignOptions o = opts;
            o.threads = 1;
            double t1_trials = 0.0, t1_wall = 0.0;
            const std::int64_t stop = nowNs() + 1500000000;
            for (std::size_t i = 0; i == 0 || nowNs() < stop; ++i) {
                o.seed = campaign_seeds[i % kSeeds];
                const std::int64_t t0 = nowNs();
                t1_trials += static_cast<double>(runAnnualCampaign(spec, o).trials);
                t1_wall += static_cast<double>(nowNs() - t0) * 1e-9;
            }
            r.metrics["campaign.runner.speedup"] = tput / (t1_trials / t1_wall);
            r.note("1-thread trials_per_s " + fmt(t1_trials / t1_wall));
        }

        probeLayers(shape.spec, campaign_seeds[0], r);
        writeRunTrace(args, spans, r);
    }

    r.metrics["peak_rss_mb"] = peakRssMb();
    r.check(r.attempted > 0, "no campaign completed in the window");
    return r;
}

} // namespace perfbench
