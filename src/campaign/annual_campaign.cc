#include "campaign/annual_campaign.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "campaign/json.hh"
#include "obs/context.hh"
#include "obs/obs.hh"
#include "outage/trace.hh"
#include "sim/logging.hh"

namespace bpsim
{

namespace
{

constexpr Time kYear = 365LL * 24 * kHour;

/** Trial @p r's observation of metric @p m, in kMetrics order. */
double
observation(const AnnualResult &r, std::size_t m)
{
    switch (m) {
    case 0:
        return r.downtimeMin;
    case 1:
        return static_cast<double>(r.losses);
    case 2:
        return r.meanPerf;
    case 3:
        return r.batteryKwh;
    default:
        return r.worstGapMin;
    }
}

/** The registry a recording campaign publishes into (null: none). */
obs::Registry *
publishTo(const AnnualCampaignOptions &opts)
{
    return opts.obs ? opts.obs->registry : nullptr;
}

/**
 * Wall-clock + loss-free tail of a campaign run. @p executed is the
 * number of trials this *run* simulated — only the extension width on
 * a resume — so the "campaign.trials" counter of a recording campaign
 * stays additive: a checkpointed run plus its extension reports
 * exactly what one fresh run of the full budget would.
 */
void
finalizeCampaign(AnnualCampaignSummary &out,
                 const AnnualCampaignOptions &opts,
                 std::chrono::steady_clock::time_point t0,
                 std::uint64_t executed)
{
    out.lossFree = wilsonInterval(out.lossFreeTrials, out.trials, opts.ciZ);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    out.wallSeconds = wall.count();
    out.trialsPerSec = out.wallSeconds > 0.0
                           ? static_cast<double>(executed) /
                                 out.wallSeconds
                           : 0.0;
    if (obs::Registry *reg = publishTo(opts)) {
        reg->counter("campaign.trials").add(executed);
        reg->gauge("campaign.trials_per_sec").set(out.trialsPerSec);
    }
}

bool
stopRuleHolds(const AnnualCampaignOptions &opts, const CampaignAggregate &a)
{
    return evaluateStopRule(opts, a.trials, a.downtimeMin.sum(),
                            a.downtimeMin.sumSq())
        .fired;
}

/**
 * Continue @p out from out.trials through opts.maxTrials under the
 * stop rule and the progress cadence (both on global trial ids).
 */
void
runTrials(AnnualCampaignSummary &out, const TrialSource &source,
          const AnnualCampaignOptions &opts)
{
    BPSIM_ASSERT(opts.maxTrials >= 1, "campaign needs at least one trial");
    BPSIM_ASSERT(out.trials <= opts.maxTrials,
                 "resume boundary %llu beyond the %llu-trial budget",
                 static_cast<unsigned long long>(out.trials),
                 static_cast<unsigned long long>(opts.maxTrials));
    const auto t0 = std::chrono::steady_clock::now();
    obs::Registry *reg = publishTo(opts);
    const obs::ScopedTimer run_timer(reg ? &reg->timer("campaign.run")
                                         : nullptr);
    const std::uint64_t start = out.trials;
    out.planned = opts.maxTrials;
    out.seed = opts.seed;

    bool stopped = start > 0 && stopRuleHolds(opts, out);
    if (!stopped) {
        stopped = foldTrials(
            out, source, start, opts.maxTrials, opts.threads, opts.obs,
            [&](std::uint64_t id) {
                const bool more = !stopRuleHolds(opts, out);
                if (opts.progress && opts.progressEvery != 0 &&
                    (id + 1 == opts.maxTrials || !more ||
                     (id + 1) % opts.progressEvery == 0))
                    opts.progress({id + 1, opts.maxTrials, !more});
                return more;
            });
    }
    // A stop on the budget's last trial is masked: nothing was cut.
    out.stoppedEarly = stopped && out.trials < opts.maxTrials;
    finalizeCampaign(out, opts, t0, out.trials - start);
}

} // namespace

EarlyStopDecision
evaluateStopRule(const EarlyStopRule &rule, std::uint64_t n,
                 const ExactSum &sum, const ExactSum &sumSq)
{
    EarlyStopDecision out;
    if (!rule.enabled() || n == 0 || n < rule.minTrials)
        return out;
    const Moments m = momentsOf(n, sum, sumSq);
    const double hw =
        rule.ciZ * std::sqrt(m.variance / static_cast<double>(n));
    const double tol =
        std::max(rule.ciAbsTolMin, rule.ciRelTol * std::abs(m.mean));
    if (hw <= tol)
        out = {true, n, hw, m.mean};
    return out;
}

const std::array<std::pair<const char *, MergingMetric CampaignAggregate::*>,
                 5>
    CampaignAggregate::kMetrics = {{
        {"downtime_min", &CampaignAggregate::downtimeMin},
        {"losses_per_year", &CampaignAggregate::lossesPerYear},
        {"mean_perf", &CampaignAggregate::meanPerf},
        {"battery_kwh", &CampaignAggregate::batteryKwh},
        {"worst_gap_min", &CampaignAggregate::worstGapMin},
    }};

void
CampaignAggregate::fold(const AnnualResult &r)
{
    for (std::size_t m = 0; m < kMetrics.size(); ++m)
        (this->*kMetrics[m].second).add(observation(r, m));
    if (r.losses == 0)
        ++lossFreeTrials;
    ++trials;
}

void
CampaignAggregate::prepareChunk(std::vector<MetricChunk> &parts,
                                const AnnualResult *r, std::size_t n)
{
    parts.resize(kMetrics.size());
    std::vector<double> values(n);
    for (std::size_t m = 0; m < kMetrics.size(); ++m) {
        for (std::size_t i = 0; i < n; ++i)
            values[i] = observation(r[i], m);
        parts[m].prepare(values.data(), n,
                         kMetrics[m].second != &CampaignAggregate::downtimeMin);
    }
}

std::size_t
CampaignAggregate::foldChunk(const AnnualResult *r, std::size_t n,
                             const std::vector<MetricChunk> &parts,
                             const std::function<bool(std::size_t)> &after)
{
    // Per trial, only what `after` may read.
    std::size_t folded = 0;
    for (bool more = true; more && folded < n;) {
        const AnnualResult &t = r[folded++];
        downtimeMin.addSums(t.downtimeMin);
        if (t.losses == 0)
            ++lossFreeTrials;
        ++trials;
        more = after(folded - 1);
    }
    // A stop part-way folds the same permutations up to the stop.
    std::vector<double> values(folded);
    for (std::size_t m = 0; m < kMetrics.size(); ++m) {
        for (std::size_t i = 0; i < folded; ++i)
            values[i] = observation(r[i], m);
        (this->*kMetrics[m].second).foldChunk(values.data(), parts[m],
                                              folded);
    }
    return folded;
}

void
CampaignAggregate::merge(const CampaignAggregate &other)
{
    for (const auto &[name, field] : kMetrics)
        (this->*field).merge(other.*field);
    lossFreeTrials += other.lossFreeTrials;
    trials += other.trials;
}

TrialSource::TrialSource(const AnnualCampaignSpec &spec, std::uint64_t seed,
                         std::uint64_t batch)
    : seed_(seed)
{
    if (batch != 0) {
        batch_ = std::min<std::uint64_t>(batch, MetricChunk::kMaxLength);
        kernel_.emplace(spec.profile, spec.nServers, spec.technique,
                        spec.config);
        return;
    }
    trial_ = [spec, gen = OutageTraceGenerator::figure1(),
              sim = AnnualSimulator()](std::uint64_t, Rng &rng) {
        return sim.runYear(spec.profile, spec.nServers, spec.technique,
                           spec.config, gen.generate(rng, kYear));
    };
}

TrialSource::TrialSource(AnnualTrialFn trial, std::uint64_t seed)
    : seed_(seed), trial_(std::move(trial))
{
}

void
TrialSource::run(std::uint64_t lo, std::uint64_t hi, AnnualResult *out,
                 obs::TrialRecord *records) const
{
    if (kernel_) {
        kernel_->runBatch(seed_, lo, hi, out, records);
        return;
    }
    for (std::uint64_t id = lo; id < hi; ++id) {
        // Tag every event with the GLOBAL trial id: (trial, seq) is
        // the thread-count-invariant trace order.
        const obs::TrialScope trial_scope(
            id, records ? &records[id - lo] : nullptr);
        Rng rng = Rng::stream(seed_, id);
        out[id - lo] = trial_(id, rng);
    }
}

bool
foldTrials(CampaignAggregate &agg, const TrialSource &source,
           std::uint64_t lo, std::uint64_t hi, int threads,
           obs::Context *obs,
           const std::function<bool(std::uint64_t)> &after)
{
    /** One unit of pool work; records stay empty unless recording. */
    struct Chunk
    {
        std::vector<AnnualResult> results;
        std::vector<obs::TrialRecord> records;
        std::vector<obs::IncidentReport> forensics;
        std::vector<MetricChunk> parts;
    };
    const std::uint64_t batch = source.batch();
    const std::uint64_t chunks = (hi - lo + batch - 1) / batch;
    const std::function<Chunk(std::uint64_t)> body =
        [&](std::uint64_t chunk) {
            const std::uint64_t first = lo + chunk * batch;
            const std::uint64_t last = std::min(first + batch, hi);
            const auto n = static_cast<std::size_t>(last - first);
            Chunk c;
            c.results.resize(n);
            if (!obs) {
                source.run(first, last, c.results.data());
            } else {
                c.records.reserve(n);
                for (std::uint64_t id = first; id < last; ++id)
                    c.records.push_back(obs->open(id - lo));
                source.run(first, last, c.results.data(),
                           c.records.data());
                c.forensics.reserve(n);
                for (std::size_t i = 0; i < n; ++i) {
                    // Per-trial distribution metrics.
                    c.records[i].recordHistogram(
                        "campaign.trial_downtime_min",
                        c.results[i].downtimeMin);
                    c.records[i].recordHistogram(
                        "campaign.trial_worst_gap_min",
                        c.results[i].worstGapMin);
                    c.forensics.push_back(obs->reduce(c.records[i]));
                }
            }
            CampaignAggregate::prepareChunk(c.parts, c.results.data(), n);
            return c;
        };
    bool stopped = false;
    const std::function<bool(std::uint64_t, Chunk &&)> consume =
        [&](std::uint64_t chunk, Chunk &&c) {
            const std::uint64_t first = lo + chunk * batch;
            agg.foldChunk(c.results.data(), c.results.size(), c.parts,
                          [&](std::size_t i) {
                              if (obs)
                                  obs->fold(std::move(c.records[i]),
                                            c.forensics[i]);
                              stopped = !after(first + i);
                              return !stopped;
                          });
            return !stopped;
        };
    CampaignOptions copts;
    copts.threads = threads;
    runCampaign<Chunk>(chunks, body, consume, copts);
    return stopped;
}

AnnualCampaignSummary
runAnnualCampaign(const AnnualTrialFn &trial,
                  const AnnualCampaignOptions &opts)
{
    AnnualCampaignSummary out;
    runTrials(out, TrialSource(trial, opts.seed), opts);
    return out;
}

AnnualCampaignSummary
runAnnualCampaign(const AnnualCampaignSpec &spec,
                  const AnnualCampaignOptions &opts)
{
    return resumeAnnualCampaign(spec, opts, {});
}

AnnualCampaignSummary
resumeAnnualCampaign(const AnnualCampaignSpec &spec,
                     const AnnualCampaignOptions &opts,
                     const CampaignAggregate &from)
{
    AnnualCampaignSummary out;
    static_cast<CampaignAggregate &>(out) = from;
    runTrials(out, TrialSource(spec, opts.seed, opts.batch), opts);
    return out;
}

void
writeMetricJson(JsonWriter &w, const std::string &name,
                const MergingMetric &m)
{
    w.key(name).beginObject();
    w.field("count", m.count());
    w.field("mean", m.mean());
    w.field("stddev", m.stddev());
    w.field("min", m.min());
    w.field("max", m.max());
    w.field("p50", m.p50());
    w.field("p95", m.p95());
    w.field("p99", m.p99());
    w.endObject();
}

void
writeCampaignJson(std::ostream &os, const AnnualCampaignSummary &s,
                  const CampaignJsonOptions &opts)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("build", buildId());
    w.field("seed", s.seed);
    w.field("trials", s.trials);
    w.field("planned", s.planned);
    w.field("stopped_early", s.stoppedEarly);
    if (opts.includeTiming) {
        w.field("wall_seconds", s.wallSeconds);
        w.field("trials_per_sec", s.trialsPerSec);
    }
    for (const auto &[name, field] : CampaignAggregate::kMetrics)
        writeMetricJson(w, name, s.*field);
    w.key("loss_free").beginObject();
    w.field("trials", s.lossFreeTrials);
    w.field("fraction", s.lossFree.fraction);
    w.field("ci_lo", s.lossFree.lo);
    w.field("ci_hi", s.lossFree.hi);
    w.endObject();
    w.endObject();
    os << '\n';
}

void
writeCampaignCsv(std::ostream &os, const AnnualCampaignSummary &s)
{
    os << "metric,count,mean,stddev,min,max,p50,p95,p99\n";
    for (const auto &[name, field] : CampaignAggregate::kMetrics) {
        const MergingMetric &m = s.*field;
        os << name << ',' << m.count() << ',' << m.mean() << ','
           << m.stddev() << ',' << m.min() << ',' << m.max() << ','
           << m.p50() << ',' << m.p95() << ',' << m.p99() << '\n';
    }
    os << "loss_free_fraction," << s.trials << ',' << s.lossFree.fraction
       << ",,," << s.lossFree.lo << ',' << s.lossFree.hi << ",,\n";
}

} // namespace bpsim
