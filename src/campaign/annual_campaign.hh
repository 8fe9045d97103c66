/**
 * @file
 * Year-scale Monte Carlo campaigns: fan independent simulated years
 * (scenario × per-trial seed) across the work-stealing pool and fold
 * them, in trial order, into one campaign aggregate (ExactSum moments
 * and t-digest quantiles per metric, Wilson interval on the
 * loss-free-year fraction), with an optional confidence-interval
 * early-stop rule, progress callbacks, and JSON/CSV export.
 *
 * The trial/seed model: trial t draws its randomness from
 * `Rng::stream(seed, t)` — a pure function of (campaign seed, trial
 * id) — and builds its own Simulator/PowerHierarchy/Cluster, so no
 * mutable state crosses threads and the aggregated results are
 * bit-identical for any thread count (see docs/CAMPAIGN.md).
 *
 * One aggregate, one driver: single-process campaigns, resumed
 * campaigns (campaign/checkpoint.hh) and shards (campaign/shard.hh)
 * all fold trials through foldTrials() into a CampaignAggregate.
 */

#ifndef BPSIM_CAMPAIGN_ANNUAL_CAMPAIGN_HH
#define BPSIM_CAMPAIGN_ANNUAL_CAMPAIGN_HH

#include <array>
#include <functional>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "campaign/batch_kernel.hh"
#include "campaign/online_stats.hh"
#include "campaign/runner.hh"
#include "core/annual.hh"

namespace bpsim
{

namespace obs
{
class Context;
struct TrialRecord;
} // namespace obs

/** The scenario one annual campaign holds fixed across its trials. */
struct AnnualCampaignSpec
{
    WorkloadProfile profile;
    int nServers = 8;
    TechniqueSpec technique;
    BackupConfigSpec config;
};

/**
 * The campaign early-stop rule: after at least minTrials, stop once
 * the normal-approximation CI half-width of E[downtime min/yr] is
 * <= max(ciAbsTolMin, ciRelTol * |mean|). Disabled while both
 * tolerances are 0.
 */
struct EarlyStopRule
{
    std::uint64_t minTrials = 64;
    double ciRelTol = 0.0;
    double ciAbsTolMin = 0.0;
    double ciZ = 1.96;

    bool
    enabled() const
    {
        return ciRelTol > 0.0 || ciAbsTolMin > 0.0;
    }
};

/** Where (and whether) the stop rule fired. */
struct EarlyStopDecision
{
    /** True when the rule held. */
    bool fired = false;
    /** Trials a coordinator would have kept (prefix length). */
    std::uint64_t stopTrial = 0;
    /** CI half-width and mean at the stop point. */
    double halfWidth = 0.0;
    double mean = 0.0;
};

/**
 * The one stop-rule function: evaluate @p rule on a prefix of @p n
 * trials whose downtime sums are @p sum and @p sumSq. Returns an
 * all-zero decision unless the rule is enabled, n >= minTrials and
 * the half-width is within tolerance. The live campaign, resume's
 * boundary check and the shard coordinator's replay all call it, so
 * they agree bit for bit.
 */
EarlyStopDecision evaluateStopRule(const EarlyStopRule &rule,
                                   std::uint64_t n, const ExactSum &sum,
                                   const ExactSum &sumSq);

/**
 * Campaign sizing, seeding, and early-stop knobs. The early-stop
 * fields come from EarlyStopRule; the rule is evaluated on the
 * in-order trial prefix, so the stopping point is identical for every
 * thread count.
 */
struct AnnualCampaignOptions : EarlyStopRule
{
    /** Trial budget (upper bound when early stop is enabled). */
    std::uint64_t maxTrials = 200;
    /** Campaign seed; trial t uses Rng::stream(seed, t). */
    std::uint64_t seed = 1;
    /** Worker threads (0 = shared hardware-sized pool). */
    int threads = 0;

    /** Progress callback cadence in trials (0 = no callbacks). */
    std::uint64_t progressEvery = 0;
    std::function<void(const CampaignProgress &)> progress;

    /**
     * Trials per batched-kernel lane batch (0 = scalar per-trial
     * path). Any nonzero batch routes scenario campaigns through
     * campaign/batch_kernel; results are bit-identical to the scalar
     * path for every batch size and thread count, so this is purely a
     * throughput knob. Ignored by the custom-trial-body overload.
     */
    std::uint64_t batch = 0;

    /**
     * Record this campaign's trials into this context (null = record
     * nothing). Recording trials run scalar, one TrialScope each. The
     * context's registry, if set, also receives the campaign.trials,
     * campaign.trials_per_sec and campaign.run metrics.
     */
    obs::Context *obs = nullptr;
};

/**
 * The aggregate of a contiguous run of trials, folded in trial order:
 * the one type behind campaign summaries, shard files and checkpoints.
 */
struct CampaignAggregate
{
    /** Trials folded. */
    std::uint64_t trials = 0;

    /** @name Per-metric aggregates (in trial order) */
    ///@{
    MergingMetric downtimeMin;
    MergingMetric lossesPerYear;
    MergingMetric meanPerf;
    MergingMetric batteryKwh;
    MergingMetric worstGapMin;
    ///@}

    /** Years with zero abrupt power-loss events. */
    std::uint64_t lossFreeTrials = 0;

    /** Fold one trial in (the next in trial order). */
    void fold(const AnnualResult &r);

    /**
     * @name Chunk fold
     * fold() for a chunk of consecutive trials, with the same state,
     * split so that the in-order part only merges. prepareChunk does
     * each metric's sorting and summing (on a pool worker, while it
     * still holds the chunk); foldChunk then merges the result in.
     */
    ///@{
    /** Each metric's flush schedule from here on, in kMetrics order. */
    using Schedules = std::array<FlushSchedule, 5>;
    Schedules flushSchedules() const;

    /**
     * Prepare @p parts for trials r[0, n), which fold @p offset trials
     * after the point where @p at was taken (n <= MetricChunk::kMaxLength).
     * downtimeMin's chunk carries no sums: foldChunk adds them per trial.
     */
    static void prepareChunk(std::vector<MetricChunk> &parts,
                             const AnnualResult *r, std::size_t n,
                             const Schedules &at, std::uint64_t offset);

    /**
     * Fold trials r[0, n), prepared into @p parts, calling @p after(i)
     * once trial i is folded. At that point only `trials`,
     * `lossFreeTrials` and downtimeMin's sum() and sumSq() are up to
     * date; everything else catches up when the chunk ends. Returning
     * false stops the fold after trial i: the prefix r[0, i] stays
     * folded, as if by fold(). Returns the number of trials folded.
     */
    std::size_t foldChunk(const AnnualResult *r, std::size_t n,
                          const std::vector<MetricChunk> &parts,
                          const std::function<bool(std::size_t)> &after);
    ///@}

    /** Fold the aggregate of the trials that follow this one's. */
    void merge(const CampaignAggregate &other);

    /** The five metrics by export name, in export order. */
    static const std::array<std::pair<const char *,
                                      MergingMetric CampaignAggregate::*>,
                            5>
        kMetrics;
};

/** Aggregates of one annual campaign. */
struct AnnualCampaignSummary : CampaignAggregate
{
    /** Trial budget the campaign was launched with. */
    std::uint64_t planned = 0;
    /** Campaign seed (provenance: trial t used Rng::stream(seed, t)). */
    std::uint64_t seed = 0;
    /** True when the CI rule stopped the campaign early. */
    bool stoppedEarly = false;

    /** Loss-free fraction with its Wilson interval. */
    BinomialCi lossFree;

    /** @name Wall-clock throughput (not part of the deterministic state) */
    ///@{
    double wallSeconds = 0.0;
    double trialsPerSec = 0.0;
    ///@}
};

/**
 * A custom trial body: simulate year @p trial_id using only @p rng
 * for randomness and return its result. Must not touch shared
 * mutable state.
 */
using AnnualTrialFn =
    std::function<AnnualResult(std::uint64_t trial_id, Rng &rng)>;

/**
 * Where a campaign's trial results come from: the batched kernel, in
 * lane batches, or a per-trial body, one trial at a time. Either way
 * trial t is a pure function of (seed, t).
 */
class TrialSource
{
  public:
    /**
     * The standard scenario: each trial draws a Figure 1 outage trace
     * for one year and runs it against the spec's cluster, backup
     * configuration and standing technique — through the batched
     * kernel in batches of @p batch trials, or runYear when 0.
     */
    TrialSource(const AnnualCampaignSpec &spec, std::uint64_t seed,
                std::uint64_t batch);

    /** A custom per-trial body. */
    TrialSource(AnnualTrialFn trial, std::uint64_t seed);

    /** Trials per unit of pool work. */
    std::uint64_t batch() const { return batch_; }

    /**
     * Results of trials [lo, hi) into out[0 .. hi-lo). When
     * @p records is non-null, trial lo+i records into records[i].
     */
    void run(std::uint64_t lo, std::uint64_t hi, AnnualResult *out,
             obs::TrialRecord *records = nullptr) const;

  private:
    std::uint64_t seed_;
    std::uint64_t batch_ = 1;
    std::optional<BatchAnnualKernel> kernel_;
    AnnualTrialFn trial_;
};

/**
 * The one in-order driver: fold trials [lo, hi) of @p source into
 * @p agg, strictly in trial-id order, on @p threads workers (0 = the
 * shared pool). When @p obs is non-null every trial records, and its
 * record folds into @p obs right beside its result. After each trial,
 * @p after(id) runs with the global trial id; returning false stops
 * the fold there. Returns true when @p after stopped it.
 *
 * A batched source's chunks fold through CampaignAggregate::foldChunk,
 * so @p after may read only what foldChunk keeps current per trial:
 * agg.trials, agg.lossFreeTrials and agg.downtimeMin's sum() and
 * sumSq(). Those are what its two callers read: the stop rule and the
 * shard checkpoints. The whole aggregate is current once foldTrials
 * returns.
 */
bool foldTrials(CampaignAggregate &agg, const TrialSource &source,
                std::uint64_t lo, std::uint64_t hi, int threads,
                obs::Context *obs,
                const std::function<bool(std::uint64_t)> &after);

/** Run a campaign with a custom per-trial body. */
AnnualCampaignSummary runAnnualCampaign(const AnnualTrialFn &trial,
                                        const AnnualCampaignOptions &opts);

/** Run the standard scenario campaign (see TrialSource). */
AnnualCampaignSummary runAnnualCampaign(const AnnualCampaignSpec &spec,
                                        const AnnualCampaignOptions &opts);

/**
 * Continue the standard scenario campaign from @p from, the aggregate
 * of its trials [0, from.trials), through trials
 * [from.trials, opts.maxTrials). An empty @p from is a fresh run.
 *
 * Each trial is a pure function of (seed, trial id) and aggregation is
 * strictly in trial order, so the summary — including the early-stop
 * trajectory — is bit-identical to a fresh opts.maxTrials-trial run
 * with the same (spec, seed, stop rule), for any batch size and thread
 * count on either side of the boundary.
 *
 * The stop rule is first re-evaluated on @p from itself: a run that
 * stopped early, or whose budget was exactly its stopping point (the
 * stop is masked there), holds the rule at its last trial, and a
 * fresh longer run would stop right there. Then no trials run.
 */
AnnualCampaignSummary resumeAnnualCampaign(const AnnualCampaignSpec &spec,
                                           const AnnualCampaignOptions &opts,
                                           const CampaignAggregate &from);

/** Export knobs for writeCampaignJson(). */
struct CampaignJsonOptions
{
    /**
     * Emit the wall-clock fields (wall_seconds, trials_per_sec).
     * Disable for deterministic exports: without them the document is
     * a pure function of (spec, seed, trial count, buildId), which is
     * what lets the what-if server cache responses and still promise
     * byte-identical replies across runs (see docs/SERVICE.md).
     */
    bool includeTiming = true;
};

/** JSON export (one object; campaign + per-metric stats). */
void writeCampaignJson(std::ostream &os, const AnnualCampaignSummary &s,
                       const CampaignJsonOptions &opts = {});

/** CSV export: one `metric,count,mean,...` row per metric. */
void writeCampaignCsv(std::ostream &os, const AnnualCampaignSummary &s);

/**
 * Emit one metric's readout (count, mean, stddev, min, max, p50, p95,
 * p99) as a JSON object member. Shared by the campaign and merged
 * exports and the bench files.
 */
class JsonWriter;
void writeMetricJson(JsonWriter &w, const std::string &name,
                     const MergingMetric &m);

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_ANNUAL_CAMPAIGN_HH
