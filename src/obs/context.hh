/**
 * @file
 * The per-campaign observation context.
 *
 * A campaign that should be observed carries one obs::Context (the
 * `obs` pointer in AnnualCampaignOptions / ShardOptions). The campaign
 * driver opens one TrialRecord per trial (open()), runs the trial
 * inside a TrialScope on that record, reduces the record's events to
 * the trial's incident forensics on the worker (reduce()), and hands
 * the record to fold() in trial order, right beside the aggregate
 * fold. A speculative trial past an early stop is never folded, so it
 * leaves no trace in the context either.
 *
 * Everything a Context holds therefore depends on its campaign alone —
 * not on other campaigns, server requests or threads in the process —
 * and is bit-identical for any thread count. When the owner sets
 * `registry`, fold() also adds each trial's counter increments and
 * histogram values to it, and the campaign publishes its campaign.*
 * totals there, so a server's /metrics or a CLI's --metrics snapshot
 * advances; nothing reads evidence back from the registry. With no
 * registry the campaign publishes nothing.
 *
 * A Context observes one campaign run; use a fresh one per run.
 */

#ifndef BPSIM_OBS_CONTEXT_HH
#define BPSIM_OBS_CONTEXT_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.hh"
#include "obs/incident.hh"
#include "obs/record.hh"
#include "obs/registry.hh"

namespace bpsim
{
namespace obs
{

/**
 * Observability activity of some trials: counter increments,
 * histogram bucket counts and the incident forensics rollup. All three
 * merge exactly, bit-identical for any partition or merge order, and
 * all three are empty — and omitted from shard files — when nothing
 * was recorded.
 */
struct ObsDeltas
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramSnapshot> histograms;
    IncidentAggregate incidents;

    /** Add @p other's deltas (key-wise, bucket-wise, exactly). */
    void merge(const ObsDeltas &other);
};

/** The recorder of one campaign run. */
class Context
{
  public:
    /** Simulated time between signal samples (0 = sample nothing). */
    Time sampleCadence = 0;
    /**
     * The sample window: how many trials sample signals, counted from
     * the first trial the run executes (a resumed campaign's window
     * starts at its resume point).
     */
    std::uint64_t sampleTrials = std::numeric_limits<std::uint64_t>::max();
    /** Retain every folded trial's events (for trace exports); when
     *  false only their incident forensics survive the worker. */
    bool keepEvents = false;
    /** Where folded trials and the campaign's own totals are
     *  published (not owned); null publishes nothing. */
    Registry *registry = nullptr;

    /** A fresh record for the trial @p offset trials into the run. */
    TrialRecord open(std::uint64_t offset) const;

    /**
     * Worker side: reduce @p record's events to its trial's incident
     * forensics, dropping the events unless keepEvents.
     */
    IncidentReport reduce(TrialRecord &record) const;

    /** Consumer side: fold the next trial, in trial order. */
    void fold(TrialRecord &&folded, const IncidentReport &forensics);

    /** Counter, histogram and incident deltas of the folded trials. */
    const ObsDeltas &deltas() const { return deltas_; }
    /** Largest |per-trial incident attribution residual| (minutes). */
    double maxResidualMin() const { return maxResidualMin_; }
    /** Retained events, in (trial, seq) order (keepEvents only). */
    const std::vector<TraceEvent> &events() const { return events_; }
    /** A copy of the retained samples, in (trial, signal, t) order. */
    std::vector<SignalSample> samples() const;

  private:
    ObsDeltas deltas_;
    double maxResidualMin_ = 0.0;
    std::vector<TraceEvent> events_;
    /** Each sampled trial's rows, in trial order. */
    std::vector<std::vector<SignalSample>> sampleBlocks_;
};

} // namespace obs
} // namespace bpsim

#endif // BPSIM_OBS_CONTEXT_HH
