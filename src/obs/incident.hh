/**
 * @file
 * Outage forensics stage 1: fold a recorded, (trial, seq)-ordered trace
 * into per-incident records that attribute every second of
 * unavailability to a root cause.
 *
 * An *incident* is one grid-outage episode — everything between an
 * OutageStart and the matching OutageEnd, plus the recovery tail that
 * follows restoration (reboots, NVDIMM restores, recompute debt) up
 * to the next outage or the end of the trial. The causal incident id
 * stamped on every TraceEvent by obs::beginIncident() threads UPS
 * discharge, DG start attempts, technique phases and restoration into
 * one record.
 *
 * Attribution replays the availability step function the cluster
 * traced (EventKind::Availability) and integrates (1 - availability)
 * over time, bucketing each interval by why the service was degraded:
 *
 *   - ups-exhausted-before-dg  power fully lost because the battery
 *                              (or fuel) ran dry while a DG start was
 *                              still in flight;
 *   - dg-start-failure         power fully lost after a DG start
 *                              attempt failed outright (empty tank);
 *   - capacity-shortfall       power fully lost with no DG in play —
 *                              the backup path simply cannot carry
 *                              the load long enough;
 *   - technique-transition-gap degraded-but-powered time inside an
 *                              incident window: Table 4 phase
 *                              transitions, sleep/hibernate dips,
 *                              post-restoration reboots, recompute
 *                              debt;
 *   - unattributed             degraded time outside any incident
 *                              window (should be ~0; a nonzero value
 *                              is itself a finding).
 *
 * Determinism contract: the engine is a pure function of the sorted
 * event vector, and the mergeable IncidentAggregate accumulates
 * minutes in ExactSum superaccumulators — so merged attribution
 * totals are bit-identical for any worker thread count and any shard
 * partition (pinned by tests/obs/fixtures/incidents_v1.json).
 */

#ifndef BPSIM_OBS_INCIDENT_HH
#define BPSIM_OBS_INCIDENT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "campaign/exact_sum.hh"
#include "obs/trace.hh"

namespace bpsim
{

class JsonWriter;
class JsonValue;

namespace obs
{

/** Why a stretch of unavailability happened. */
enum class RootCause : std::uint8_t
{
    /** Battery/fuel ran out while a DG start was still in flight. */
    UpsExhaustedBeforeDg,
    /** A DG start attempt failed outright (empty tank). */
    DgStartFailure,
    /** Degraded-but-powered time inside an incident window. */
    TechniqueTransitionGap,
    /** Full power loss with no DG in play: backup cannot carry. */
    CapacityShortfall,
    /** Degraded time outside any incident window. */
    Unattributed,
};

/** Number of RootCause enumerators (Unattributed is last). */
constexpr std::size_t kRootCauseCount =
    static_cast<std::size_t>(RootCause::Unattributed) + 1;

/** Stable lowercase identifier ("ups-exhausted-before-dg", ...). */
const char *rootCauseName(RootCause cause);

/** Minutes of unavailability bucketed by root cause. */
using CauseMinutes = std::array<double, kRootCauseCount>;

/** One reconstructed grid-outage episode. */
struct Incident
{
    /** Campaign trial the incident belongs to. */
    std::uint64_t trial = 0;
    /** 1-based per-trial causal id (TraceEvent::incident). */
    std::uint32_t id = 0;
    /** Utility failure time (simulated microseconds). */
    Time outageStart = 0;
    /** Utility restoration time; kTimeNever when never restored. */
    Time outageEnd = kTimeNever;
    /** End of the attribution window: the next outage's start, the
     *  trial horizon, or the last event seen. */
    Time windowEnd = 0;
    /** True when the trial ended before the utility came back. */
    bool truncated = false;
    /** IT load at outage start (watts). */
    double loadW = 0.0;
    /** The UPS battery carried load at some point. */
    bool upsDischarged = false;
    /** A backup source ran dry while needed. */
    bool backupDepleted = false;
    /** DG start attempts / outright start failures. */
    std::uint32_t dgStarts = 0;
    std::uint32_t dgStartFailures = 0;
    /** The DG ended up carrying the load. */
    bool dgCarried = false;
    /** Abrupt full power losses within the episode. */
    std::uint32_t powerLosses = 0;
    /** First full power loss (kTimeNever when power never dropped). */
    Time firstPowerLostAt = kTimeNever;
    /** Total fully-dark time inside the window (microseconds). */
    Time darkTime = 0;
    /** Attributed unavailability inside this window, by cause. */
    CauseMinutes attributedMin{};

    /** Sum of attributedMin in fixed enum order. */
    double downtimeMin() const;
    /** The cause with the largest bucket (Unattributed when clean). */
    RootCause primaryCause() const;
};

/** Per-trial attribution rollup (the "sums exactly" unit). */
struct TrialForensics
{
    std::uint64_t trial = 0;
    /** Downtime reported by the simulator via TrialEnd (min/yr). */
    double reportedDowntimeMin = 0.0;
    /** A TrialEnd event was present (fixes the horizon at the trial
     *  length; otherwise the last event's time is used). */
    bool hasTrialEnd = false;
    /** Incidents reconstructed in this trial. */
    std::uint32_t incidents = 0;
    /** Attributed unavailability by cause (whole trial). */
    CauseMinutes attributedMin{};

    /** Total attributed minutes: Σ attributedMin in enum order. By
     *  construction the per-cause buckets sum *exactly* to this. */
    double attributedTotalMin() const;
    /** reportedDowntimeMin - attributedTotalMin (diagnostic; tiny
     *  float noise from the simulator's different summation order). */
    double residualMin() const;
};

/**
 * Mergeable per-shard attribution aggregate. Rides campaign shard
 * files like counters/histograms do (an "incidents" object, omitted
 * when empty so uninstrumented shard files keep the exact schema-v1
 * bytes). All minute totals accumulate in ExactSum, so merging is
 * exact, commutative and associative: any shard partition and any
 * merge order produces bit-identical JSON.
 */
class IncidentAggregate
{
  public:
    /** Fold one reconstructed incident in. */
    void addIncident(const Incident &inc);

    /** Fold one trial's rollup in. */
    void addTrial(const TrialForensics &t);

    /** Fold another shard's aggregate in (exact; commutative). */
    void merge(const IncidentAggregate &other);

    /** True when nothing has been recorded (the omit-from-JSON gate). */
    bool empty() const;

    /** @name Totals */
    ///@{
    std::uint64_t trials() const { return trials_; }
    std::uint64_t incidents() const { return incidents_; }
    std::uint64_t truncatedIncidents() const { return truncated_; }
    /** Incidents that saw at least one full power loss. */
    std::uint64_t lossIncidents() const { return lossIncidents_; }
    /** Incidents whose largest bucket is @p cause. */
    std::uint64_t incidentsByPrimaryCause(RootCause cause) const;
    /** Attributed minutes for @p cause across all trials. */
    double attributedMin(RootCause cause) const;
    /** Σ attributedMin over every cause (exact). */
    double attributedTotalMin() const;
    /** Σ simulator-reported downtime over trials with a TrialEnd. */
    double reportedMin() const { return reported_.value(); }
    ///@}

    /** Emit as a JSON object in value position. */
    void writeJson(JsonWriter &w) const;

    /** Rebuild from writeJson output (asserts on malformed input). */
    static IncidentAggregate fromJson(const JsonValue &v);

  private:
    std::uint64_t trials_ = 0;
    std::uint64_t incidents_ = 0;
    std::uint64_t truncated_ = 0;
    std::uint64_t lossIncidents_ = 0;
    std::array<std::uint64_t, kRootCauseCount> byPrimary_{};
    std::array<ExactSum, kRootCauseCount> minutes_{};
    ExactSum reported_;
};

/** Everything the engine reconstructs from one recorded trace. */
struct IncidentReport
{
    /** Every incident, ordered (trial, id). */
    std::vector<Incident> incidents;
    /** Per-trial rollups, ordered by trial (trials that emitted any
     *  event appear; quiet trials with no events do not). */
    std::vector<TrialForensics> trials;
    /** Mergeable rollup of the above. */
    IncidentAggregate aggregate;
};

/**
 * Reconstruct incidents from @p events, which must be sorted by
 * (trial, seq) — the order a TrialRecord and obs::Context hold. Pure
 * function: same events, same report, bit for bit.
 */
IncidentReport buildIncidentReport(const std::vector<TraceEvent> &events);

} // namespace obs
} // namespace bpsim

#endif // BPSIM_OBS_INCIDENT_HH
