/**
 * @file
 * Batched annual-trial kernel.
 *
 * The scalar AnnualSimulator spins up a full discrete-event world per
 * trial (~2k events/year); under a campaign that is the hot path. For
 * the common campaign shapes — no diesel generator, None/Throttle
 * standing technique, offline UPS, no trial recording — a simulated
 * year reduces to a short closed-form episode replay per outage:
 * ride-through gap, Peukert discharge, recharge split at the recovery
 * milestones, and piecewise-constant perf/availability series. The
 * kernel replays exactly the floating-point operations the event-driven
 * path performs, in the same order (sharing the battery state math via
 * PeukertBattery's pure static helpers and Timeline's skip rules via
 * sim/soa.hh), so its AnnualResults are bit-identical — which makes
 * every downstream aggregate, shard file, and service response
 * byte-identical too.
 *
 * Anything outside the fast path's envelope — DG configs, other
 * techniques, online UPS placement, a recording campaign, or a trace
 * whose outages overlap a recovery window — falls back to the scalar
 * simulator lane by lane, preserving bit-exactness trivially. The
 * scalar path stays the reference; the kernel is an optimization that
 * must prove itself against it (tests/campaign/batch_equivalence_test).
 */

#ifndef BPSIM_CAMPAIGN_BATCH_KERNEL_HH
#define BPSIM_CAMPAIGN_BATCH_KERNEL_HH

#include <cstdint>
#include <vector>

#include "core/annual.hh"
#include "core/backup_config.hh"
#include "outage/trace.hh"
#include "power/battery.hh"
#include "sim/soa.hh"
#include "technique/catalog.hh"
#include "workload/profile.hh"

namespace bpsim
{

namespace obs
{
struct TrialRecord;
} // namespace obs

/**
 * One campaign scenario compiled for batched execution. Construction
 * resolves every per-trial constant (loads, perf levels, ride-through
 * gap, battery parameters, recovery milestones) through the same model
 * objects the scalar path uses; runBatch() then advances whole lane
 * batches through struct-of-arrays state.
 */
class BatchAnnualKernel
{
  public:
    BatchAnnualKernel(const WorkloadProfile &profile, int n_servers,
                      const TechniqueSpec &technique,
                      const BackupConfigSpec &config);

    /**
     * True when the scenario shape is inside the fast path's envelope.
     * Individual lanes can still fall back (trace shape, recording);
     * false means every lane uses the scalar simulator.
     */
    bool fastPathEligible() const { return eligible_; }

    /**
     * True when @p events can be replayed closed-form: every outage
     * starts after t = 0, and consecutive outages leave more than a
     * full recovery window between them (boot + process start +
     * preload + warm-up), so no outage ever lands mid-recovery.
     */
    bool traceEligible(const std::vector<OutageEvent> &events) const;

    /**
     * Simulate campaign trials [lo, hi): trial t draws its trace from
     * Rng::stream(seed, t) and out[t - lo] receives its AnnualResult,
     * bit-identical to the scalar path for every trial. When
     * @p records is non-null every lane runs scalar, trial t recording
     * into records[t - lo].
     */
    void runBatch(std::uint64_t seed, std::uint64_t lo, std::uint64_t hi,
                  AnnualResult *out,
                  obs::TrialRecord *records = nullptr) const;

    /**
     * Replay one eligible trace closed-form (fast lane only; callers
     * must check fastPathEligible() and traceEligible()). Exposed for
     * the differential tests and the microbench.
     */
    AnnualResult runFastTrace(const std::vector<OutageEvent> &events) const;

  private:
    void replayLane(const std::vector<OutageEvent> &events, TrialLanes &ln,
                    std::size_t l) const;
    AnnualResult laneResult(const TrialLanes &ln, std::size_t l,
                            int outages) const;

    WorkloadProfile profile_;
    int nServers_;
    TechniqueSpec technique_;
    BackupConfigSpec config_;
    OutageTraceGenerator gen_;
    AnnualSimulator scalar_;

    bool eligible_ = false;

    /** @name Resolved scenario constants (see batch_kernel.cc) */
    ///@{
    bool hasUps_ = false;
    PeukertBattery::Params batParams_;
    Watts upsCapacityW_ = 0.0;
    Time gapTime_ = 0;
    Watts loadOut_ = 0.0;
    bool canCarryOut_ = false;
    Time fullRuntimeOut_ = 0;
    double qFull_ = 0.0;
    double qThr_ = 0.0;
    double qWarm_ = 0.0;
    Time dBoot_ = 0;
    Time dStart_ = 0;
    Time dPreload_ = 0;
    Time dWarmup_ = 0;
    bool hasPreload_ = false;
    bool hasWarmup_ = false;
    Time recoverySpan_ = 0;
    bool warmAvailable_ = false;
    double lostPerCrashSec_ = 0.0;
    ///@}
};

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_BATCH_KERNEL_HH
