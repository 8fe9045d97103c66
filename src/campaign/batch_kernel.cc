#include "campaign/batch_kernel.hh"

#include <algorithm>

#include "obs/record.hh"
#include "power/power_hierarchy.hh"
#include "power/ups.hh"
#include "server/server_model.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace bpsim
{

namespace
{

constexpr Time kYear = 365LL * 24 * kHour;

/** Application::recomputeFraction default (mid-interval crash). */
constexpr double kRecomputeFraction = 0.5;

/** Cluster::aggregatePerf() fold: n equal per-app terms, then mean. */
double
meanOfN(double per_app, int n)
{
    double total = 0.0;
    for (int i = 0; i < n; ++i)
        total += per_app;
    return total / static_cast<double>(n);
}

/** Cluster::totalPowerW() fold: n equal per-server terms. */
Watts
sumOfN(Watts per_server, int n)
{
    Watts total = 0.0;
    for (int i = 0; i < n; ++i)
        total += per_server;
    return total;
}

} // namespace

BatchAnnualKernel::BatchAnnualKernel(const WorkloadProfile &profile,
                                     int n_servers,
                                     const TechniqueSpec &technique,
                                     const BackupConfigSpec &config)
    : profile_(profile), nServers_(n_servers), technique_(technique),
      config_(config), gen_(OutageTraceGenerator::figure1())
{
    BPSIM_ASSERT(n_servers >= 1, "kernel needs at least one server");
    const ServerModel model; // the scalar path's default SKU
    const Watts peak =
        model.params().peakPowerW * static_cast<double>(n_servers);
    const PowerHierarchy::Config hcfg = toHierarchyConfig(config, peak);

    const bool throttling = technique.kind == TechniqueKind::Throttle;
    // The fast path covers the shapes a campaign actually sweeps hot:
    // passive or throttled clusters behind utility + (optional) offline
    // UPS. A DG brings a ramp state machine, online UPS changes the
    // transfer gap, and peak shaving drains the string outside outages
    // — all of those fall back to the event-driven reference.
    eligible_ = (technique.kind == TechniqueKind::None || throttling) &&
                !hcfg.hasDg && hcfg.peakShaveThresholdW == 0.0 &&
                (!hcfg.hasUps ||
                 hcfg.ups.placement == Ups::Placement::Offline);

    hasUps_ = hcfg.hasUps;
    if (hasUps_) {
        const Ups ups(hcfg.ups);
        batParams_ = ups.battery().params();
        upsCapacityW_ = ups.params().powerCapacityW;
        gapTime_ = fromSeconds(std::min(hcfg.psuRideThroughSec,
                                        toSeconds(ups.transferDelay())));
    } else {
        gapTime_ = fromSeconds(hcfg.psuRideThroughSec);
    }

    // Perf levels and loads, folded exactly as Cluster aggregates them.
    const double u_full = profile.throttledPerf(model, 0, 0);
    const double u_out =
        throttling
            ? profile.throttledPerf(model, technique.pstate,
                                    technique.tstate)
            : u_full;
    qFull_ = meanOfN(u_full, n_servers);
    qThr_ = meanOfN(u_out, n_servers);
    qWarm_ = meanOfN(profile.warmupPerf * u_full, n_servers);
    // The standing technique engages at outage start, before the
    // ride-through gap ends, so the battery sees the throttled load.
    loadOut_ = sumOfN(
        model.activePowerW(throttling ? technique.pstate : 0,
                           throttling ? technique.tstate : 0, 1.0),
        n_servers);
    if (hasUps_) {
        canCarryOut_ = loadOut_ <= upsCapacityW_ * (1.0 + 1e-9);
        if (canCarryOut_)
            fullRuntimeOut_ =
                PeukertBattery::runtimeAtLoadFor(batParams_, loadOut_);
    }

    // Post-crash recovery pipeline (reboot -> process start ->
    // preload -> warm-up), as integer event offsets.
    dBoot_ = fromSeconds(model.params().bootTimeSec);
    dStart_ = fromSeconds(profile.processStartSec);
    hasPreload_ = profile.statePreloadSec > 0.0;
    dPreload_ = hasPreload_ ? fromSeconds(profile.statePreloadSec) : 0;
    hasWarmup_ = profile.warmupSec > 0.0;
    dWarmup_ = hasWarmup_ ? fromSeconds(profile.warmupSec) : 0;
    recoverySpan_ = dBoot_ + dStart_ + dPreload_ + dWarmup_;
    // Application::available() during warm-up: SLO-charged only for
    // latency-constrained services below 0.7.
    warmAvailable_ =
        profile.metric != PerfMetric::LatencyConstrainedThroughput ||
        profile.warmupPerf >= 0.7;

    // Application::noteHostState() recompute debt per crash.
    if (profile.recomputeMaxSec > 0.0) {
        double lost = profile.recomputeMinSec +
                      kRecomputeFraction * (profile.recomputeMaxSec -
                                            profile.recomputeMinSec);
        if (profile.checkpointIntervalSec > 0.0)
            lost = std::min(lost, kRecomputeFraction *
                                      profile.checkpointIntervalSec);
        lostPerCrashSec_ = lost;
    }
}

bool
BatchAnnualKernel::traceEligible(
    const std::vector<OutageEvent> &events) const
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        const OutageEvent &ev = events[i];
        if (ev.duration <= 0 || ev.end() > kYear)
            return false;
        if (i == 0) {
            if (ev.start <= 0)
                return false;
        } else if (ev.start - events[i - 1].end() <= recoverySpan_) {
            // An outage landing inside the previous recovery window
            // (or out of order) needs the full event-driven machinery.
            return false;
        }
    }
    return true;
}

void
BatchAnnualKernel::replayLane(const std::vector<OutageEvent> &events,
                              TrialLanes &ln, std::size_t l) const
{
    double &soc = ln.soc[l];
    double &battery_j = ln.batteryJ[l];
    double &perf_int = ln.perfIntegral[l];
    double &perf_val = ln.perfValue[l];
    Time &perf_since = ln.perfSince[l];
    double &avail_int = ln.availIntegral[l];
    double &avail_val = ln.availValue[l];
    Time &avail_since = ln.availSince[l];

    // Battery recharge anchor (the hierarchy's lastSync) and the
    // recovery milestones the next inter-outage recharge splits at:
    // each milestone event syncs the hierarchy, and min(1, soc + dt/T)
    // applied per segment is not the same float as one merged segment.
    Time anchor = 0;
    Time pending[4];
    int n_pending = 0;

    for (const OutageEvent &ev : events) {
        const Time t1 = ev.start;
        const Time tr = ev.start + ev.duration;

        if (hasUps_) {
            for (int i = 0; i < n_pending; ++i) {
                soc = PeukertBattery::rechargedSoc(batParams_, soc,
                                                   pending[i] - anchor);
                anchor = pending[i];
            }
            soc = PeukertBattery::rechargedSoc(batParams_, soc,
                                               t1 - anchor);
        }
        n_pending = 0;

        // Outage start: the standing technique throttles (a no-op
        // record for None) before the ride-through gap ends.
        stepRecord(perf_int, perf_val, perf_since, t1, qThr_);

        bool crashed = false;
        Time tc = 0;
        const Time tg = t1 + gapTime_;
        if (tg < tr) {
            // Ride-through ends mid-outage: the battery (if any)
            // must pick up the load. Ties go to the restore event,
            // which is scheduled first and cancels the gap timer.
            if (!hasUps_ || !canCarryOut_ || soc <= 0.0) {
                crashed = true;
                tc = tg;
            } else {
                const Time tte = PeukertBattery::timeToEmptyFrom(
                    soc, fullRuntimeOut_);
                const Time td = tg + tte;
                const Time stop = td < tr ? td : tr;
                soc = PeukertBattery::dischargedSoc(soc, stop - tg,
                                                    fullRuntimeOut_);
                battery_j += loadOut_ * toSeconds(stop - tg);
                if (td < tr) {
                    crashed = true;
                    tc = td;
                }
            }
        }

        if (crashed) {
            ++ln.losses[l];
            if (lostPerCrashSec_ > 0.0)
                ln.appExtraSec[l] += lostPerCrashSec_;
            stepRecord(perf_int, perf_val, perf_since, tc, 0.0);
            stepRecord(avail_int, avail_val, avail_since, tc, 0.0);

            const Time t_boot = tr + dBoot_;
            const Time t_start = t_boot + dStart_;
            const Time t_preload =
                hasPreload_ ? t_start + dPreload_ : t_start;
            const Time t_warm =
                hasWarmup_ ? t_preload + dWarmup_ : t_preload;
            const Time t_avail =
                hasWarmup_ ? (warmAvailable_ ? t_preload : t_warm)
                           : t_preload;

            ln.worstGap[l] = std::max(
                ln.worstGap[l], std::min(t_avail, kYear) - tc);
            if (hasWarmup_) {
                if (t_preload <= kYear)
                    stepRecord(perf_int, perf_val, perf_since,
                               t_preload, qWarm_);
                if (t_warm <= kYear)
                    stepRecord(perf_int, perf_val, perf_since, t_warm,
                               qFull_);
            } else if (t_preload <= kYear) {
                stepRecord(perf_int, perf_val, perf_since, t_preload,
                           qFull_);
            }
            if (t_avail <= kYear)
                stepRecord(avail_int, avail_val, avail_since, t_avail,
                           1.0);

            pending[n_pending++] = t_boot;
            pending[n_pending++] = t_start;
            if (hasPreload_)
                pending[n_pending++] = t_preload;
            if (hasWarmup_)
                pending[n_pending++] = t_warm;
        } else {
            // Restoration unthrottles (another no-op record for None).
            stepRecord(perf_int, perf_val, perf_since, tr, qFull_);
        }
        anchor = tr;
    }
}

AnnualResult
BatchAnnualKernel::laneResult(const TrialLanes &ln, std::size_t l,
                              int outages) const
{
    AnnualResult r;
    r.outages = outages;
    r.losses = static_cast<int>(ln.losses[l]);
    const double avail_int =
        stepFinish(ln.availIntegral[l], ln.availValue[l],
                   ln.availSince[l], kYear);
    const double perf_int = stepFinish(
        ln.perfIntegral[l], ln.perfValue[l], ln.perfSince[l], kYear);
    const double avail_avg = avail_int / toSeconds(kYear);
    // Cluster::extraDowntimeSec(): per-app fold, then mean.
    double extra = 0.0;
    for (int i = 0; i < nServers_; ++i)
        extra += ln.appExtraSec[l];
    extra /= static_cast<double>(nServers_);
    r.downtimeMin =
        (1.0 - avail_avg) * toMinutes(kYear) + extra / 60.0;
    r.meanPerf = perf_int / toSeconds(kYear);
    r.batteryKwh = joulesToKwh(ln.batteryJ[l]);
    r.worstGapMin = toMinutes(ln.worstGap[l]);
    return r;
}

AnnualResult
BatchAnnualKernel::runFastTrace(
    const std::vector<OutageEvent> &events) const
{
    BPSIM_ASSERT(eligible_ && traceEligible(events),
                 "trace outside the fast path envelope");
    TrialLanes lanes;
    lanes.assign(1, qFull_, 1.0);
    replayLane(events, lanes, 0);
    return laneResult(lanes, 0, static_cast<int>(events.size()));
}

void
BatchAnnualKernel::runBatch(std::uint64_t seed, std::uint64_t lo,
                            std::uint64_t hi, AnnualResult *out,
                            obs::TrialRecord *records) const
{
    BPSIM_ASSERT(hi >= lo, "bad batch range");
    const std::size_t n = static_cast<std::size_t>(hi - lo);

    // Stage 1: draw every lane's trace. Rng::stream(seed, trial) makes
    // each stream a pure function of the global trial id, so the batch
    // partition cannot change any lane's randomness.
    std::vector<std::vector<OutageEvent>> traces(n);
    for (std::size_t i = 0; i < n; ++i) {
        Rng rng = Rng::stream(seed, lo + i);
        traces[i] = gen_.generate(rng, kYear);
    }

    // Stage 2: split lanes. Tracing hooks inside the event loop (SoC
    // deciles, outage spans, trial-end markers) only exist on the
    // scalar path, so a recording batch must take it wholesale.
    const bool fast = eligible_ && records == nullptr;
    std::vector<std::size_t> fast_lanes;
    fast_lanes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (fast && traceEligible(traces[i])) {
            fast_lanes.push_back(i);
        } else {
            const obs::TrialScope scope(lo + i,
                                        records ? &records[i] : nullptr);
            out[i] = scalar_.runYear(profile_, nServers_, technique_,
                                     config_, traces[i]);
        }
    }

    // Stage 3: advance the fast lanes through SoA state.
    TrialLanes lanes;
    lanes.assign(fast_lanes.size(), qFull_, 1.0);
    for (std::size_t k = 0; k < fast_lanes.size(); ++k)
        replayLane(traces[fast_lanes[k]], lanes, k);
    for (std::size_t k = 0; k < fast_lanes.size(); ++k) {
        const std::size_t i = fast_lanes[k];
        out[i] = laneResult(
            lanes, k, static_cast<int>(traces[i].size()));
    }
}

} // namespace bpsim
