#include "core/annual.hh"

#include <functional>

#include "obs/obs.hh"
#include "power/utility.hh"
#include "sim/logging.hh"
#include "workload/cluster.hh"

namespace bpsim
{

namespace
{

constexpr Time kYear = 365LL * 24 * kHour;

} // namespace

AnnualResult
AnnualSimulator::runYear(const WorkloadProfile &profile, int n_servers,
                         const TechniqueSpec &technique,
                         const BackupConfigSpec &config,
                         const std::vector<OutageEvent> &events) const
{
    Simulator sim;
    Utility utility(sim);
    const ServerModel model;
    const Watts peak =
        model.params().peakPowerW * static_cast<double>(n_servers);
    PowerHierarchy hierarchy(sim, utility, toHierarchyConfig(config, peak));
    Cluster cluster(sim, hierarchy, model, profile, n_servers);
    auto tech = makeTechnique(technique);
    tech->attach(sim, cluster, hierarchy);
    cluster.primeSteadyState();

    for (const auto &ev : events) {
        BPSIM_ASSERT(ev.end() <= kYear, "outage beyond the year");
        utility.scheduleOutage(ev.start, ev.duration);
    }

#if BPSIM_OBS_ENABLED
    // Time-series sampler: an ordinary self-rescheduling event on the
    // sim-time cadence grid (Stats priority, so the state at each
    // instant has settled). Purely read-only — enabling sampling
    // never perturbs simulation results — and keyed to simulated
    // time, so the sample stream is deterministic by construction.
    std::function<void()> sampler;
    const Time cadence = obs::sampleCadence();
    if (BPSIM_OBS_ON() && cadence > 0) {
        // One allocation for the whole year's rows.
        const auto ticks = static_cast<std::size_t>(kYear / cadence + 1);
        obs::TrialRecord &record = *obs::activeRecord();
        record.samples.reserve(record.samples.size() +
                               obs::kSignalCount * ticks);
        sampler = [&sampler, &sim, &hierarchy, &cluster, &tech,
                   cadence] {
            using obs::SignalId;
            using obs::TimeSeriesSink;
            const Time now = sim.now();
            TimeSeriesSink::emit(SignalId::LoadW, now,
                                 hierarchy.load());
            TimeSeriesSink::emit(SignalId::UtilityW, now,
                                 hierarchy.utilityShareW());
            TimeSeriesSink::emit(SignalId::BatteryW, now,
                                 hierarchy.batteryShareW());
            TimeSeriesSink::emit(SignalId::DgW, now,
                                 hierarchy.dgShareW());
            TimeSeriesSink::emit(SignalId::BatterySoc, now,
                                 hierarchy.batterySoc());
            TimeSeriesSink::emit(
                SignalId::ServersActive, now,
                static_cast<double>(cluster.activeServers()));
            TimeSeriesSink::emit(
                SignalId::TechPhase, now,
                static_cast<double>(tech->currentPhase()));
            TimeSeriesSink::emit(SignalId::ClusterPowerW, now,
                                 cluster.totalPowerW());
            TimeSeriesSink::emit(
                SignalId::QueueDepth, now,
                static_cast<double>(sim.queueDepth()));
            if (now + cadence <= kYear)
                sim.schedule(cadence, [&sampler] { sampler(); },
                             "obs-sample", EventPriority::Stats);
        };
        sim.at(0, [&sampler] { sampler(); }, "obs-sample",
               EventPriority::Stats);
    }
#endif

    sim.runUntil(kYear);

    AnnualResult r;
    r.outages = static_cast<int>(events.size());
    r.losses = hierarchy.powerLossCount();
    const auto &avail = cluster.availabilityTimeline();
    r.downtimeMin = (1.0 - avail.average(0, kYear)) * toMinutes(kYear) +
                    cluster.extraDowntimeSec() / 60.0;
    r.meanPerf = cluster.perfTimeline().average(0, kYear);
    r.batteryKwh =
        joulesToKwh(hierarchy.meter().batteryEnergyJ(0, kYear));

    // Longest fully-dark stretch.
    Time worst = 0;
    Time gap_start = -1;
    double cur = avail.valueAt(0);
    for (const auto &s : avail.samples()) {
        if (cur > 0.0 && s.value == 0.0) {
            gap_start = s.at;
        } else if (cur == 0.0 && s.value > 0.0 && gap_start >= 0) {
            worst = std::max(worst, s.at - gap_start);
            gap_start = -1;
        }
        cur = s.value;
    }
    if (cur == 0.0 && gap_start >= 0)
        worst = std::max(worst, kYear - gap_start);
    r.worstGapMin = toMinutes(worst);
    // Closes the trial for the incident engine: fixes the attribution
    // horizon at kYear (truncating any still-open outage) and carries
    // the simulator's own downtime total for residual checks.
    BPSIM_TRACE(obs::EventKind::TrialEnd, kYear, "trial-end", nullptr,
                r.downtimeMin, r.batteryKwh);
    return r;
}

} // namespace bpsim
