#include "power/power_hierarchy.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace bpsim
{

PowerHierarchy::PowerHierarchy(Simulator &sim, Utility &utility,
                               const Config &config)
    : sim(sim), utility(utility), cfg(config), ats(sim, config.ats)
{
    if (cfg.hasUps)
        ups_ = std::make_unique<Ups>(cfg.ups);
    if (cfg.hasDg) {
        dg_ = std::make_unique<DieselGenerator>(sim, cfg.dg);
        dg_->onRampChange([this] { onDgRampChange(); });
        ats.onStartGenerator([this] {
            if (dg_)
                dg_->start();
        });
    }
    utility.onFail([this] { utilityFailed(); });
    utility.onRestore([this] { utilityRestored(); });
}

bool
PowerHierarchy::powered() const
{
    return mode_ != Mode::Dead;
}

double
PowerHierarchy::batterySoc() const
{
    if (!ups_)
        return 0.0;
    // The battery is only integrated at power events (sync()); for a
    // between-events read project the drain forward under the current
    // constant mix. Under constant power the Peukert model drains soc
    // linearly, so the projection soc * (1 - dt/tte) is exact.
    // Read-only: sampling must never perturb simulation state.
    double soc = ups_->battery().soc();
    if (batteryShare > 0.0 && sim.now() > lastSync) {
        const Time tte = ups_->timeToEmpty(batteryShare);
        if (tte != kTimeNever && tte > 0) {
            const double dt =
                static_cast<double>(sim.now() - lastSync);
            soc = std::max(
                0.0, soc * (1.0 - dt / static_cast<double>(tte)));
        }
    }
    return soc;
}

void
PowerHierarchy::setLoad(Watts w)
{
    BPSIM_ASSERT(w >= 0.0, "negative load %g W", w);
    sync();
    load_ = w;
    recomputeMix();
}

Time
PowerHierarchy::timeToBatteryEmpty() const
{
    if (!ups_ || batteryShare <= 0.0)
        return kTimeNever;
    return ups_->timeToEmpty(batteryShare);
}

void
PowerHierarchy::sync()
{
    const Time now = sim.now();
    const Time dt = now - lastSync;
    BPSIM_ASSERT(dt >= 0, "power sync went backwards");
    if (dt == 0)
        return;
    switch (mode_) {
      case Mode::OnUtility:
        if (ups_) {
            if (batteryShare > 0.0)
                ups_->discharge(batteryShare, dt); // peak shaving
            else
                ups_->recharge(dt);
        }
        break;
      case Mode::RideThrough:
        // Capacitive ride-through: no battery draw.
        break;
      case Mode::OnBattery:
        if (ups_ && batteryShare > 0.0)
            ups_->discharge(batteryShare, dt);
        if (dg_ && dgShare > 0.0)
            dg_->consume(dgShare, dt);
        break;
      case Mode::OnDg:
        if (dg_)
            dg_->consume(load_, dt);
        if (ups_)
            ups_->recharge(dt);
        break;
      case Mode::Dead:
        break;
    }
    if (ups_ && BPSIM_OBS_ON())
        noteBatterySoc();
    lastSync = now;
}

void
PowerHierarchy::recomputeMix()
{
    depletionEv.cancel();
    fuelEv.cancel();
    batteryShare = 0.0;
    dgShare = 0.0;

    Watts from_utility = 0.0;

    switch (mode_) {
      case Mode::OnUtility: {
        from_utility = load_;
        const Watts threshold = cfg.peakShaveThresholdW;
        if (threshold > 0.0 && ups_ && load_ > threshold) {
            const Watts excess = load_ - threshold;
            // An excess over the UPS rating has no runtime to ask
            // for. Otherwise require a millisecond of genuine runtime,
            // so a string rounding to empty cannot re-arm a zero-delay
            // cycle.
            const Time tte =
                ups_->canCarry(excess) ? ups_->timeToEmpty(excess) : 0;
            if (tte >= kMillisecond) {
                batteryShare = excess;
                from_utility = threshold;
                if (tte != kTimeNever) {
                    depletionEv = sim.schedule(
                        tte, [this] { onBatteryEmpty(); },
                        "shave-battery-empty", EventPriority::Power);
                }
            }
        }
        break;
      }
      case Mode::RideThrough:
        break;
      case Mode::OnBattery: {
        BPSIM_ASSERT(ups_ != nullptr, "OnBattery without a UPS");
        Watts dg_part = 0.0;
        if (dg_ && dg_->online())
            dg_part = dg_->availablePowerW(load_);
        Watts bat_part = std::max(0.0, load_ - dg_part);
        if (!ups_->canCarry(bat_part) || ups_->battery().empty()) {
            losePower();
            return;
        }
        batteryShare = bat_part;
        dgShare = dg_part;
        if (batteryShare > 0.0) {
            const Time tte = ups_->timeToEmpty(batteryShare);
            if (tte != kTimeNever) {
                depletionEv = sim.schedule(
                    tte, [this] { onBatteryEmpty(); }, "battery-empty",
                    EventPriority::Power);
            }
        }
        break;
      }
      case Mode::OnDg: {
        BPSIM_ASSERT(dg_ != nullptr, "OnDg without a DG");
        if (load_ > dg_->params().powerCapacityW * (1.0 + 1e-9) ||
            dg_->fuelExhausted()) {
            losePower();
            return;
        }
        dgShare = load_;
        if (load_ > 0.0) {
            const double tank_sec = dg_->fuelRemainingJ() / load_;
            fuelEv = sim.schedule(fromSeconds(tank_sec),
                                  [this] { onFuelExhausted(); },
                                  "dg-fuel-out", EventPriority::Power);
        }
        break;
      }
      case Mode::Dead:
        break;
    }

    meter_.record(sim.now(), load_, from_utility, batteryShare,
                  mode_ == Mode::OnDg ? load_ : dgShare);
}

void
PowerHierarchy::losePower()
{
    depletionEv.cancel();
    rideThroughEv.cancel();
    fuelEv.cancel();
    mode_ = Mode::Dead;
    batteryShare = 0.0;
    dgShare = 0.0;
    ++losses;
    BPSIM_TRACE(obs::EventKind::PowerLost, sim.now(), "power-lost",
                nullptr, load_);
    BPSIM_OBS_COUNTER_ADD("power.losses", 1);
    meter_.record(sim.now(), load_, 0.0, 0.0, 0.0);
    for (auto *l : listeners)
        l->powerLost(sim.now());
}

void
PowerHierarchy::utilityFailed()
{
    sync();
    // One grid-outage episode = one causal incident: every event until
    // restoration (UPS discharge, DG attempts, phases) carries the id.
    if (BPSIM_OBS_ON())
        obs::beginIncident();
    BPSIM_TRACE(obs::EventKind::OutageStart, sim.now(), "outage",
                nullptr, load_);
    BPSIM_OBS_COUNTER_ADD("power.outages", 1);
    outageStartedAt_ = sim.now();
    mode_ = Mode::RideThrough;
    recomputeMix();
    ats.utilityFailed();
    notifyOutage();
    const double gap_sec = ups_ ? std::min(cfg.psuRideThroughSec,
                                           toSeconds(ups_->transferDelay()))
                                : cfg.psuRideThroughSec;
    rideThroughEv = sim.schedule(fromSeconds(gap_sec),
                                 [this] { afterRideThrough(); },
                                 "ride-through-end", EventPriority::Power);
}

void
PowerHierarchy::afterRideThrough()
{
    sync();
    if (mode_ != Mode::RideThrough)
        return;
    if (!ups_) {
        losePower();
        return;
    }
    mode_ = Mode::OnBattery;
    recomputeMix();
    if (mode_ == Mode::OnBattery) {
        BPSIM_TRACE(obs::EventKind::UpsDischarge, sim.now(),
                    "ups-discharge", nullptr, batteryShare);
        BPSIM_OBS_COUNTER_ADD("ups.discharges", 1);
    }
}

void
PowerHierarchy::onBatteryEmpty()
{
    sync();
    if (mode_ == Mode::OnUtility) {
        // The peak-shaving string ran dry; the utility absorbs the
        // peak (the provisioned distribution limit is the operator's
        // problem, not this model's) and the battery stops shaving.
        recomputeMix();
        return;
    }
    if (mode_ != Mode::OnBattery)
        return;
    BPSIM_TRACE(obs::EventKind::BackupDepleted, sim.now(),
                "backup-depleted", "battery");
    BPSIM_OBS_COUNTER_ADD("power.backup_depleted", 1);
    for (auto *l : listeners)
        l->backupDepleted(sim.now());
    // The DG may be able to pick up the whole load even before the ramp
    // nominally completes; a hard battery cutoff forces the transfer.
    if (dg_ && dg_->online() &&
        load_ <= dg_->params().powerCapacityW * (1.0 + 1e-9) &&
        !dg_->fuelExhausted()) {
        mode_ = Mode::OnDg;
        recomputeMix();
        notifyDgCarrying();
        return;
    }
    losePower();
}

void
PowerHierarchy::onFuelExhausted()
{
    sync();
    if (mode_ != Mode::OnDg)
        return;
    BPSIM_TRACE(obs::EventKind::BackupDepleted, sim.now(),
                "backup-depleted", "fuel");
    BPSIM_OBS_COUNTER_ADD("power.backup_depleted", 1);
    for (auto *l : listeners)
        l->backupDepleted(sim.now());
    // The battery (if any charge remains) is the only source left.
    if (ups_ && !ups_->battery().empty() && ups_->canCarry(load_)) {
        mode_ = Mode::OnBattery;
        recomputeMix();
        return;
    }
    losePower();
}

void
PowerHierarchy::onDgRampChange()
{
    sync();
    if (mode_ == Mode::OnBattery) {
        if (dg_->transferFraction() >= 1.0 &&
            load_ <= dg_->params().powerCapacityW * (1.0 + 1e-9)) {
            mode_ = Mode::OnDg;
            recomputeMix();
            notifyDgCarrying();
        } else {
            recomputeMix();
        }
    } else if (mode_ == Mode::Dead) {
        // No UPS (or battery ran out before the DG was ready): the DG
        // re-energizes the (crashed) load once it can carry it alone.
        if (dg_->transferFraction() >= 1.0 && !dg_->fuelExhausted()) {
            mode_ = Mode::OnDg;
            recomputeMix();
            notifyDgCarrying();
        }
    }
}

void
PowerHierarchy::utilityRestored()
{
    sync();
    BPSIM_TRACE(obs::EventKind::OutageEnd, sim.now(), "outage");
    if (BPSIM_OBS_ON() && outageStartedAt_ >= 0) {
        BPSIM_OBS_HISTOGRAM_RECORD(
            "power.outage_duration_s",
            toSeconds(sim.now() - outageStartedAt_));
        if (ups_)
            BPSIM_OBS_HISTOGRAM_RECORD("battery.soc_at_restore",
                                       ups_->battery().soc());
    }
    rideThroughEv.cancel();
    depletionEv.cancel();
    if (dg_)
        dg_->stop();
    ats.utilityRestored();
    mode_ = Mode::OnUtility;
    recomputeMix();
    notifyRestored();
    // Close after notifyRestored() so after-restoration phase events
    // still thread into the incident's span tree.
    if (BPSIM_OBS_ON())
        obs::endIncident();
}

void
PowerHierarchy::notifyOutage()
{
    for (auto *l : listeners)
        l->outageStarted(sim.now());
}

void
PowerHierarchy::notifyRestored()
{
    for (auto *l : listeners)
        l->utilityRestored(sim.now());
}

void
PowerHierarchy::notifyDgCarrying()
{
    BPSIM_TRACE(obs::EventKind::DgCarrying, sim.now(), "dg-carrying",
                nullptr, load_);
    BPSIM_OBS_COUNTER_ADD("dg.carrying", 1);
    if (BPSIM_OBS_ON() && dg_ && dg_->startedAt() >= 0)
        BPSIM_OBS_HISTOGRAM_RECORD(
            "dg.start_to_carrying_s",
            toSeconds(sim.now() - dg_->startedAt()));
    for (auto *l : listeners)
        l->dgCarrying(sim.now());
}

void
PowerHierarchy::noteBatterySoc()
{
    const double soc = ups_->battery().soc();
    // Decile 9 covers [0.9, 1.0] so a full battery does not flap.
    const int decile = std::min(9, static_cast<int>(soc * 10.0));
    if (decile == socDecile_)
        return;
    // The first sync only latches the starting decile; crossings are
    // what the trace reports.
    if (socDecile_ >= 0)
        BPSIM_TRACE(obs::EventKind::BatterySoc, sim.now(), "battery-soc",
                    nullptr, soc, static_cast<double>(decile) / 10.0);
    socDecile_ = decile;
}

} // namespace bpsim
