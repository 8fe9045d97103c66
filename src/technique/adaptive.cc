#include "technique/adaptive.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bpsim
{

AdaptiveTechnique::AdaptiveTechnique(OutagePredictor predictor,
                                     double risk_tolerance,
                                     double poll_period_sec)
    : Technique(formatString("Adaptive(risk=%.2f)", risk_tolerance),
                TechniqueFamily::Hybrid),
      predictor(std::move(predictor)), risk(risk_tolerance),
      pollSec(poll_period_sec)
{
    BPSIM_ASSERT(risk >= 0.0 && risk <= 1.0, "risk %g out of [0,1]",
                 risk);
    BPSIM_ASSERT(pollSec > 0.0, "non-positive poll period");
}

Watts
AdaptiveTechnique::levelLoadW(int pstate) const
{
    const auto &model = cluster->serverModel();
    Watts total = 0.0;
    for (int i = 0; i < cluster->size(); ++i) {
        if (cluster->server(i).state() == ServerState::Active)
            total += model.activePowerW(pstate, 0, 1.0);
    }
    return total;
}

void
AdaptiveTechnique::onOutage(Time now)
{
    const auto &model = cluster->serverModel();
    levels = {0, pstateForPowerFraction(model, 0.5),
              model.params().pStates - 1};
    outageBegan = now;
    suspended_ = false;
    escalations_ = 0;
    currentLevel = 0;
    evaluate();
}

void
AdaptiveTechnique::evaluate()
{
    if (!hierarchy->ups() ||
        hierarchy->mode() == PowerHierarchy::Mode::Dead) {
        return;
    }
    // Battery runway per level from the current state of charge. A
    // level the UPS cannot carry has none, so the policy never picks
    // it.
    std::vector<Time> runway;
    std::vector<double> perf;
    const auto &model = cluster->serverModel();
    const Ups &ups = *hierarchy->ups();
    for (int p : levels) {
        const Watts load = levelLoadW(p);
        runway.push_back(ups.canCarry(load) ? ups.timeToEmpty(load) : 0);
        // Conservative: judge perf by the most throttle-sensitive
        // workload on the floor.
        double worst = 1.0;
        for (int i = 0; i < cluster->size(); ++i) {
            worst = std::min(
                worst, cluster->profileOf(i).throttledPerf(model, p, 0));
        }
        perf.push_back(worst);
    }
    // Reserve enough to suspend (slowest workload, throttled).
    const int p_low = pstateForPowerFraction(model, 0.5);
    const double slow =
        saveSlowdownAtThrottle(model, p_low, 0, kSleepSaveCpuWeight);
    double save_sec = 0.0;
    for (int i = 0; i < cluster->size(); ++i) {
        save_sec = std::max(save_sec,
                            cluster->profileOf(i).sleepSaveSec * slow);
    }
    const Time reserve = fromSeconds(save_sec * 2.0);

    AdaptiveEscalationPolicy policy(predictor, risk);
    const Time elapsed = sim->now() - outageBegan;
    const int pick = policy.choose(elapsed, runway, perf, reserve);

    if (pick < 0) {
        engageSleep();
        return;
    }
    const int target = levels[static_cast<std::size_t>(pick)];
    if (target > currentLevel)
        ++escalations_;
    currentLevel = target;
    for (int i = 0; i < cluster->size(); ++i) {
        Server &srv = cluster->server(i);
        if (srv.state() == ServerState::Active &&
            srv.pstate() != target) {
            srv.setPState(target);
        }
    }
    const auto e = epoch;
    sim->schedule(fromSeconds(pollSec),
                  [this, e] {
                      if (e == epoch)
                          evaluate();
                  },
                  "adaptive-poll");
}

void
AdaptiveTechnique::engageSleep()
{
    suspended_ = true;
    const auto &model = cluster->serverModel();
    const int p_low = pstateForPowerFraction(model, 0.5);
    const double slow =
        saveSlowdownAtThrottle(model, p_low, 0, kSleepSaveCpuWeight);
    for (int i = 0; i < cluster->size(); ++i) {
        Server &srv = cluster->server(i);
        if (srv.state() == ServerState::Active) {
            srv.setPState(p_low);
            srv.enterSleep(fromSeconds(
                cluster->profileOf(i).sleepSaveSec * slow));
        }
    }
}

void
AdaptiveTechnique::recoverAll()
{
    for (int i = 0; i < cluster->size(); ++i) {
        Server &srv = cluster->server(i);
        const auto &prof = cluster->profileOf(i);
        const Time resume = fromSeconds(prof.sleepResumeSec);
        switch (srv.state()) {
          case ServerState::Active:
            srv.setPState(0);
            srv.setTState(0);
            break;
          case ServerState::Sleeping:
            srv.wake(resume);
            break;
          case ServerState::EnteringSleep: {
            const auto e = epoch;
            Server *s = &srv;
            sim->schedule(fromSeconds(prof.sleepSaveSec * 2.0),
                          [this, s, e, resume] {
                              if (e != epoch)
                                  return;
                              if (s->state() == ServerState::Sleeping)
                                  s->wake(resume);
                          },
                          "adaptive-finish-then-wake");
            break;
          }
          default:
            break;
        }
    }
}

void
AdaptiveTechnique::onRestore(Time)
{
    recoverAll();
}

void
AdaptiveTechnique::onDgCarrying(Time)
{
    if (dgCoversFullLoad()) {
        ++epoch; // stop polling; the emergency is over
        recoverAll();
    }
}

} // namespace bpsim
