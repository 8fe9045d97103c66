#include "server/server.hh"

#include "sim/logging.hh"

namespace bpsim
{

const char *
serverStateName(ServerState s)
{
    switch (s) {
      case ServerState::Off: return "Off";
      case ServerState::Booting: return "Booting";
      case ServerState::Active: return "Active";
      case ServerState::EnteringSleep: return "EnteringSleep";
      case ServerState::Sleeping: return "Sleeping";
      case ServerState::Waking: return "Waking";
      case ServerState::SavingToDisk: return "SavingToDisk";
      case ServerState::Hibernated: return "Hibernated";
      case ServerState::ResumingFromDisk: return "ResumingFromDisk";
      case ServerState::Crashed: return "Crashed";
    }
    return "?";
}

Server::Server(Simulator &sim, const ServerModel &model, int id)
    : sim(sim), model_(model), id_(id)
{
}

Watts
Server::powerW() const
{
    const auto &p = model_.params();
    switch (st) {
      case ServerState::Off:
      case ServerState::Hibernated:
      case ServerState::Crashed:
        return 0.0;
      case ServerState::Booting:
        return p.bootPowerW;
      case ServerState::Sleeping:
        return p.sleepPowerW;
      case ServerState::Active:
        return model_.activePowerW(pstate_, tstate_, util);
      case ServerState::EnteringSleep:
      case ServerState::Waking:
      case ServerState::SavingToDisk:
      case ServerState::ResumingFromDisk:
        // Transitional work (suspend, image write/read) runs the
        // machine at its current throttle settings, fully busy.
        return model_.activePowerW(pstate_, tstate_, 1.0);
    }
    return 0.0;
}

bool
Server::holdsVolatileState() const
{
    switch (st) {
      case ServerState::Active:
      case ServerState::EnteringSleep:
      case ServerState::Sleeping:
      case ServerState::Waking:
      case ServerState::SavingToDisk:
        return true;
      default:
        return false;
    }
}

void
Server::notify()
{
    if (changeFn)
        changeFn();
}

void
Server::setPState(int pstate)
{
    BPSIM_ASSERT(pstate >= 0 && pstate < model_.params().pStates,
                 "server %d: P-state %d out of range", id_, pstate);
    pstate_ = pstate;
    notify();
}

void
Server::setTState(int tstate)
{
    BPSIM_ASSERT(tstate >= 0 && tstate < model_.params().tStates,
                 "server %d: T-state %d out of range", id_, tstate);
    tstate_ = tstate;
    notify();
}

void
Server::setUtilization(double u)
{
    BPSIM_ASSERT(u >= 0.0 && u <= 1.0, "server %d: utilization %g", id_, u);
    util = u;
    notify();
}

void
Server::completeTransition(ServerState target, std::uint64_t token)
{
    if (token != transitionToken)
        return; // superseded by a crash or another transition
    st = target;
    notify();
}

namespace
{

void
scheduleCompletion(Simulator &sim, Time delay, const char *name, EventFn fn,
                   EventHandle &slot)
{
    slot = sim.schedule(delay, fn, name);
}

} // namespace

void
Server::primeActive()
{
    BPSIM_ASSERT(st == ServerState::Off, "server %d: primeActive from %s",
                 id_, serverStateName(st));
    pending.cancel();
    ++transitionToken;
    st = ServerState::Active;
    pstate_ = 0;
    tstate_ = 0;
    util = 1.0;
    notify();
}

void
Server::boot(Time boot_time)
{
    BPSIM_ASSERT(st == ServerState::Off || st == ServerState::Crashed,
                 "server %d: boot from %s", id_, serverStateName(st));
    BPSIM_ASSERT(boot_time >= 0, "negative boot time");
    pending.cancel();
    st = ServerState::Booting;
    pstate_ = 0;
    tstate_ = 0;
    util = 1.0;
    const auto token = ++transitionToken;
    scheduleCompletion(sim, boot_time, "server-boot-done",
                       [this, token] {
                           completeTransition(ServerState::Active, token);
                       },
                       pending);
    notify();
}

void
Server::shutdown()
{
    BPSIM_ASSERT(st == ServerState::Active, "server %d: shutdown from %s",
                 id_, serverStateName(st));
    pending.cancel();
    ++transitionToken;
    st = ServerState::Off;
    notify();
}

void
Server::enterSleep(Time transition)
{
    BPSIM_ASSERT(st == ServerState::Active, "server %d: sleep from %s", id_,
                 serverStateName(st));
    BPSIM_ASSERT(transition >= 0, "negative sleep transition");
    pending.cancel();
    st = ServerState::EnteringSleep;
    const auto token = ++transitionToken;
    scheduleCompletion(sim, transition, "server-sleep-done",
                       [this, token] {
                           completeTransition(ServerState::Sleeping, token);
                       },
                       pending);
    notify();
}

void
Server::wake(Time resume)
{
    BPSIM_ASSERT(st == ServerState::Sleeping, "server %d: wake from %s", id_,
                 serverStateName(st));
    BPSIM_ASSERT(resume >= 0, "negative wake time");
    pending.cancel();
    st = ServerState::Waking;
    // Resume runs on restored utility power: full speed.
    pstate_ = 0;
    tstate_ = 0;
    const auto token = ++transitionToken;
    scheduleCompletion(sim, resume, "server-wake-done",
                       [this, token] {
                           completeTransition(ServerState::Active, token);
                       },
                       pending);
    notify();
}

void
Server::saveToDisk(Time save_time)
{
    BPSIM_ASSERT(st == ServerState::Active, "server %d: hibernate from %s",
                 id_, serverStateName(st));
    BPSIM_ASSERT(save_time >= 0, "negative save time");
    pending.cancel();
    st = ServerState::SavingToDisk;
    const auto token = ++transitionToken;
    scheduleCompletion(sim, save_time, "server-hibernate-done",
                       [this, token] {
                           completeTransition(ServerState::Hibernated,
                                              token);
                       },
                       pending);
    notify();
}

void
Server::resumeFromDisk(Time resume_time)
{
    BPSIM_ASSERT(st == ServerState::Hibernated,
                 "server %d: disk resume from %s", id_, serverStateName(st));
    BPSIM_ASSERT(resume_time >= 0, "negative resume time");
    pending.cancel();
    st = ServerState::ResumingFromDisk;
    // Resume runs on restored utility power: full speed.
    pstate_ = 0;
    tstate_ = 0;
    const auto token = ++transitionToken;
    scheduleCompletion(sim, resume_time, "server-resume-done",
                       [this, token] {
                           completeTransition(ServerState::Active, token);
                       },
                       pending);
    notify();
}

void
Server::crash()
{
    if (st == ServerState::Off || st == ServerState::Hibernated ||
        st == ServerState::Crashed) {
        return; // nothing volatile to lose, nothing drawing power
    }
    pending.cancel();
    ++transitionToken;
    if (model_.params().nvdimm && holdsVolatileState()) {
        // The on-DIMM super-capacitor flushes DRAM to flash after the
        // cut: the machine is dark but its state is persisted.
        st = ServerState::Hibernated;
    } else {
        st = ServerState::Crashed;
    }
    notify();
}

} // namespace bpsim
