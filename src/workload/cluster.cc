#include "workload/cluster.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace bpsim
{

namespace
{

std::vector<WorkloadProfile>
replicate(const WorkloadProfile &profile, int n)
{
    BPSIM_ASSERT(n >= 1, "cluster needs at least one server");
    return std::vector<WorkloadProfile>(static_cast<std::size_t>(n),
                                        profile);
}

/** Set a cached flag, keeping @p count of set flags in step. */
void
setFlag(char &flag, bool v, int &count)
{
    if (static_cast<bool>(flag) == v)
        return;
    flag = v;
    count += v ? 1 : -1;
}

} // namespace

Cluster::Cluster(Simulator &sim, PowerHierarchy &hierarchy,
                 const ServerModel &model, const WorkloadProfile &profile,
                 int n_servers)
    : Cluster(sim, hierarchy, model, replicate(profile, n_servers))
{
}

Cluster::Cluster(Simulator &sim, PowerHierarchy &hierarchy,
                 const ServerModel &model,
                 const std::vector<WorkloadProfile> &profiles)
    : sim(sim), hierarchy(hierarchy), model_(model), profiles_(profiles),
      power_(profiles.size()), perf_(profiles.size()),
      active_(profiles.size(), 0), up_(profiles.size(), 0),
      hosted_(profiles.size()), hostOf_(profiles.size())
{
    const int n_servers = static_cast<int>(profiles_.size());
    BPSIM_ASSERT(n_servers >= 1, "cluster needs at least one server");
    servers_.reserve(n_servers);
    apps_.reserve(n_servers);
    for (int i = 0; i < n_servers; ++i) {
        servers_.push_back(std::make_unique<Server>(sim, model_, i));
        apps_.push_back(std::make_unique<Application>(
            sim, profiles_[static_cast<std::size_t>(i)],
            *servers_.back()));
        hosted_[i].push_back(i);
        hostOf_[i] = i;
        refreshServer(i);
        refreshApp(i);
    }
    for (int i = 0; i < n_servers; ++i) {
        servers_[i]->onChange([this, i] { serverChanged(i); });
        apps_[i]->onChange([this, i] { appChanged(i); });
    }
    hierarchy.addListener(this);
}

void
Cluster::primeSteadyState()
{
    for (auto &srv : servers_)
        srv->primeActive();
    for (auto &app : apps_)
        app->primeServing();
    recompute();
}

void
Cluster::refreshServer(int i)
{
    const Server &srv = *servers_[i];
    power_.set(i, srv.powerW());
    setFlag(active_[i], srv.state() == ServerState::Active, activeCount_);
}

void
Cluster::refreshApp(int a)
{
    const Application &app = *apps_[a];
    perf_.set(a, app.perf());
    setFlag(up_[a], app.available(), upCount_);
}

void
Cluster::serverChanged(int i)
{
    // An app's terms read its host's state, so every hosted app is
    // stale too; refresh them all before any of them reacts.
    refreshServer(i);
    for (const int a : hosted_[i])
        refreshApp(a);
    // Visit the hosted apps in ascending index, re-reading the list
    // after each: a nested hook may move an app on or off this host,
    // and the next visit must see that, as a live host() scan would.
    int last = -1;
    for (;;) {
        const auto &list = hosted_[i];
        const auto next = std::upper_bound(list.begin(), list.end(), last);
        if (next == list.end())
            break;
        last = *next;
        apps_[last]->noteHostState();
    }
    recompute();
}

void
Cluster::appChanged(int a)
{
    const int h = apps_[a]->host()->id();
    BPSIM_ASSERT(h >= 0 && h < size() &&
                     servers_[h].get() == apps_[a]->host(),
                 "app %d moved to a server outside the cluster", a);
    if (h != hostOf_[a]) {
        auto &from = hosted_[hostOf_[a]];
        from.erase(std::find(from.begin(), from.end(), a));
        auto &to = hosted_[h];
        to.insert(std::upper_bound(to.begin(), to.end(), a), a);
        hostOf_[a] = h;
    }
    refreshApp(a);
    recompute();
}

Watts
Cluster::totalPowerW() const
{
    return power_.total();
}

double
Cluster::availability() const
{
    return static_cast<double>(upCount_) / static_cast<double>(size());
}

int
Cluster::activeServers() const
{
    return activeCount_;
}

double
Cluster::aggregatePerf() const
{
    return perf_.total() / static_cast<double>(size());
}

Watts
Cluster::peakPowerW() const
{
    return model_.params().peakPowerW * static_cast<double>(size());
}

double
Cluster::extraDowntimeSec() const
{
    double total = 0.0;
    for (const auto &app : apps_)
        total += app->extraDowntimeSec();
    return total / static_cast<double>(apps_.size());
}

void
Cluster::recompute()
{
    if (inRecompute) {
        dirty = true;
        return;
    }
    inRecompute = true;
    do {
        dirty = false;
        hierarchy.setLoad(totalPowerW());
        perfTl.record(sim.now(), aggregatePerf());
        availTl.record(sim.now(), availability());
    } while (dirty);
    inRecompute = false;
    if (BPSIM_OBS_ON()) {
        // Availability steps and recompute-debt charges are what the
        // incident engine integrates into attributed downtime; emit
        // only on change so quiet periods cost nothing.
        const double avail = availability();
        if (avail != lastTracedAvail_) {
            lastTracedAvail_ = avail;
            BPSIM_TRACE(obs::EventKind::Availability, sim.now(),
                        "availability", nullptr, avail);
        }
        const double extra = extraDowntimeSec();
        if (extra != lastTracedExtra_) {
            BPSIM_TRACE(obs::EventKind::Recompute, sim.now(),
                        "recompute-debt", nullptr,
                        extra - lastTracedExtra_);
            lastTracedExtra_ = extra;
        }
    }
}

void
Cluster::powerLost(Time)
{
    for (auto &srv : servers_)
        srv->crash();
    recompute();
}

void
Cluster::restartDarkServers()
{
    for (std::size_t i = 0; i < servers_.size(); ++i) {
        Server &srv = *servers_[i];
        if (srv.state() == ServerState::Crashed) {
            srv.boot(fromSeconds(model_.params().bootTimeSec));
        } else if (model_.params().nvdimm &&
                   srv.state() == ServerState::Hibernated) {
            // NVDIMM machines persisted through the loss; restoring
            // DRAM from on-DIMM flash is far faster than a reboot.
            srv.resumeFromDisk(
                nvdimmRestoreTime(static_cast<int>(i)));
        }
    }
    recompute();
}

Time
Cluster::nvdimmRestoreTime(int i) const
{
    const double bytes = gbToBytes(profileOf(i).memoryGb);
    const double bw = model_.params().nvdimmRestoreMBps * 1e6;
    // Flash read-back plus a short kernel resume.
    return fromSeconds(bytes / bw + 5.0);
}

bool
Cluster::homogeneous() const
{
    for (const auto &p : profiles_) {
        if (p.name != profiles_.front().name)
            return false;
    }
    return true;
}

void
Cluster::utilityRestored(Time)
{
    if (!autoReboot)
        return;
    restartDarkServers();
}

void
Cluster::dgCarrying(Time)
{
    // Machines that crashed (e.g., in a NoUPS configuration) can
    // reboot once the generator carries the load.
    if (!autoReboot)
        return;
    restartDarkServers();
}

} // namespace bpsim
