/**
 * @file
 * A rack/cluster of servers running one application each, wired to the
 * power hierarchy.
 *
 * The cluster aggregates per-server power into the hierarchy's load,
 * aggregates per-application performance into a normalized service
 * timeline, crashes everything on abrupt power loss, and auto-reboots
 * crashed machines when the utility returns (the MinCost baseline
 * behaviour; deliberate shutdowns by a technique are left alone).
 */

#ifndef BPSIM_WORKLOAD_CLUSTER_HH
#define BPSIM_WORKLOAD_CLUSTER_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "power/power_hierarchy.hh"
#include "sim/simulator.hh"
#include "sim/timeline.hh"
#include "workload/application.hh"

namespace bpsim
{

/** Servers + applications + power/performance aggregation. */
class Cluster : public PowerHierarchy::Listener
{
  public:
    /**
     * Build @p n_servers servers of @p model, each hosting one
     * instance of @p profile, and attach to @p hierarchy.
     */
    Cluster(Simulator &sim, PowerHierarchy &hierarchy,
            const ServerModel &model, const WorkloadProfile &profile,
            int n_servers);

    /**
     * Heterogeneous cluster (the Section 7 provisioning challenge):
     * one server per entry of @p profiles, each hosting that profile.
     */
    Cluster(Simulator &sim, PowerHierarchy &hierarchy,
            const ServerModel &model,
            const std::vector<WorkloadProfile> &profiles);

    /** Number of servers (== number of applications). */
    int size() const { return static_cast<int>(servers_.size()); }

    /** Server @p i. */
    Server &server(int i) { return *servers_.at(i); }
    /** Application @p i (homed on server i). */
    Application &app(int i) { return *apps_.at(i); }

    /**
     * The first server's workload profile. For homogeneous clusters
     * (the paper's experiments) this is *the* profile; heterogeneous
     * techniques should consult profileOf() per server.
     */
    const WorkloadProfile &profile() const { return profiles_.front(); }

    /** Workload profile hosted on server @p i. */
    const WorkloadProfile &
    profileOf(int i) const
    {
        return profiles_.at(static_cast<std::size_t>(i));
    }

    /** True when every server runs the same workload. */
    bool homogeneous() const;

    /** The server SKU. */
    const ServerModel &serverModel() const { return model_; }

    /**
     * Initialize to steady state: all servers Active at full speed,
     * all applications Serving. Call once at t = 0.
     */
    void primeSteadyState();

    /** Aggregate electrical draw right now (watts). */
    Watts totalPowerW() const;

    /**
     * Normalized cluster performance in [0, 1]: mean of application
     * performance (1 = every instance at steady-state full service).
     */
    double aggregatePerf() const;

    /** History of aggregate normalized performance. */
    const Timeline &perfTimeline() const { return perfTl; }

    /** Fraction of applications currently available. */
    double availability() const;

    /** Servers currently in the Active state (the obs time-series
     *  "servers_active" signal). */
    int activeServers() const;

    /** History of the available fraction (downtime accounting). */
    const Timeline &availabilityTimeline() const { return availTl; }

    /** Peak electrical draw the cluster can present (sizing basis). */
    Watts peakPowerW() const;

    /** Sum of per-application extra (recompute) downtime, seconds. */
    double extraDowntimeSec() const;

    /**
     * Re-aggregate power and performance (idempotent). Reads the
     * cached per-element terms, which every change hook refreshes
     * before it calls this.
     */
    void recompute();

    /** @name PowerHierarchy::Listener */
    ///@{
    void powerLost(Time now) override;
    void utilityRestored(Time now) override;
    /** DG now carrying the load: crashed machines can reboot on it. */
    void dgCarrying(Time now) override;
    ///@}

    /** Disable auto-reboot of crashed servers on restore. */
    void setAutoReboot(bool v) { autoReboot = v; }

    /** DRAM restore time from on-DIMM flash for server @p i. */
    Time nvdimmRestoreTime(int i) const;

  private:
    void restartDarkServers();
    /** Server @p i's change hook: refresh its terms and those of the
     *  apps it hosts, let those apps react, then re-aggregate. */
    void serverChanged(int i);
    /** App @p a's change hook: follow a host move, refresh, re-aggregate. */
    void appChanged(int a);
    /** Re-read server @p i's fold terms from the live server. */
    void refreshServer(int i);
    /** Re-read app @p a's fold terms from the live application. */
    void refreshApp(int a);

    Simulator &sim;
    PowerHierarchy &hierarchy;
    ServerModel model_;
    std::vector<WorkloadProfile> profiles_;
    std::vector<std::unique_ptr<Server>> servers_;
    std::vector<std::unique_ptr<Application>> apps_;
    /**
     * Left-to-right sum of one cached term per element. It keeps the
     * partial sums, so after a change at index j only the terms from
     * j on are re-added: the same operands in the same order as a
     * full fold, hence the same bits.
     */
    class OrderedSum
    {
      public:
        explicit OrderedSum(std::size_t n)
            : terms_(n, 0.0), partial_(n + 1, 0.0)
        {}

        /** Set term @p i. An equal value (also +0 for -0, which no
         *  sum that starts at +0.0 can tell apart) changes nothing. */
        void
        set(std::size_t i, double v)
        {
            if (terms_[i] == v)
                return;
            terms_[i] = v;
            stale_ = std::min(stale_, i);
        }

        /** ((0.0 + t0) + t1) + ... over every term. */
        double
        total() const
        {
            for (; stale_ < terms_.size(); ++stale_)
                partial_[stale_ + 1] = partial_[stale_] + terms_[stale_];
            return partial_.back();
        }

      private:
        std::vector<double> terms_;
        /** partial_[k] = sum of terms [0, k), valid for k <= stale_. */
        mutable std::vector<double> partial_;
        mutable std::size_t stale_ = 0;
    };

    /**
     * Cached fold terms, one per element in index order. Each equals
     * the live powerW()/state()/perf()/available() whenever recompute()
     * reads it: a term is refreshed in its own element's change hook,
     * before anything re-aggregates.
     */
    OrderedSum power_;
    OrderedSum perf_;
    std::vector<char> active_;
    std::vector<char> up_;
    /** Counts of set active_/up_ flags: a fold adding 1.0 per set
     *  flag yields exactly this count. */
    int activeCount_ = 0;
    int upCount_ = 0;
    /** App indices each server hosts, ascending; and each app's host. */
    std::vector<std::vector<int>> hosted_;
    std::vector<int> hostOf_;
    Timeline perfTl{0.0};
    Timeline availTl{0.0};
    bool autoReboot = true;
    bool inRecompute = false;
    bool dirty = false;
    /** Last traced availability / recompute debt (change detection;
     *  -1 forces an initial Availability event at prime time). */
    double lastTracedAvail_ = -1.0;
    double lastTracedExtra_ = 0.0;
};

} // namespace bpsim

#endif // BPSIM_WORKLOAD_CLUSTER_HH
