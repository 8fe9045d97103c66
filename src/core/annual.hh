/**
 * @file
 * Annual availability simulation: a whole year of utility behaviour —
 * many outages drawn from the Figure 1 statistics, with battery
 * recharge between them — run against one backup configuration and one
 * standing technique. This is the multi-outage complement to the
 * per-outage Analyzer, and what a capacity planner ultimately buys:
 * expected yearly downtime and its distribution.
 */

#ifndef BPSIM_CORE_ANNUAL_HH
#define BPSIM_CORE_ANNUAL_HH

#include <cstdint>
#include <vector>

#include "core/analyzer.hh"
#include "outage/trace.hh"

namespace bpsim
{

/** Outcome of one simulated year. */
struct AnnualResult
{
    /** Number of utility outages in the year. */
    int outages = 0;
    /** Abrupt power-loss events. */
    int losses = 0;
    /** Total application downtime over the year (minutes). */
    double downtimeMin = 0.0;
    /** Time-average normalized performance across the year. */
    double meanPerf = 0.0;
    /** Energy drawn from batteries across the year (kWh). */
    double batteryKwh = 0.0;
    /** Longest single stretch of (full) unavailability (minutes). */
    double worstGapMin = 0.0;
};

/** Multi-outage, year-scale simulation driver. */
class AnnualSimulator
{
  public:
    AnnualSimulator() = default;

    /**
     * Simulate one year: the given outage events hit a cluster of
     * @p n_servers running @p profile behind @p config, defended by
     * @p technique.
     */
    AnnualResult runYear(const WorkloadProfile &profile, int n_servers,
                         const TechniqueSpec &technique,
                         const BackupConfigSpec &config,
                         const std::vector<OutageEvent> &events) const;
};

} // namespace bpsim

#endif // BPSIM_CORE_ANNUAL_HH
