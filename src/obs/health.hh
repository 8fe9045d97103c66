/**
 * @file
 * Outage forensics stage 2: declarative health/invariant checks over
 * a recorded trace (and optionally sampled signals and the incident
 * report), in the spirit of Netdata's alarm engine and the
 * calibration invariants literature: a simulation whose outputs
 * violate SoC bounds, power balance or legal DG state transitions
 * cannot be trusted, however plausible its summary numbers look.
 *
 * Each rule is declared once in healthRules() — name, severity,
 * description — so docs and the HTML report can enumerate exactly
 * what ran. checkHealth() replays the evidence and emits
 * severity-tagged findings; a clean run returns a report whose
 * healthy() is true. The checker is a pure function of its inputs,
 * so findings are deterministic for any thread count.
 */

#ifndef BPSIM_OBS_HEALTH_HH
#define BPSIM_OBS_HEALTH_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/incident.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"

namespace bpsim
{
namespace obs
{

/** How bad a finding is. */
enum class Severity : std::uint8_t
{
    /** Informational (worth a look, not a defect). */
    Info,
    /** Suspicious: plausible but warrants investigation. */
    Warning,
    /** An invariant is broken; results cannot be trusted. */
    Critical,
};

/** Number of Severity enumerators. */
constexpr std::size_t kSeverityCount =
    static_cast<std::size_t>(Severity::Critical) + 1;

/** Stable lowercase identifier ("info", "warning", "critical"). */
const char *severityName(Severity severity);

/** One declared invariant (the rule table drives docs + report). */
struct HealthRule
{
    /** Stable rule id ("soc-bounds", ...). */
    const char *name;
    Severity severity;
    /** One-line human description of the invariant. */
    const char *description;
};

/** Every rule checkHealth() evaluates, in evaluation order. */
const std::vector<HealthRule> &healthRules();

/** One rule violation (or observation). */
struct HealthFinding
{
    /** HealthRule::name of the violated rule. */
    std::string rule;
    Severity severity = Severity::Info;
    /** Trial and simulated time the evidence points at. */
    std::uint64_t trial = 0;
    Time t = 0;
    /** The offending value (rule-specific; 0 when not applicable). */
    double value = 0.0;
    /** Human-readable explanation. */
    std::string message;
};

/** Aggregated result of one checkHealth() pass. */
struct HealthReport
{
    /** Findings in evidence order, capped (see totalFindings). */
    std::vector<HealthFinding> findings;
    /** Findings counted, including any beyond the cap. */
    std::uint64_t totalFindings = 0;
    /** Finding counts by severity (index = Severity). */
    std::array<std::uint64_t, kSeverityCount> bySeverity{};
    /** Finding counts by rule name. */
    std::map<std::string, std::uint64_t> byRule;

    /** True when no Warning or Critical finding was recorded. */
    bool
    healthy() const
    {
        return bySeverity[static_cast<std::size_t>(
                   Severity::Warning)] == 0 &&
               bySeverity[static_cast<std::size_t>(
                   Severity::Critical)] == 0;
    }
};

/** Tuning for one checkHealth() pass. */
struct HealthOptions
{
    /** Cap on findings *kept*; counting continues past it. */
    std::size_t maxFindings = 256;
    /** Relative tolerance for power-balance surplus checks. */
    double powerBalanceRelTol = 1e-6;
    /** Tolerance (minutes, relative to reported downtime) before the
     *  attribution residual becomes a finding. */
    double residualRelTol = 1e-6;
};

/**
 * Evaluate every declared rule against @p events (sorted by
 * (trial, seq)), plus @p series (power-balance rules; may be null)
 * and @p incidents (attribution-residual rule; may be null).
 */
HealthReport checkHealth(const std::vector<TraceEvent> &events,
                         const TimeSeriesStore *series = nullptr,
                         const IncidentReport *incidents = nullptr,
                         const HealthOptions &opts = {});

} // namespace obs
} // namespace bpsim

#endif // BPSIM_OBS_HEALTH_HH
