/**
 * @file
 * Declarative alert rules over live observability signals, in the
 * style of netdata's health guides (the apcupsd UPS-charge alert is
 * the template): each rule names a signal source, warn/crit
 * thresholds, a dwell (lookback) the breach must sustain, and a
 * hysteresis margin the value must recover past before the alert
 * clears — so a signal hovering at a threshold cannot flap.
 *
 * Three source kinds cover the service's signals:
 *  - Signal: a sampled simulation time series (obs::TimeSeriesStore),
 *    e.g. battery state of charge. Evaluated per (trial, signal)
 *    channel in simulated time; the dwell is simulated seconds.
 *  - CounterRatio: numerator/denominator over an obs::Registry
 *    counter snapshot, e.g. DG start failures per start attempt.
 *  - IncidentResidual: the largest per-trial unattributed-downtime
 *    residual of the run's incident forensics (forensic attribution
 *    must reconcile with the simulator's own downtime accounting).
 *
 * The engine is deterministic: evaluation is a pure function of its
 * inputs, channels are walked in the store's (trial, signal) order,
 * and the fired/cleared event log renders to a byte-stable text form
 * that golden tests pin. State is exported two ways: ALERTS-style
 * gauges in a Registry (`alert.<rule>.state`, 0 clear / 1 warning /
 * 2 critical, picked up by the /metrics OpenMetrics exposition) and
 * a JSON document served by GET /v1/alerts.
 */

#ifndef BPSIM_SERVICE_ALERTS_HH
#define BPSIM_SERVICE_ALERTS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/json.hh"
#include "obs/registry.hh"
#include "obs/timeseries.hh"

namespace bpsim
{
namespace service
{

/** Alert severity ladder (netdata's CLEAR / WARNING / CRITICAL). */
enum class AlertState : std::uint8_t
{
    Clear = 0,
    Warning = 1,
    Critical = 2,
};

/** Stable lowercase name ("clear", "warning", "critical"). */
const char *alertStateName(AlertState s);

/** Where a rule reads its value from. */
enum class AlertSource : std::uint8_t
{
    /** A sampled simulation signal (per-channel time walk). */
    Signal,
    /** numerator / denominator over a counter snapshot. */
    CounterRatio,
    /** max |per-trial incident attribution residual| of a run. */
    IncidentResidual,
};

/** Breach direction. */
enum class AlertOp : std::uint8_t
{
    /** Fires while value < threshold (e.g. UPS charge low). */
    Below,
    /** Fires while value > threshold (e.g. failure rate high). */
    Above,
};

/** One declared rule. */
struct AlertRule
{
    /** Stable identifier ("ups_charge_low", ...). */
    std::string name;
    AlertSource source = AlertSource::Signal;

    /** @name Signal source */
    ///@{
    obs::SignalId signal = obs::SignalId::BatterySoc;
    /** Simulated seconds a breach must sustain before firing. */
    double lookbackSec = 0.0;
    ///@}

    /** @name CounterRatio source */
    ///@{
    std::string numerator;
    std::string denominator;
    /** Ratio is 0 while the denominator is below this. */
    std::uint64_t minDenominator = 1;
    ///@}

    AlertOp op = AlertOp::Below;
    /** Warn/crit thresholds in the rule's value domain. */
    double warn = 0.0;
    double crit = 0.0;
    /**
     * Hysteresis: to leave a state the value must recover past the
     * state's threshold by this margin (same unit as the value), so
     * hovering at the threshold cannot flap the alert.
     */
    double clearMargin = 0.0;
    /** One-line human description (the health-guide text). */
    std::string info;
};

/** One fired/cleared transition. */
struct AlertEvent
{
    std::string rule;
    /** Trial of the evidence (0 for registry/incident rules). */
    std::uint64_t trial = 0;
    /** Simulated time of the transition (0 for non-signal rules). */
    Time t = 0;
    AlertState from = AlertState::Clear;
    AlertState to = AlertState::Clear;
    /** The evaluated value at the transition. */
    double value = 0.0;
};

/** Point-in-time state of one rule. */
struct AlertStatus
{
    AlertState state = AlertState::Clear;
    /** Last evaluated value (rule-domain units). */
    double value = 0.0;
    /** Transitions recorded for this rule so far. */
    std::uint64_t transitions = 0;
};

/**
 * Walk one channel's points through the rule's threshold state
 * machine (pure function; the unit the golden tests pin). Returns
 * the transitions in time order; @p final_state receives the state
 * after the last sample when provided.
 */
std::vector<AlertEvent> evaluateSignalRule(
    const AlertRule &rule, std::uint64_t trial,
    const std::vector<obs::SeriesPoint> &points,
    AlertState *final_state = nullptr);

/** The engine: rule book + per-rule state + event log. */
class AlertEngine
{
  public:
    explicit AlertEngine(std::vector<AlertRule> rules);

    const std::vector<AlertRule> &rules() const { return rules_; }

    /**
     * Evaluate every rule against the evidence of one campaign run:
     * @p series for Signal rules (may be null), @p counters for
     * CounterRatio rules (may be null), @p maxResidualMin — the
     * largest |per-trial incident attribution residual| — for
     * IncidentResidual rules (may be null). Returns this round's
     * transitions (also appended to the internal log) and updates
     * per-rule states.
     */
    std::vector<AlertEvent> evaluate(
        const obs::TimeSeriesStore *series,
        const std::map<std::string, std::uint64_t> *counters,
        const double *maxResidualMin);

    /** Current status of @p rule (nullopt for unknown names). */
    std::optional<AlertStatus> status(const std::string &rule) const;

    /** Every transition recorded since construction. */
    std::vector<AlertEvent> eventLog() const;

    /**
     * Export ALERTS-style gauges into @p reg: `alert.<rule>.state`
     * (0/1/2), `alert.<rule>.value` and `alert.<rule>.transitions`
     * per rule. The /metrics exposition then carries them as
     * `bpsim_alert_<rule>_state` etc.
     */
    void exportTo(obs::Registry &reg) const;

    /** JSON document: {"alerts": [{rule, state, value, info}...]}. */
    std::string toJson() const;

  private:
    std::vector<AlertRule> rules_;

    mutable std::mutex m_;
    std::map<std::string, AlertStatus> status_;
    std::vector<AlertEvent> log_;
};

/**
 * Render @p events one per line as
 * `<rule> trial=<trial> t=<sim_us> <from>-><to> value=<value>` —
 * the byte-stable form the golden transition tests pin.
 */
std::string formatAlertEvents(const std::vector<AlertEvent> &events);

/**
 * The default rule book (the netdata-style health guide this service
 * ships with): UPS charge low, DG start-failure rate, backup
 * exhaustion rate, unattributed-downtime residual. Documented in
 * docs/SERVICE.md.
 */
std::vector<AlertRule> defaultAlertRules();

} // namespace service
} // namespace bpsim

#endif // BPSIM_SERVICE_ALERTS_HH
