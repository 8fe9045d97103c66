#include "service/alerts.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace bpsim
{
namespace service
{

namespace
{

/** Does @p v breach @p threshold in the rule's direction? */
bool
breaches(const AlertRule &rule, double v, double threshold)
{
    return rule.op == AlertOp::Below ? v < threshold : v > threshold;
}

/** Has @p v recovered past @p threshold by the hysteresis margin? */
bool
recovered(const AlertRule &rule, double v, double threshold)
{
    return rule.op == AlertOp::Below
               ? v >= threshold + rule.clearMargin
               : v <= threshold - rule.clearMargin;
}

/**
 * Instantaneous (dwell-free) state machine step shared by the
 * registry-backed sources: escalate on breach, demote only past the
 * hysteresis margin.
 */
AlertState
stepInstant(const AlertRule &rule, AlertState state, double v)
{
    if (breaches(rule, v, rule.crit))
        return AlertState::Critical;
    if (state == AlertState::Critical && !recovered(rule, v, rule.crit))
        return AlertState::Critical;
    if (breaches(rule, v, rule.warn))
        return AlertState::Warning;
    if (state != AlertState::Clear && !recovered(rule, v, rule.warn))
        return AlertState::Warning;
    return AlertState::Clear;
}

} // namespace

const char *
alertStateName(AlertState s)
{
    switch (s) {
    case AlertState::Clear:
        return "clear";
    case AlertState::Warning:
        return "warning";
    case AlertState::Critical:
        return "critical";
    }
    return "?";
}

std::vector<AlertEvent>
evaluateSignalRule(const AlertRule &rule, std::uint64_t trial,
                   const std::vector<obs::SeriesPoint> &points,
                   AlertState *final_state)
{
    std::vector<AlertEvent> events;
    AlertState state = AlertState::Clear;
    const Time dwell = fromSeconds(rule.lookbackSec);
    // Time each threshold has been continuously breached since, or -1.
    Time warn_since = -1, crit_since = -1;

    const auto transition = [&](Time t, AlertState to, double v) {
        events.push_back({rule.name, trial, t, state, to, v});
        state = to;
    };

    for (const auto &p : points) {
        const double v = p.value;
        // Dwell clocks.
        if (breaches(rule, v, rule.crit)) {
            if (crit_since < 0)
                crit_since = p.t;
        } else {
            crit_since = -1;
        }
        if (breaches(rule, v, rule.warn)) {
            if (warn_since < 0)
                warn_since = p.t;
        } else {
            warn_since = -1;
        }

        // Escalation (dwell-gated).
        if (state != AlertState::Critical && crit_since >= 0 &&
            p.t - crit_since >= dwell) {
            transition(p.t, AlertState::Critical, v);
            continue;
        }
        if (state == AlertState::Clear && warn_since >= 0 &&
            p.t - warn_since >= dwell) {
            transition(p.t, AlertState::Warning, v);
            continue;
        }

        // Demotion (hysteresis-gated, immediate).
        if (state == AlertState::Critical &&
            recovered(rule, v, rule.crit)) {
            if (breaches(rule, v, rule.warn) ||
                !recovered(rule, v, rule.warn))
                transition(p.t, AlertState::Warning, v);
            else
                transition(p.t, AlertState::Clear, v);
            continue;
        }
        if (state == AlertState::Warning &&
            recovered(rule, v, rule.warn))
            transition(p.t, AlertState::Clear, v);
    }
    if (final_state != nullptr)
        *final_state = state;
    return events;
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules)
    : rules_(std::move(rules))
{
    for (const auto &r : rules_)
        status_[r.name] = AlertStatus{};
}

std::vector<AlertEvent>
AlertEngine::evaluate(const obs::TimeSeriesStore *series,
                      const std::map<std::string, std::uint64_t> *counters,
                      const double *maxResidualMin)
{
    std::vector<AlertEvent> round;
    std::lock_guard<std::mutex> lk(m_);

    for (const auto &rule : rules_) {
        AlertStatus &st = status_[rule.name];
        switch (rule.source) {
        case AlertSource::Signal: {
            if (series == nullptr)
                break;
            // Each campaign run re-evaluates from scratch: the run's
            // channels are independent simulated years, so the
            // rule's post-run state is the worst channel-final state.
            AlertState worst = AlertState::Clear;
            double last_value = st.value;
            bool saw_channel = false;
            for (const auto &ch : series->channels()) {
                if (ch.signal != rule.signal || ch.begin == ch.end)
                    continue;
                saw_channel = true;
                std::vector<obs::SeriesPoint> pts;
                pts.reserve(ch.end - ch.begin);
                for (std::size_t i = ch.begin; i < ch.end; ++i)
                    pts.push_back({series->times()[i],
                                   series->values()[i]});
                AlertState fin = AlertState::Clear;
                auto ev =
                    evaluateSignalRule(rule, ch.trial, pts, &fin);
                round.insert(round.end(), ev.begin(), ev.end());
                st.transitions += ev.size();
                worst = std::max(worst, fin);
                last_value = pts.back().value;
            }
            if (saw_channel) {
                st.state = worst;
                st.value = last_value;
            }
            break;
        }
        case AlertSource::CounterRatio: {
            if (counters == nullptr)
                break;
            const auto get = [counters](const std::string &name) {
                const auto it = counters->find(name);
                return it == counters->end() ? std::uint64_t{0}
                                             : it->second;
            };
            const std::uint64_t den = get(rule.denominator);
            const double v =
                den >= rule.minDenominator
                    ? static_cast<double>(get(rule.numerator)) /
                          static_cast<double>(den)
                    : 0.0;
            const AlertState next = stepInstant(rule, st.state, v);
            if (next != st.state) {
                round.push_back(
                    {rule.name, 0, 0, st.state, next, v});
                ++st.transitions;
                st.state = next;
            }
            st.value = v;
            break;
        }
        case AlertSource::IncidentResidual: {
            if (maxResidualMin == nullptr)
                break;
            const double v = *maxResidualMin;
            const AlertState next = stepInstant(rule, st.state, v);
            if (next != st.state) {
                round.push_back(
                    {rule.name, 0, 0, st.state, next, v});
                ++st.transitions;
                st.state = next;
            }
            st.value = v;
            break;
        }
        }
    }

    log_.insert(log_.end(), round.begin(), round.end());
    return round;
}

std::optional<AlertStatus>
AlertEngine::status(const std::string &rule) const
{
    std::lock_guard<std::mutex> lk(m_);
    const auto it = status_.find(rule);
    if (it == status_.end())
        return std::nullopt;
    return it->second;
}

std::vector<AlertEvent>
AlertEngine::eventLog() const
{
    std::lock_guard<std::mutex> lk(m_);
    return log_;
}

void
AlertEngine::exportTo(obs::Registry &reg) const
{
    std::lock_guard<std::mutex> lk(m_);
    for (const auto &rule : rules_) {
        const AlertStatus &st = status_.at(rule.name);
        const std::string base = "alert." + rule.name;
        reg.gauge(base + ".state")
            .set(static_cast<double>(
                static_cast<std::uint8_t>(st.state)));
        reg.gauge(base + ".value").set(st.value);
        reg.gauge(base + ".transitions")
            .set(static_cast<double>(st.transitions));
    }
}

std::string
AlertEngine::toJson() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("alerts").beginArray();
    for (const auto &rule : rules_) {
        const AlertStatus &st = status_.at(rule.name);
        w.beginObject();
        w.field("rule", rule.name);
        w.field("state", alertStateName(st.state));
        w.field("value", st.value);
        w.field("transitions", st.transitions);
        w.field("warn", rule.warn);
        w.field("crit", rule.crit);
        w.field("info", rule.info);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

std::string
formatAlertEvents(const std::vector<AlertEvent> &events)
{
    std::ostringstream os;
    for (const auto &e : events) {
        char value[32];
        std::snprintf(value, sizeof value, "%.17g", e.value);
        os << e.rule << " trial=" << e.trial << " t=" << e.t << ' '
           << alertStateName(e.from) << "->" << alertStateName(e.to)
           << " value=" << value << '\n';
    }
    return os.str();
}

std::vector<AlertRule>
defaultAlertRules()
{
    std::vector<AlertRule> rules;

    // The netdata apcupsd_ups_charge idiom: warn while the battery
    // is visibly draining, critical when it nears exhaustion. The
    // one-minute dwell matches netdata's lookback average.
    AlertRule ups;
    ups.name = "ups_charge_low";
    ups.source = AlertSource::Signal;
    ups.signal = obs::SignalId::BatterySoc;
    ups.op = AlertOp::Below;
    ups.warn = 0.60;
    ups.crit = 0.25;
    ups.lookbackSec = 60.0;
    ups.clearMargin = 0.05;
    ups.info = "UPS battery state of charge low; the cluster will "
               "lose power if the outage outlasts the battery";
    rules.push_back(ups);

    // DG reliability: the paper's availability arithmetic assumes a
    // ~0.75%-per-start failure rate; an elevated rate breaks it.
    AlertRule dg;
    dg.name = "dg_start_failures";
    dg.source = AlertSource::CounterRatio;
    dg.numerator = "dg.starts_failed";
    dg.denominator = "dg.starts";
    dg.minDenominator = 10;
    dg.op = AlertOp::Above;
    dg.warn = 0.05;
    dg.crit = 0.25;
    dg.clearMargin = 0.01;
    dg.info = "diesel generator start-failure rate above the "
              "provisioning model's assumption";
    rules.push_back(dg);

    // Backup exhaustion: outages that outlast every backup layer.
    AlertRule depleted;
    depleted.name = "backup_depleted";
    depleted.source = AlertSource::CounterRatio;
    depleted.numerator = "power.backup_depleted";
    depleted.denominator = "power.outages";
    depleted.minDenominator = 10;
    depleted.op = AlertOp::Above;
    depleted.warn = 0.02;
    depleted.crit = 0.10;
    depleted.clearMargin = 0.005;
    depleted.info = "fraction of utility outages that exhausted the "
                    "backup chain";
    rules.push_back(depleted);

    // Forensic self-check: the incident engine must attribute every
    // second of downtime; a residual means the books do not balance.
    AlertRule residual;
    residual.name = "unattributed_downtime";
    residual.source = AlertSource::IncidentResidual;
    residual.op = AlertOp::Above;
    residual.warn = 1e-3;
    residual.crit = 1.0;
    residual.clearMargin = 0.0;
    residual.info = "minutes of downtime the incident engine could "
                    "not attribute to a root cause";
    rules.push_back(residual);

    return rules;
}

} // namespace service
} // namespace bpsim
