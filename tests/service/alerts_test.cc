/**
 * @file
 * Alert-engine tests: the dwell + hysteresis state machine on a
 * synthetic battery-charge trace (golden, byte-stable), the
 * counter-ratio and incident-residual sources, and the gauge /
 * OpenMetrics / JSON exports.
 */

#include "service/alerts.hh"

#include <sstream>

#include <gtest/gtest.h>

#include "obs/export.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

/** A Below rule with exact-binary thresholds so %.17g prints short. */
AlertRule
socRule()
{
    AlertRule r;
    r.name = "soc_low";
    r.source = AlertSource::Signal;
    r.signal = obs::SignalId::BatterySoc;
    r.op = AlertOp::Below;
    r.warn = 0.5;
    r.crit = 0.25;
    r.lookbackSec = 60.0;
    r.clearMargin = 0.0625;
    return r;
}

obs::SeriesPoint
at(double sec, double v)
{
    return {fromSeconds(sec), v};
}

} // namespace

TEST(AlertSignalRule, GoldenWarnCritClearedTransitions)
{
    // A battery draining through warn into critical, then recharging
    // back out: the canonical outage-and-recovery shape.
    const std::vector<obs::SeriesPoint> points = {
        at(0, 0.75),     // healthy
        at(60, 0.375),   // breaches warn; dwell clock starts
        at(120, 0.375),  // dwell met -> Warning
        at(180, 0.125),  // breaches crit; dwell clock starts
        at(240, 0.125),  // dwell met -> Critical
        at(300, 0.28125),// above crit but inside hysteresis: holds
        at(360, 0.375),  // recovered past crit margin -> Warning
        at(420, 0.625),  // recovered past warn margin -> Clear
    };
    AlertState final_state = AlertState::Critical;
    const auto events =
        evaluateSignalRule(socRule(), 3, points, &final_state);

    EXPECT_EQ(final_state, AlertState::Clear);
    // The byte-stable golden transcript the service's event log pins.
    EXPECT_EQ(formatAlertEvents(events),
              "soc_low trial=3 t=120000000 clear->warning value=0.375\n"
              "soc_low trial=3 t=240000000 warning->critical "
              "value=0.125\n"
              "soc_low trial=3 t=360000000 critical->warning "
              "value=0.375\n"
              "soc_low trial=3 t=420000000 warning->clear "
              "value=0.625\n");
}

TEST(AlertSignalRule, BlipShorterThanDwellNeverFires)
{
    // One sample below warn, recovered before the 60 s dwell elapses.
    const std::vector<obs::SeriesPoint> points = {
        at(0, 0.75), at(30, 0.375), at(59, 0.75), at(120, 0.75)};
    AlertState final_state = AlertState::Critical;
    const auto events =
        evaluateSignalRule(socRule(), 0, points, &final_state);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(final_state, AlertState::Clear);
}

TEST(AlertSignalRule, HoveringAtThresholdCannotFlap)
{
    // Oscillating across warn but never past the clear margin: one
    // firing, no clears.
    const std::vector<obs::SeriesPoint> points = {
        at(0, 0.4375),  at(60, 0.4375), // dwell met -> Warning
        at(120, 0.5),   // at warn, not recovered (needs >= 0.5625)
        at(180, 0.4375), at(240, 0.53125), at(300, 0.4375)};
    const auto events = evaluateSignalRule(socRule(), 0, points);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].to, AlertState::Warning);
}

TEST(AlertEngine, CounterRatioLadder)
{
    AlertRule r;
    r.name = "dg_fail";
    r.source = AlertSource::CounterRatio;
    r.numerator = "dg.starts_failed";
    r.denominator = "dg.starts";
    r.minDenominator = 10;
    r.op = AlertOp::Above;
    r.warn = 0.05;
    r.crit = 0.25;
    r.clearMargin = 0.01;
    AlertEngine engine({r});

    // Below the denominator floor: no evidence, no alert.
    std::map<std::string, std::uint64_t> counters = {
        {"dg.starts", 5}, {"dg.starts_failed", 5}};
    EXPECT_TRUE(engine.evaluate(nullptr, &counters, nullptr).empty());
    EXPECT_EQ(engine.status("dg_fail")->state, AlertState::Clear);

    // 30% failures: straight to critical.
    counters = {{"dg.starts", 100}, {"dg.starts_failed", 30}};
    auto fired = engine.evaluate(nullptr, &counters, nullptr);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].from, AlertState::Clear);
    EXPECT_EQ(fired[0].to, AlertState::Critical);
    EXPECT_EQ(fired[0].value, 0.3);

    // Recovered past the crit margin but still above warn: Warning.
    counters = {{"dg.starts", 100}, {"dg.starts_failed", 10}};
    fired = engine.evaluate(nullptr, &counters, nullptr);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].to, AlertState::Warning);

    // Fully recovered: Clear; three transitions on the books.
    counters = {{"dg.starts", 100}, {"dg.starts_failed", 1}};
    fired = engine.evaluate(nullptr, &counters, nullptr);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].to, AlertState::Clear);
    EXPECT_EQ(engine.status("dg_fail")->transitions, 3u);
    EXPECT_EQ(engine.eventLog().size(), 3u);
}

TEST(AlertEngine, IncidentResidualSource)
{
    AlertRule r;
    r.name = "residual";
    r.source = AlertSource::IncidentResidual;
    r.op = AlertOp::Above;
    r.warn = 1e-3;
    r.crit = 1.0;
    AlertEngine engine({r});

    double residual = 0.5; // minutes the forensics left unattributed
    auto fired = engine.evaluate(nullptr, nullptr, &residual);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].to, AlertState::Warning);

    residual = 2.0;
    fired = engine.evaluate(nullptr, nullptr, &residual);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].to, AlertState::Critical);

    residual = 0.0;
    fired = engine.evaluate(nullptr, nullptr, &residual);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].to, AlertState::Clear);
}

TEST(AlertEngine, SignalRulesWalkStoreChannels)
{
    AlertEngine engine({socRule()});
    // Two trials: one drains into warning, one stays healthy. The
    // rule's post-run state is the worst channel-final state.
    std::vector<obs::SignalSample> rows;
    for (int i = 0; i < 4; ++i)
        rows.push_back({0, fromSeconds(60.0 * i),
                        obs::SignalId::BatterySoc, 0.375});
    for (int i = 0; i < 4; ++i)
        rows.push_back({1, fromSeconds(60.0 * i),
                        obs::SignalId::BatterySoc, 0.75});
    const auto store =
        obs::TimeSeriesStore::fromSamples(std::move(rows));
    const auto fired = engine.evaluate(&store, nullptr, nullptr);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].trial, 0u);
    EXPECT_EQ(engine.status("soc_low")->state, AlertState::Warning);
}

TEST(AlertEngine, ExportsGaugesAndOpenMetrics)
{
    AlertRule r;
    r.name = "dg_fail";
    r.source = AlertSource::CounterRatio;
    r.numerator = "n";
    r.denominator = "d";
    r.minDenominator = 1;
    r.op = AlertOp::Above;
    r.warn = 0.05;
    r.crit = 0.25;
    AlertEngine engine({r});
    const std::map<std::string, std::uint64_t> counters = {{"d", 10},
                                                           {"n", 1}};
    engine.evaluate(nullptr, &counters, nullptr);

    obs::Registry reg;
    engine.exportTo(reg);
    EXPECT_EQ(reg.gauge("alert.dg_fail.state").value(), 1.0);
    EXPECT_EQ(reg.gauge("alert.dg_fail.value").value(), 0.1);
    EXPECT_EQ(reg.gauge("alert.dg_fail.transitions").value(), 1.0);

    std::ostringstream os;
    obs::writeOpenMetrics(os, reg);
    EXPECT_NE(os.str().find("bpsim_alert_dg_fail_state"),
              std::string::npos);
}

TEST(AlertEngine, JsonDocumentListsEveryRule)
{
    AlertEngine engine(defaultAlertRules());
    const std::string doc = engine.toJson();
    std::string err;
    const auto parsed = parseJson(doc, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    const JsonValue *alerts = parsed->find("alerts");
    ASSERT_NE(alerts, nullptr);
    ASSERT_EQ(alerts->kind(), JsonValue::Kind::Array);
    EXPECT_NE(doc.find("\"rule\":\"ups_charge_low\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"state\":\"clear\""), std::string::npos);
}

TEST(AlertEngine, DefaultRuleBookShape)
{
    const auto rules = defaultAlertRules();
    ASSERT_EQ(rules.size(), 4u);
    EXPECT_EQ(rules[0].name, "ups_charge_low");
    EXPECT_EQ(rules[0].source, AlertSource::Signal);
    EXPECT_EQ(rules[1].name, "dg_start_failures");
    EXPECT_EQ(rules[2].name, "backup_depleted");
    EXPECT_EQ(rules[3].name, "unattributed_downtime");
    EXPECT_EQ(rules[3].source, AlertSource::IncidentResidual);
    for (const auto &r : rules)
        EXPECT_FALSE(r.info.empty()) << r.name;
}
