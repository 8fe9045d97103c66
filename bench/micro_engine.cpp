/**
 * @file
 * Google-benchmark microbenchmarks of the simulation engine itself:
 * event throughput, battery integration, timeline queries, and the
 * cost of a full end-to-end outage scenario. These guard the harness's
 * own performance (the figure benches run hundreds of scenarios).
 */

#include <benchmark/benchmark.h>

#include <functional>

#include "core/analyzer.hh"
#include "power/battery.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/timeline.hh"

using namespace bpsim;

namespace
{

void
BM_EventScheduleExecute(benchmark::State &state)
{
    for (auto _ : state) {
        Simulator sim;
        const int n = static_cast<int>(state.range(0));
        for (int i = 0; i < n; ++i)
            sim.schedule(i * kMillisecond, [] {});
        sim.run();
        benchmark::DoNotOptimize(sim.executedEvents());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventScheduleExecute)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_EventCascade(benchmark::State &state)
{
    // Self-rescheduling event chain: the simulator hot path.
    for (auto _ : state) {
        Simulator sim;
        const int n = static_cast<int>(state.range(0));
        int count = 0;
        std::function<void()> chain = [&] {
            if (++count < n)
                sim.schedule(kMillisecond, [&chain] { chain(); });
        };
        sim.schedule(kMillisecond, [&chain] { chain(); });
        sim.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventCascade)->Arg(10000);

void
BM_EventCancelRearm(benchmark::State &state)
{
    // The PowerHierarchy::recomputeMix pattern: each step cancels a
    // far-off event and re-arms it, so cancelled entries pile up in the
    // heap until they surface (lazy deletion).
    for (auto _ : state) {
        Simulator sim;
        const int n = static_cast<int>(state.range(0));
        int count = 0;
        EventHandle depletion;
        std::function<void()> step = [&] {
            depletion.cancel();
            depletion = sim.schedule(kHour, [] {}, "battery-empty",
                                     EventPriority::Power);
            if (++count < n)
                sim.schedule(kMinute, [&step] { step(); });
        };
        sim.schedule(kMinute, [&step] { step(); });
        sim.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventCancelRearm)->Arg(10000);

void
BM_BatteryDischarge(benchmark::State &state)
{
    PeukertBattery::Params p;
    p.ratedPowerW = 4000.0;
    p.runtimeAtRatedSec = 1e9;
    PeukertBattery bat(p);
    for (auto _ : state) {
        bat.discharge(2000.0 + (state.iterations() % 100), kSecond);
        benchmark::DoNotOptimize(bat.soc());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BatteryDischarge);

void
BM_TimelineIntegrate(benchmark::State &state)
{
    Timeline tl(0.0);
    for (int i = 0; i < 10000; ++i)
        tl.record(i * kSecond, (i % 7) * 100.0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tl.integrate(100 * kSecond, 9000 * kSecond));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimelineIntegrate);

void
BM_FullScenario(benchmark::State &state)
{
    setQuietLogging(true);
    Analyzer a;
    Scenario sc;
    sc.profile = specJbbProfile();
    sc.nServers = static_cast<int>(state.range(0));
    sc.outageDuration = fromMinutes(30.0);
    sc.technique = {TechniqueKind::ThrottleSleep, 5, 0, 10 * kMinute,
                    true};
    for (auto _ : state) {
        const auto ev = a.evaluateConfig(sc, largeEUpsConfig());
        benchmark::DoNotOptimize(ev.result.downtimeSec);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullScenario)->Arg(8)->Arg(32)->Arg(128);

void
BM_SizingPass(benchmark::State &state)
{
    setQuietLogging(true);
    Analyzer a;
    Scenario sc;
    sc.profile = memcachedProfile();
    sc.nServers = 8;
    sc.outageDuration = fromMinutes(30.0);
    sc.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    for (auto _ : state) {
        const auto ev = a.sizeUpsOnly(sc);
        benchmark::DoNotOptimize(ev.costPerYr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SizingPass);

} // namespace

BENCHMARK_MAIN();
