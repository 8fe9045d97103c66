/**
 * @file
 * Unit tests for the Simulator kernel: clock advance, scheduling,
 * runUntil semantics, stop(), and error conditions.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "sim/simulator.hh"

// Count heap allocations so a test can show that the event engine
// allocates nothing once warmed up.
namespace
{
std::size_t g_allocations = 0;
}

void *
operator new(std::size_t n)
{
    ++g_allocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace bpsim
{
namespace
{

TEST(Simulator, StartsAtTimeZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, ClockAdvancesToEventTimes)
{
    Simulator sim;
    std::vector<Time> seen;
    sim.schedule(5 * kSecond, [&] { seen.push_back(sim.now()); });
    sim.schedule(kMinute, [&] { seen.push_back(sim.now()); });
    sim.run();
    EXPECT_EQ(seen, (std::vector<Time>{5 * kSecond, kMinute}));
    EXPECT_EQ(sim.now(), kMinute);
}

TEST(Simulator, EventsCanScheduleMoreEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            sim.schedule(kSecond, [&chain] { chain(); });
    };
    sim.schedule(kSecond, [&chain] { chain(); });
    sim.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now(), 5 * kSecond);
}

TEST(Simulator, RunUntilStopsAtLimitAndAdvancesClock)
{
    Simulator sim;
    bool late_ran = false;
    sim.schedule(kHour, [&] { late_ran = true; });
    sim.runUntil(kMinute);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(sim.now(), kMinute);
    // Continuing past the limit executes the event.
    sim.runUntil(2 * kHour);
    EXPECT_TRUE(late_ran);
}

TEST(Simulator, RunUntilWithEmptyQueueAdvancesToLimit)
{
    Simulator sim;
    sim.runUntil(10 * kMinute);
    EXPECT_EQ(sim.now(), 10 * kMinute);
}

TEST(Simulator, EventExactlyAtLimitRuns)
{
    Simulator sim;
    bool ran = false;
    sim.schedule(kMinute, [&] { ran = true; });
    sim.runUntil(kMinute);
    EXPECT_TRUE(ran);
}

TEST(Simulator, StopHaltsTheLoop)
{
    Simulator sim;
    int ran = 0;
    sim.schedule(kSecond, [&] {
        ++ran;
        sim.stop();
    });
    sim.schedule(2 * kSecond, [&] { ++ran; });
    sim.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.now(), kSecond);
}

TEST(Simulator, CancelledEventDoesNotRun)
{
    Simulator sim;
    bool ran = false;
    auto h = sim.schedule(kSecond, [&] { ran = true; });
    h.cancel();
    sim.run();
    EXPECT_FALSE(ran);
}

TEST(Simulator, AbsoluteSchedulingWithAt)
{
    Simulator sim;
    Time seen = -1;
    sim.schedule(kSecond, [&] {
        sim.at(10 * kSecond, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(seen, 10 * kSecond);
}

TEST(Simulator, ExecutedEventsCounter)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.schedule(i * kSecond, [] {});
    sim.run();
    EXPECT_EQ(sim.executedEvents(), 7u);
}

TEST(Simulator, NegativeDelayPanics)
{
    Simulator sim;
    EXPECT_DEATH(sim.schedule(-1, [] {}), "negative delay");
}

TEST(Simulator, SchedulingInThePastPanics)
{
    Simulator sim;
    sim.schedule(kMinute, [&] {
        EXPECT_DEATH(sim.at(kSecond, [] {}), "in the past");
    });
    sim.run();
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        sim.schedule(kSecond, [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Simulator, CallbackSeesItsOwnHandleRetired)
{
    Simulator sim;
    EventHandle self;
    bool pending_inside = true;
    int later_runs = 0;
    self = sim.schedule(kSecond, [&] {
        pending_inside = self.pending();
        // The next event reuses this event's freed slot; cancelling the
        // stale handle must leave it alone.
        sim.schedule(kSecond, [&later_runs] { ++later_runs; });
        self.cancel();
    });
    sim.run();
    EXPECT_FALSE(pending_inside);
    EXPECT_EQ(later_runs, 1);
    EXPECT_EQ(sim.executedEvents(), 2u);
}

TEST(Simulator, CallbackCanGrowThePoolWhileRunning)
{
    // The callback runs from a copy, so its captures stay intact while
    // the 1000 events it schedules reallocate the pool under it.
    Simulator sim;
    std::vector<int> order;
    const int tag = 4242;
    sim.schedule(kSecond, [&sim, &order, tag] {
        for (int i = 0; i < 1000; ++i)
            sim.schedule(1000 - i, [&order, i] { order.push_back(i); });
        order.push_back(tag);
    });
    sim.run();
    ASSERT_EQ(order.size(), 1001u);
    EXPECT_EQ(order.front(), tag);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(order[1 + i], 999 - i);
    EXPECT_EQ(sim.executedEvents(), 1001u);
}

constexpr Time kYear = 365LL * 24 * kHour;

/** A year of load changes shaped like an annual trial's event traffic. */
struct YearChurn
{
    explicit YearChurn(Simulator &s) : sim(s) {}

    Simulator &sim;
    EventHandle depletion;
    EventHandle fuel;
    int steps = 0;
    int fired = 0;

    /**
     * Every load change cancels and re-arms the battery-depletion and
     * fuel-exhaustion events, as PowerHierarchy::recomputeMix does.
     */
    void
    loadChange()
    {
        ++steps;
        depletion.cancel();
        fuel.cancel();
        depletion = sim.schedule(kHour, [this] { ++fired; },
                                 "battery-empty", EventPriority::Power);
        fuel = sim.schedule(8 * kHour, [this] { ++fired; }, "dg-fuel-out",
                            EventPriority::Power);
        if (sim.now() + 10 * kMinute < kYear)
            sim.schedule(10 * kMinute, [this] { loadChange(); }, "load");
    }
};

TEST(Simulator, YearLongCancelRearmChurnAllocatesNothingAfterWarmUp)
{
    Simulator sim;
    YearChurn churn(sim);
    sim.at(0, [&churn] { churn.loadChange(); }, "load");
    // Warm-up: the first day sizes the pool and the heap.
    sim.runUntil(24 * kHour);
    const std::size_t before = g_allocations;
    sim.runUntil(kYear);
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_EQ(churn.steps, static_cast<int>(kYear / (10 * kMinute)));
    // Every armed pair was cancelled before its time came.
    EXPECT_EQ(churn.fired, 0);
}

} // namespace
} // namespace bpsim
