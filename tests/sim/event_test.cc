/**
 * @file
 * Unit tests for EventFn / EventHandle / EventQueue: ordering, cancel
 * and generation semantics, lazy deletion and slot reuse.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "sim/event.hh"

namespace bpsim
{
namespace
{

static_assert(std::is_trivially_copyable_v<EventFn>,
              "EventFn is copied by value into and out of the pool");

/** Run every runnable event in order. */
void
drain(EventQueue &q)
{
    while (!q.empty())
        q.pop()();
}

TEST(EventQueue, EmptyInitially)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTime(), kTimeNever);
}

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.push(30 * kSecond, EventPriority::Normal, [&] { order.push_back(3); });
    q.push(10 * kSecond, EventPriority::Normal, [&] { order.push_back(1); });
    q.push(20 * kSecond, EventPriority::Normal, [&] { order.push_back(2); });
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTimestampTies)
{
    EventQueue q;
    std::vector<int> order;
    q.push(kSecond, EventPriority::Stats, [&] { order.push_back(3); });
    q.push(kSecond, EventPriority::Power, [&] { order.push_back(1); });
    q.push(kSecond, EventPriority::Normal, [&] { order.push_back(2); });
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, InsertionOrderBreaksFullTies)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        q.push(kSecond, EventPriority::Normal,
               [&order, i] { order.push_back(i); });
    }
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelledEventIsSkipped)
{
    EventQueue q;
    bool ran = false;
    auto h = q.push(kSecond, EventPriority::Normal, [&] { ran = true; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelOneOfManyLeavesOthers)
{
    EventQueue q;
    int ran = 0;
    auto h1 = q.push(kSecond, EventPriority::Normal, [&] { ++ran; });
    q.push(2 * kSecond, EventPriority::Normal, [&] { ++ran; });
    h1.cancel();
    EXPECT_EQ(q.nextTime(), 2 * kSecond);
    drain(q);
    EXPECT_EQ(ran, 1);
}

TEST(EventQueue, RawSizeCountsCancelledEntriesUntilTheyReachTheTop)
{
    EventQueue q;
    q.push(kSecond, EventPriority::Normal, [] {});
    auto mid = q.push(2 * kSecond, EventPriority::Normal, [] {});
    auto last = q.push(3 * kSecond, EventPriority::Normal, [] {});
    last.cancel();
    mid.cancel();
    // Cancelling frees the slots but leaves both heap entries.
    EXPECT_EQ(q.rawSize(), 3u);
    EXPECT_EQ(q.nextTime(), kSecond);
    EXPECT_EQ(q.rawSize(), 3u);
    q.pop()();
    // The cancelled 2 s entry is on top now but not yet dropped.
    EXPECT_EQ(q.rawSize(), 2u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.rawSize(), 0u);
}

TEST(EventQueue, OrderSurvivesInterleavedCancelAndReuse)
{
    // Slots are reused in LIFO order, so the pool order says nothing
    // about the run order: only (time, priority, sequence) does.
    EventQueue q;
    std::vector<int> order;
    std::vector<EventHandle> hs;
    for (int i = 0; i < 8; ++i) {
        hs.push_back(q.push((8 - i) * kSecond, EventPriority::Normal,
                            [&order, i] { order.push_back(i); }));
    }
    for (int i = 0; i < 8; i += 2)
        hs[i].cancel();
    for (int i = 8; i < 12; ++i) {
        q.push(kSecond, i % 2 ? EventPriority::Power : EventPriority::Stats,
               [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(q.poolSize(), 8u);
    drain(q);
    EXPECT_EQ(order, (std::vector<int>{9, 11, 7, 8, 10, 5, 3, 1}));
}

TEST(EventHandle, DefaultHandleIsInert)
{
    EventHandle h;
    EXPECT_FALSE(h.pending());
    EXPECT_EQ(h.when(), kTimeNever);
    h.cancel(); // must not crash
}

TEST(EventHandle, WhenReportsScheduledTime)
{
    EventQueue q;
    auto h = q.push(42 * kSecond, EventPriority::Normal, [] {});
    EXPECT_EQ(h.when(), 42 * kSecond);
    q.pop()();
    EXPECT_EQ(h.when(), kTimeNever);
}

TEST(EventHandle, StaleHandleOfAReusedSlotIsInert)
{
    EventQueue q;
    int old_runs = 0;
    int new_runs = 0;
    auto old_h =
        q.push(kSecond, EventPriority::Normal, [&] { ++old_runs; });
    old_h.cancel();
    auto new_h =
        q.push(2 * kSecond, EventPriority::Normal, [&] { ++new_runs; });
    EXPECT_EQ(q.poolSize(), 1u); // the new event took the freed slot
    EXPECT_FALSE(old_h.pending());
    EXPECT_EQ(old_h.when(), kTimeNever);
    old_h.cancel();
    EXPECT_TRUE(new_h.pending());
    EXPECT_EQ(new_h.when(), 2 * kSecond);
    drain(q);
    EXPECT_EQ(old_runs, 0);
    EXPECT_EQ(new_runs, 1);

    // Same after the old event ran instead of being cancelled.
    auto ran_h = q.push(3 * kSecond, EventPriority::Normal, [] {});
    q.pop()();
    auto next_h =
        q.push(4 * kSecond, EventPriority::Normal, [&] { ++new_runs; });
    EXPECT_EQ(q.poolSize(), 1u);
    ran_h.cancel();
    EXPECT_FALSE(ran_h.pending());
    EXPECT_TRUE(next_h.pending());
    drain(q);
    EXPECT_EQ(new_runs, 2);
}

TEST(Event, ExecuteRunsOnlyOnce)
{
    EventQueue q;
    int runs = 0;
    auto h = q.push(0, EventPriority::Normal, [&] { ++runs; });
    q.pop()();
    EXPECT_FALSE(h.pending());
    h.cancel(); // already retired: a no-op
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.rawSize(), 0u);
    EXPECT_EQ(runs, 1);
}

TEST(Event, CancelledEventNeverRuns)
{
    EventQueue q;
    int runs = 0;
    auto h = q.push(0, EventPriority::Normal, [&] { ++runs; });
    h.cancel();
    h.cancel();
    q.push(kSecond, EventPriority::Normal, [] {});
    drain(q);
    EXPECT_EQ(runs, 0);
}

TEST(EventQueue, CancelRearmChurnStopsGrowingThePool)
{
    // The PowerHierarchy::recomputeMix pattern: every step cancels and
    // re-arms two far-off events. Live events stay at three, so after
    // the first step the pool must not grow, and lazily cancelled
    // entries leave the heap as they surface.
    EventQueue q;
    Time now = 0;
    EventHandle depletion;
    EventHandle fuel;
    int fired = 0;
    std::size_t pool_after_warmup = 0;
    std::size_t max_raw = 0;
    q.push(0, EventPriority::Normal, [] {});
    for (int step = 0; step < 50000; ++step) {
        ASSERT_FALSE(q.empty());
        now = q.nextTime();
        q.pop()();
        depletion.cancel();
        fuel.cancel();
        depletion = q.push(now + kHour, EventPriority::Power,
                           [&fired] { ++fired; });
        fuel = q.push(now + 8 * kHour, EventPriority::Power,
                      [&fired] { ++fired; });
        q.push(now + 10 * kMinute, EventPriority::Normal, [] {});
        if (step == 0)
            pool_after_warmup = q.poolSize();
        max_raw = std::max(max_raw, q.rawSize());
    }
    EXPECT_EQ(pool_after_warmup, 3u);
    EXPECT_EQ(q.poolSize(), pool_after_warmup);
    EXPECT_EQ(fired, 0);
    // 8 h of cancelled fuel events, 1 h of depletion events, 3 live.
    EXPECT_LE(max_raw, 48u + 6u + 3u);
}

} // namespace
} // namespace bpsim
