/**
 * @file
 * Tests for the work-stealing thread pool: exactly-once execution,
 * stealing under skew, and nesting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "campaign/thread_pool.hh"

namespace bpsim
{
namespace
{

TEST(WorkStealingPool, RunsEveryIndexExactlyOnce)
{
    constexpr std::uint64_t kN = 20000;
    WorkStealingPool pool(4);
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](std::uint64_t i) { ++hits[i]; });
    for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkStealingPool, ExactlyOnceUnderSkewedWork)
{
    // Front-loaded cost forces thieves to rebalance.
    constexpr std::uint64_t kN = 256;
    WorkStealingPool pool(4);
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](std::uint64_t i) {
        if (i < 8)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++hits[i];
    });
    for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

TEST(WorkStealingPool, SingleWorkerRunsAll)
{
    constexpr std::uint64_t kN = 1000;
    WorkStealingPool pool(1);
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(kN, [&](std::uint64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(WorkStealingPool, ZeroItemsReturnsImmediately)
{
    WorkStealingPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](std::uint64_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(WorkStealingPool, NestedCallsRunInlineWithoutDeadlock)
{
    WorkStealingPool pool(2);
    std::atomic<int> inner_total{0};
    pool.parallelFor(4, [&](std::uint64_t) {
        pool.parallelFor(8, [&](std::uint64_t) { ++inner_total; });
    });
    EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(WorkStealingPool, ReusableAcrossJobs)
{
    WorkStealingPool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(round + 1,
                         [&](std::uint64_t i) { sum += i + 1; });
        const std::uint64_t n = static_cast<std::uint64_t>(round) + 1;
        ASSERT_EQ(sum.load(), n * (n + 1) / 2);
    }
}

TEST(WorkStealingPool, DefaultsToHardwareThreads)
{
    WorkStealingPool pool;
    EXPECT_EQ(pool.threadCount(), WorkStealingPool::hardwareThreads());
    EXPECT_GE(WorkStealingPool::hardwareThreads(), 1);
}

} // namespace
} // namespace bpsim
