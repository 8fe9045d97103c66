/**
 * @file
 * Tests for the thread pool: exactly-once execution, claiming under
 * skew, nesting, and concurrent submissions.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "campaign/thread_pool.hh"

namespace bpsim
{
namespace
{

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    constexpr std::uint64_t kN = 20000;
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](std::uint64_t i) { ++hits[i]; });
    for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ExactlyOnceUnderSkewedWork)
{
    // Front-loaded cost: the other workers keep claiming past the
    // slow items.
    constexpr std::uint64_t kN = 256;
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](std::uint64_t i) {
        if (i < 8)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++hits[i];
    });
    for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsAll)
{
    constexpr std::uint64_t kN = 1000;
    ThreadPool pool(1);
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(kN, [&](std::uint64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPool, ZeroItemsReturnsImmediately)
{
    ThreadPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](std::uint64_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> inner_total{0};
    pool.parallelFor(4, [&](std::uint64_t) {
        pool.parallelFor(8, [&](std::uint64_t) { ++inner_total; });
    });
    EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPool, ConcurrentSubmissionRunsInline)
{
    // The first job holds its items until the second submission has
    // run; the second, arriving while the first is in flight, must run
    // inline on its own thread.
    constexpr std::uint64_t kN = 64;
    ThreadPool pool(2);
    std::vector<std::atomic<int>> first(kN), second(kN);
    std::promise<void> started;
    std::shared_future<void> started_f = started.get_future().share();
    std::promise<void> done;
    std::shared_future<void> done_f = done.get_future().share();
    std::atomic<bool> signalled{false};

    std::thread a([&] {
        pool.parallelFor(kN, [&](std::uint64_t i) {
            if (!signalled.exchange(true))
                started.set_value();
            done_f.wait();
            ++first[i];
        });
    });
    std::thread b([&] {
        started_f.wait();
        const auto self = std::this_thread::get_id();
        std::atomic<int> elsewhere{0};
        pool.parallelFor(kN, [&](std::uint64_t i) {
            if (std::this_thread::get_id() != self)
                ++elsewhere;
            ++second[i];
        });
        EXPECT_EQ(elsewhere.load(), 0) << "second job left its thread";
        done.set_value();
    });
    a.join();
    b.join();
    for (std::uint64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(first[i].load(), 1) << "first job, index " << i;
        ASSERT_EQ(second[i].load(), 1) << "second job, index " << i;
    }
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(round + 1,
                         [&](std::uint64_t i) { sum += i + 1; });
        const std::uint64_t n = static_cast<std::uint64_t>(round) + 1;
        ASSERT_EQ(sum.load(), n * (n + 1) / 2);
    }
}

TEST(ThreadPool, DefaultsToHardwareThreads)
{
    ThreadPool pool;
    EXPECT_EQ(pool.threadCount(), ThreadPool::hardwareThreads());
    EXPECT_GE(ThreadPool::hardwareThreads(), 1);
}

} // namespace
} // namespace bpsim
