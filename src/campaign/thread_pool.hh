/**
 * @file
 * A work-stealing pool of persistent worker threads executing
 * parallel-for jobs over dense index ranges [0, n).
 *
 * Each worker owns a deque of index ranges: it pops work from the
 * front of its own deque (splitting ranges as it goes so thieves
 * always find the larger back half) and steals from the back of a
 * victim's deque when its own runs dry. Jobs are coarse-grained
 * simulation trials, so the deques are mutex-guarded rather than
 * lock-free — contention is negligible next to the per-item work and
 * the implementation stays obviously race-free under TSan.
 *
 * The pool makes no ordering promises; callers that need
 * deterministic aggregation must re-order results themselves (see
 * campaign/runner.hh, which buffers results and consumes them in
 * strict index order precisely so that campaign statistics are
 * bit-identical for any thread count).
 */

#ifndef BPSIM_CAMPAIGN_THREAD_POOL_HH
#define BPSIM_CAMPAIGN_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bpsim
{

/** Persistent work-stealing thread pool for parallel-for jobs. */
class WorkStealingPool
{
  public:
    /** Spawn @p threads workers; 0 means hardwareThreads(). */
    explicit WorkStealingPool(int threads = 0);
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /** Number of worker threads. */
    int threadCount() const { return static_cast<int>(workers.size()); }

    /** Process-wide pool, sized to the hardware, created on first use. */
    static WorkStealingPool &shared();

    /** Worker count used for `threads == 0` (>= 1). */
    static int hardwareThreads();

    /**
     * Run fn(i) for every i in [0, n), blocking until every item has
     * run. Each item runs exactly once, on exactly one worker.
     *
     * Calls from within a worker of this pool (or while another job
     * is in flight) degrade to a serial inline loop, so nesting can
     * never deadlock.
     */
    void parallelFor(std::uint64_t n,
                     const std::function<void(std::uint64_t)> &fn);

  private:
    /** Half-open index range [begin, end). */
    struct Range
    {
        std::uint64_t begin;
        std::uint64_t end;
    };

    /** One worker's deque of pending ranges. */
    struct Slot
    {
        std::mutex m;
        std::deque<Range> dq;
    };

    /** One in-flight parallelFor call. */
    struct Job
    {
        const std::function<void(std::uint64_t)> *fn = nullptr;
        /** Items not yet run; guarded by done_m. */
        std::uint64_t remaining = 0;
        /** Workers currently inside runJob; guarded by the pool's job_m. */
        int active = 0;
        std::mutex done_m;
        std::condition_variable done_cv;
    };

    void workerLoop(std::size_t self);
    void runJob(std::size_t self, Job *j);
    bool popLocal(std::size_t self, Range &out);
    bool steal(std::size_t self, Range &out);
    void finishItems(Job *j, std::uint64_t count);

    std::vector<std::unique_ptr<Slot>> slots;
    std::vector<std::thread> workers;

    /** Serializes parallelFor submissions. */
    std::mutex submit_m;

    std::mutex job_m;
    std::condition_variable job_cv;
    Job *job = nullptr;      // guarded by job_m
    std::uint64_t epoch = 0; // guarded by job_m
    bool shutdown = false;   // guarded by job_m
};

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_THREAD_POOL_HH
