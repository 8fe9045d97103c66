/**
 * @file
 * A pool of persistent worker threads executing parallel-for jobs over
 * dense index ranges [0, n).
 *
 * A job hands out its indices from one claim counter: each worker
 * takes the next unclaimed index until none is left, so items start in
 * index order and a slow item holds up only the worker running it.
 * Jobs are coarse-grained (campaign workers, technique evaluations),
 * so the counter sits under a mutex: one lock per claim costs nothing
 * next to the item itself.
 *
 * The pool makes no ordering promises about completion; callers that
 * need deterministic aggregation must re-order results themselves (see
 * campaign/runner.hh, which buffers results and consumes them in
 * strict index order precisely so that campaign statistics are
 * bit-identical for any thread count).
 */

#ifndef BPSIM_CAMPAIGN_THREAD_POOL_HH
#define BPSIM_CAMPAIGN_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bpsim
{

/** Persistent thread pool for parallel-for jobs. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers; 0 means hardwareThreads(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int threadCount() const { return static_cast<int>(workers.size()); }

    /** Process-wide pool, sized to the hardware, created on first use. */
    static ThreadPool &shared();

    /** Worker count used for `threads == 0` (>= 1). */
    static int hardwareThreads();

    /**
     * Run fn(i) for every i in [0, n), blocking until every item has
     * run. Each item runs exactly once, on exactly one worker.
     *
     * Calls from within a worker of this pool (or while another job
     * is in flight) degrade to a serial inline loop on the calling
     * thread, so nesting can never deadlock.
     */
    void parallelFor(std::uint64_t n,
                     const std::function<void(std::uint64_t)> &fn);

  private:
    /** One in-flight parallelFor call. */
    struct Job
    {
        const std::function<void(std::uint64_t)> *fn = nullptr;
        std::uint64_t n = 0;
        /** Workers currently inside runJob; guarded by the pool's job_m. */
        int active = 0;
        std::mutex m;
        /** Next index to claim; guarded by m. */
        std::uint64_t next = 0;
        /** Items not yet finished; guarded by m. */
        std::uint64_t remaining = 0;
        std::condition_variable done_cv;
    };

    void workerLoop();
    static void runJob(Job *j);

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
