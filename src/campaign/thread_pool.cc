#include "campaign/thread_pool.hh"

namespace bpsim
{

namespace
{

/** Set while the current thread is executing items for some pool. */
thread_local bool inside_worker = false;

} // namespace

int
ThreadPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool(hardwareThreads());
    return pool;
}

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0)
        threads = hardwareThreads();
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(job_m);
        shutdown = true;
    }
    job_cv.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::parallelFor(std::uint64_t n,
                        const std::function<void(std::uint64_t)> &fn)
{
    if (n == 0)
        return;

    // Nested or concurrent submissions degrade to a serial loop: a
    // worker blocking on its own pool would deadlock, and two
    // interleaved jobs would corrupt the single job slot.
    std::unique_lock<std::mutex> submit(submit_m, std::try_to_lock);
    if (inside_worker || !submit.owns_lock()) {
        for (std::uint64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    Job j;
    j.fn = &fn;
    j.n = n;
    j.remaining = n;
    {
        std::lock_guard<std::mutex> lk(job_m);
        job = &j;
        ++epoch;
    }
    job_cv.notify_all();

    // All items ran...
    {
        std::unique_lock<std::mutex> lk(j.m);
        j.done_cv.wait(lk, [&] { return j.remaining == 0; });
    }
    // ...and every worker has deregistered from this job, so none can
    // touch `j` after we return. Clearing `job` first makes late
    // registration impossible: workers register under job_m only
    // while job != null.
    {
        std::unique_lock<std::mutex> lk(job_m);
        job = nullptr;
        job_cv.wait(lk, [&] { return j.active == 0; });
    }
}

void
ThreadPool::workerLoop()
{
    inside_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
        Job *j;
        {
            std::unique_lock<std::mutex> lk(job_m);
            job_cv.wait(lk, [&] {
                return shutdown || (job != nullptr && epoch != seen);
            });
            if (shutdown)
                return;
            seen = epoch;
            j = job;
            ++j->active; // registered within the same critical section
        }
        runJob(j);
        {
            std::lock_guard<std::mutex> lk(job_m);
            if (--j->active == 0)
                job_cv.notify_all();
        }
    }
}

void
ThreadPool::runJob(Job *j)
{
    std::unique_lock<std::mutex> lk(j->m);
    while (j->next < j->n) {
        const std::uint64_t i = j->next++;
        lk.unlock();
        (*j->fn)(i);
        lk.lock();
        if (--j->remaining == 0)
            j->done_cv.notify_all();
    }
}

} // namespace bpsim
