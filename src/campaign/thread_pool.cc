#include "campaign/thread_pool.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bpsim
{

namespace
{

/** Set while the current thread is executing items for some pool. */
thread_local bool inside_worker = false;

} // namespace

int
WorkStealingPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

WorkStealingPool &
WorkStealingPool::shared()
{
    static WorkStealingPool pool(hardwareThreads());
    return pool;
}

WorkStealingPool::WorkStealingPool(int threads)
{
    if (threads <= 0)
        threads = hardwareThreads();
    slots.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        slots.push_back(std::make_unique<Slot>());
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back(
            [this, t] { workerLoop(static_cast<std::size_t>(t)); });
    }
}

WorkStealingPool::~WorkStealingPool()
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
WorkStealingPool::parallelFor(std::uint64_t n,
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
    j.remaining = n;

    // Seed every worker with a contiguous stripe of the index space;
    // imbalance is corrected by stealing.
    const auto T = static_cast<std::uint64_t>(slots.size());
    for (std::uint64_t t = 0; t < T; ++t) {
        const std::uint64_t begin = n * t / T;
        const std::uint64_t end = n * (t + 1) / T;
        if (begin == end)
            continue;
        std::lock_guard<std::mutex> lk(slots[t]->m);
        slots[t]->dq.push_back({begin, end});
    }

    {
        std::lock_guard<std::mutex> lk(job_m);
        job = &j;
        ++epoch;
    }
    job_cv.notify_all();

    // All items ran...
    {
        std::unique_lock<std::mutex> lk(j.done_m);
        j.done_cv.wait(lk, [&] { return j.remaining == 0; });
    }
    // ...and every worker has deregistered from this job, so none can
    // touch `j` (or pick up a later job's ranges with this job's fn)
    // after we return. Clearing `job` first makes late registration
    // impossible: workers register under job_m only while job != null.
    {
        std::unique_lock<std::mutex> lk(job_m);
        job = nullptr;
        job_cv.wait(lk, [&] { return j.active == 0; });
    }
}

void
WorkStealingPool::workerLoop(std::size_t self)
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
        runJob(self, j);
        {
            std::lock_guard<std::mutex> lk(job_m);
            if (--j->active == 0)
                job_cv.notify_all();
        }
    }
}

bool
WorkStealingPool::popLocal(std::size_t self, Range &out)
{
    Slot &s = *slots[self];
    std::lock_guard<std::mutex> lk(s.m);
    if (s.dq.empty())
        return false;
    out = s.dq.front();
    s.dq.pop_front();
    return true;
}

bool
WorkStealingPool::steal(std::size_t self, Range &out)
{
    const std::size_t T = slots.size();
    for (std::size_t k = 1; k < T; ++k) {
        Slot &victim = *slots[(self + k) % T];
        std::lock_guard<std::mutex> lk(victim.m);
        if (victim.dq.empty())
            continue;
        // Steal from the back, where the big unsplit ranges live.
        out = victim.dq.back();
        victim.dq.pop_back();
        return true;
    }
    return false;
}

void
WorkStealingPool::finishItems(Job *j, std::uint64_t count)
{
    std::lock_guard<std::mutex> lk(j->done_m);
    BPSIM_ASSERT(j->remaining >= count, "double completion");
    j->remaining -= count;
    if (j->remaining == 0)
        j->done_cv.notify_all();
}

void
WorkStealingPool::runJob(std::size_t self, Job *j)
{
    for (;;) {
        Range r;
        if (!popLocal(self, r) && !steal(self, r)) {
            // No visible work. Other workers may still split ranges
            // off their current chunk, so retry briefly before giving
            // up; whoever holds the remaining ranges will finish them
            // either way.
            bool found = false;
            for (int spin = 0; spin < 2 && !found; ++spin) {
                std::this_thread::yield();
                found = popLocal(self, r) || steal(self, r);
            }
            if (!found)
                return;
        }
        // Keep the front item; expose the rest to thieves (the back
        // of the deque keeps the largest splits).
        while (r.end - r.begin > 1) {
            const std::uint64_t mid = r.begin + (r.end - r.begin) / 2;
            Slot &s = *slots[self];
            std::lock_guard<std::mutex> lk(s.m);
            s.dq.push_front({mid, r.end});
            r.end = mid;
        }
        (*j->fn)(r.begin);
        finishItems(j, 1);
    }
}

} // namespace bpsim
