/**
 * @file
 * Deterministic parallel Monte Carlo campaign runner.
 *
 * A campaign is `trials` independent trials, each identified by a
 * dense trial id in [0, trials). The runner fans trials out across a
 * thread pool and funnels the results through a reorder buffer so the
 * consumer sees them in strict trial-id order — which makes every
 * aggregate (exact sums, t-digests, early-stop decisions, progress
 * sequences) bit-identical for any thread count and any scheduling,
 * provided each trial is a pure function of its id (derive per-trial
 * randomness as `Rng::stream(seed, id)`, never from shared state).
 *
 * Trials are claimed in id order: one pool item per worker, each
 * taking the next id from a shared counter, and never more than four
 * ids per worker ahead of the consumer. So the trials in flight are
 * the next ones the consumer needs, and the reorder buffer stays
 * within that window even while one trial stalls. (Striped index
 * ranges would let a worker run far ahead of the consumer, and the
 * buffer would hold its results until the consumer got there.)
 *
 * Early stop: the consumer returns false to stop the campaign. The
 * decision is evaluated on the in-order prefix only, so it too is
 * deterministic; trials that other workers completed speculatively
 * beyond the stop index are discarded.
 */

#ifndef BPSIM_CAMPAIGN_RUNNER_HH
#define BPSIM_CAMPAIGN_RUNNER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "campaign/thread_pool.hh"

namespace bpsim
{

/** Execution knobs common to every campaign. */
struct CampaignOptions
{
    /**
     * Worker threads: 0 uses the process-wide shared pool (sized to
     * the hardware); any other value runs on a dedicated pool of that
     * size. Results are identical either way.
     */
    int threads = 0;
};

/** What a campaign actually executed. */
struct CampaignOutcome
{
    /** Trials aggregated (the in-order prefix length). */
    std::uint64_t consumed = 0;
    /** True when the consumer stopped the campaign before the end. */
    bool stoppedEarly = false;
};

/**
 * Run a campaign of @p trials trials. @p trial maps a trial id to its
 * result and runs concurrently on the pool; it must not touch shared
 * mutable state (build one Simulator/PowerHierarchy/Cluster per call).
 * @p consume is called exactly once per aggregated trial, in strict
 * id order, serialized; returning false stops the campaign.
 */
template <typename Result>
CampaignOutcome
runCampaign(std::uint64_t trials,
            const std::function<Result(std::uint64_t)> &trial,
            const std::function<bool(std::uint64_t, Result &&)> &consume,
            const CampaignOptions &opts = {})
{
    CampaignOutcome out;
    if (trials == 0)
        return out;

    std::mutex m; // guards everything below
    std::condition_variable room; // next advanced, or stop was set
    std::map<std::uint64_t, Result> buffer; // finished, not yet consumed
    std::uint64_t next = 0;                 // next id to consume
    std::uint64_t claimed = 0;              // next id to claim
    bool stop = false;
    std::uint64_t window = 0; // how far claims may run ahead of next

    auto deliver = [&](std::uint64_t id, Result &&r) {
        std::lock_guard<std::mutex> lk(m);
        if (stop)
            return; // speculative trial beyond the stop index
        buffer.emplace(id, std::move(r));
        for (auto it = buffer.find(next); it != buffer.end();
             it = buffer.find(next)) {
            Result ready = std::move(it->second);
            buffer.erase(it);
            if (!consume(next++, std::move(ready))) {
                stop = true;
                break;
            }
        }
        room.notify_all();
    };

    const std::function<void(std::uint64_t)> worker = [&](std::uint64_t) {
        for (;;) {
            std::uint64_t id;
            {
                std::unique_lock<std::mutex> lk(m);
                room.wait(lk, [&] {
                    return stop || claimed == trials ||
                           claimed - next < window;
                });
                if (stop || claimed == trials)
                    return;
                id = claimed++;
            }
            deliver(id, trial(id));
        }
    };

    const auto run = [&](ThreadPool &pool) {
        const auto workers = static_cast<std::uint64_t>(pool.threadCount());
        window = 4 * workers;
        pool.parallelFor(workers, worker);
    };
    if (opts.threads == 0) {
        run(ThreadPool::shared());
    } else {
        ThreadPool pool(opts.threads);
        run(pool);
    }

    out.consumed = next;
    out.stoppedEarly = stop && next < trials;
    return out;
}

/**
 * Parallel map: out[i] = fn(i) for i in [0, n), preserving order.
 * For deterministic fan-out of *non-stochastic* work (e.g. evaluating
 * technique candidates); results land by index, so the output is
 * independent of scheduling.
 */
template <typename Result>
std::vector<Result>
parallelMap(std::uint64_t n, const std::function<Result(std::uint64_t)> &fn,
            int threads = 0)
{
    std::vector<Result> out(n);
    const std::function<void(std::uint64_t)> body =
        [&](std::uint64_t i) { out[i] = fn(i); };
    if (threads == 0) {
        ThreadPool::shared().parallelFor(n, body);
    } else {
        ThreadPool pool(threads);
        pool.parallelFor(n, body);
    }
    return out;
}

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_RUNNER_HH
