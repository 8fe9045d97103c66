/**
 * @file
 * Deterministic parallel Monte Carlo campaign runner.
 *
 * A campaign is `trials` independent trials, each identified by a
 * dense trial id in [0, trials). The runner fans trials out across a
 * work-stealing thread pool and funnels the results through a reorder
 * buffer so the consumer sees them in strict trial-id order — which
 * makes every aggregate (exact sums, t-digests, early-stop
 * decisions, progress sequences) bit-identical for any thread count
 * and any scheduling, provided each trial is a pure function of its
 * id (derive per-trial randomness as `Rng::stream(seed, id)`, never
 * from shared state).
 *
 * Early stop: the consumer returns false to stop the campaign. The
 * decision is evaluated on the in-order prefix only, so it too is
 * deterministic; trials that other workers completed speculatively
 * beyond the stop index are discarded.
 */

#ifndef BPSIM_CAMPAIGN_RUNNER_HH
#define BPSIM_CAMPAIGN_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "campaign/thread_pool.hh"

namespace bpsim
{

/** Snapshot handed to progress callbacks (in trial order). */
struct CampaignProgress
{
    /** Trials aggregated so far. */
    std::uint64_t consumed = 0;
    /** Planned campaign size. */
    std::uint64_t total = 0;
    /** True when the early-stop rule has fired. */
    bool stopped = false;
};

/** Execution knobs common to every campaign. */
struct CampaignOptions
{
    /**
     * Worker threads: 0 uses the process-wide shared pool (sized to
     * the hardware); any other value runs on a dedicated pool of that
     * size. Results are identical either way.
     */
    int threads = 0;
    /** Invoke `progress` every this many consumed trials (0 = off). */
    std::uint64_t progressEvery = 0;
    /** Serialized, in-order progress callback. */
    std::function<void(const CampaignProgress &)> progress;
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

    std::mutex m;                          // guards buffer + next
    std::map<std::uint64_t, Result> buffer; // finished, not yet consumed
    std::uint64_t next = 0;                // next id to consume
    std::atomic<bool> stop{false};

    auto deliver = [&](std::uint64_t id, Result &&r) {
        std::lock_guard<std::mutex> lk(m);
        if (stop.load(std::memory_order_relaxed))
            return; // speculative trial beyond the stop index
        buffer.emplace(id, std::move(r));
        for (auto it = buffer.find(next); it != buffer.end();
             it = buffer.find(next)) {
            Result ready = std::move(it->second);
            buffer.erase(it);
            const std::uint64_t ready_id = next++;
            const bool more = consume(ready_id, std::move(ready));
            if (!more)
                stop.store(true, std::memory_order_relaxed);
            if (opts.progress && opts.progressEvery != 0 &&
                (ready_id + 1 == trials || !more ||
                 (ready_id + 1) % opts.progressEvery == 0)) {
                opts.progress({ready_id + 1, trials, !more});
            }
            if (!more)
                break;
        }
    };

    const std::function<void(std::uint64_t)> body =
        [&](std::uint64_t id) { deliver(id, trial(id)); };
    const std::function<bool()> cancelled = [&] {
        return stop.load(std::memory_order_relaxed);
    };

    if (opts.threads == 0) {
        WorkStealingPool::shared().parallelFor(trials, body, cancelled);
    } else {
        WorkStealingPool pool(opts.threads);
        pool.parallelFor(trials, body, cancelled);
    }

    out.consumed = next;
    out.stoppedEarly = stop.load() && next < trials;
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
        WorkStealingPool::shared().parallelFor(n, body);
    } else {
        WorkStealingPool pool(threads);
        pool.parallelFor(n, body);
    }
    return out;
}

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_RUNNER_HH
