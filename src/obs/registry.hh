/**
 * @file
 * Named runtime metrics: monotonic counters, last-value gauges and
 * accumulating wall-clock timers, owned by a Registry and
 * snapshotable to plain maps (and, via obs/export.hh, to JSON
 * alongside build/seed provenance). There is no process-wide
 * registry: each owner (a CampaignService, a CLI tool) holds one and
 * passes it to what should publish into it.
 *
 * Counters are plain relaxed atomics, so concurrent trial bodies can
 * bump them without coordination; totals are sums of per-trial
 * contributions and therefore identical for any thread count.
 * Counter snapshots merge by key-wise addition — an associative,
 * commutative operation, which is what lets per-shard counter deltas
 * ride shard aggregate files and recombine in mergeShards() (the
 * `obs`-labeled property tests pin this).
 *
 * References returned by counter()/gauge()/timer() stay valid for the
 * registry's lifetime (entries are never removed; reset() only zeroes
 * values), so instrumentation sites can cache them.
 */

#ifndef BPSIM_OBS_REGISTRY_HH
#define BPSIM_OBS_REGISTRY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "obs/histogram.hh"

namespace bpsim
{
namespace obs
{

/** Monotonic event counter (relaxed atomic; merge = addition). */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Last-value gauge (e.g. trials_per_sec). */
class Gauge
{
  public:
    void set(double v);
    double value() const;
    void reset();

  private:
    /** Double bits in an atomic word (atomic<double> is not lock-free
     *  everywhere). */
    std::atomic<std::uint64_t> bits_{0};
};

/** Accumulating wall-clock timer (total nanoseconds + entry count). */
class TimerStat
{
  public:
    void add(std::uint64_t ns)
    {
        ns_.fetch_add(ns, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
    }
    double seconds() const
    {
        return static_cast<double>(ns_.load(std::memory_order_relaxed)) *
               1e-9;
    }
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    void reset();

  private:
    std::atomic<std::uint64_t> ns_{0};
    std::atomic<std::uint64_t> count_{0};
};

/** One timer's snapshot value. */
struct TimerSnapshot
{
    double seconds = 0.0;
    std::uint64_t count = 0;
};

/**
 * Named metric registry. Its content is exactly what its owner and the
 * components it was passed to put there.
 */
class Registry
{
  public:
    Registry() = default;

    /** Find-or-create; the reference is valid forever. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    TimerStat &timer(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** @name Snapshots (sorted by name; stable for exports) */
    ///@{
    std::map<std::string, std::uint64_t> counterSnapshot() const;
    std::map<std::string, double> gaugeSnapshot() const;
    std::map<std::string, TimerSnapshot> timerSnapshot() const;
    std::map<std::string, HistogramSnapshot> histogramSnapshot() const;
    ///@}

    /** Zero every value, keeping registrations (cached refs stay
     *  valid). */
    void reset();

  private:
    mutable std::mutex m_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<TimerStat>> timers_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * A registry counter looked up by name on its first add() only. It
 * enters the registry (and so the exports) at its first event, as a
 * `registry.counter(name).add()` at the site would, but later events
 * build no name and take no registry lock. A null registry counts
 * nothing.
 */
class LazyCounter
{
  public:
    LazyCounter(Registry *registry, std::string name)
        : registry_(registry), name_(std::move(name))
    {
    }

    void add(std::uint64_t n = 1)
    {
        Counter *c = counter_.load(std::memory_order_acquire);
        if (c == nullptr) {
            if (registry_ == nullptr)
                return;
            // Racing first adds resolve to the same counter.
            c = &registry_->counter(name_);
            counter_.store(c, std::memory_order_release);
        }
        c->add(n);
    }

  private:
    Registry *const registry_;
    const std::string name_;
    std::atomic<Counter *> counter_{nullptr};
};

/**
 * Key-wise counter-map addition: the shard-merge operation.
 * Associative and commutative, so any merge tree over any partition
 * of the same event stream yields identical totals.
 */
void mergeCounters(std::map<std::string, std::uint64_t> &into,
                   const std::map<std::string, std::uint64_t> &from);

/**
 * RAII wall-clock timer feeding a Registry TimerStat on destruction;
 * inert when constructed with no stat:
 *
 *     const obs::ScopedTimer t(&registry.timer("campaign.run"));
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(TimerStat *stat);
    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    TimerStat *stat_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace bpsim

#endif // BPSIM_OBS_REGISTRY_HH
