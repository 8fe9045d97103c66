#include "obs/registry.hh"

#include <cstring>


namespace bpsim
{
namespace obs
{

void
Gauge::set(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
}

double
Gauge::value() const
{
    const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
Gauge::reset()
{
    bits_.store(0, std::memory_order_relaxed);
}

void
TimerStat::reset()
{
    ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lk(m_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lk(m_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

TimerStat &
Registry::timer(const std::string &name)
{
    std::lock_guard<std::mutex> lk(m_);
    auto &slot = timers_[name];
    if (!slot)
        slot = std::make_unique<TimerStat>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lk(m_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::map<std::string, std::uint64_t>
Registry::counterSnapshot() const
{
    std::map<std::string, std::uint64_t> out;
    std::lock_guard<std::mutex> lk(m_);
    for (const auto &[name, c] : counters_)
        out[name] = c->value();
    return out;
}

std::map<std::string, double>
Registry::gaugeSnapshot() const
{
    std::map<std::string, double> out;
    std::lock_guard<std::mutex> lk(m_);
    for (const auto &[name, g] : gauges_)
        out[name] = g->value();
    return out;
}

std::map<std::string, TimerSnapshot>
Registry::timerSnapshot() const
{
    std::map<std::string, TimerSnapshot> out;
    std::lock_guard<std::mutex> lk(m_);
    for (const auto &[name, t] : timers_)
        out[name] = {t->seconds(), t->count()};
    return out;
}

std::map<std::string, HistogramSnapshot>
Registry::histogramSnapshot() const
{
    std::map<std::string, HistogramSnapshot> out;
    std::lock_guard<std::mutex> lk(m_);
    for (const auto &[name, h] : histograms_) {
        HistogramSnapshot s = h->snapshot();
        if (!s.buckets.empty())
            out.emplace(name, std::move(s));
    }
    return out;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lk(m_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, t] : timers_)
        t->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

void
mergeCounters(std::map<std::string, std::uint64_t> &into,
              const std::map<std::string, std::uint64_t> &from)
{
    for (const auto &[name, v] : from)
        into[name] += v;
}

ScopedTimer::ScopedTimer(TimerStat *stat)
    : stat_(stat), start_(std::chrono::steady_clock::now())
{
}

ScopedTimer::~ScopedTimer()
{
    if (!stat_)
        return;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    stat_->add(static_cast<std::uint64_t>(ns));
}

} // namespace obs
} // namespace bpsim
