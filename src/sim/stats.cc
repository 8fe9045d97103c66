#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace bpsim
{

void
SummaryStats::add(double x)
{
    ++n;
    sum_ += x;
    if (n == 1) {
        mean_ = min_ = max_ = x;
        m2 = 0.0;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n);
    m2 += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
SummaryStats::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n);
}

double
SummaryStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts(bins, 0)
{
    BPSIM_ASSERT(hi > lo, "histogram range [%g, %g) is empty", lo, hi);
    BPSIM_ASSERT(bins > 0, "histogram needs at least one bin");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++under;
        return;
    }
    if (x >= hi_) {
        ++over;
        return;
    }
    const double width = (hi_ - lo_) / static_cast<double>(counts.size());
    auto idx = static_cast<std::size_t>((x - lo_) / width);
    idx = std::min(idx, counts.size() - 1);
    ++counts[idx];
}

double
Histogram::binLo(std::size_t i) const
{
    const double width = (hi_ - lo_) / static_cast<double>(counts.size());
    return lo_ + width * static_cast<double>(i);
}

double
Histogram::binHi(std::size_t i) const
{
    return binLo(i + 1);
}

double
Histogram::binFraction(std::size_t i) const
{
    const std::uint64_t in_range = total_ - under - over;
    if (in_range == 0)
        return 0.0;
    return static_cast<double>(counts.at(i)) /
           static_cast<double>(in_range);
}

void
TimeWeightedMean::add(Time duration, double value)
{
    BPSIM_ASSERT(duration >= 0, "negative duration");
    total += duration;
    weighted += value * toSeconds(duration);
}

double
TimeWeightedMean::mean() const
{
    if (total == 0)
        return 0.0;
    return weighted / toSeconds(total);
}

} // namespace bpsim
