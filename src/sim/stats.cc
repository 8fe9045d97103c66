#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

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

} // namespace bpsim
