#include "obs/histogram.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bpsim
{
namespace obs
{

namespace
{

/** Lowest representable value (below it -> underflow bucket 0). */
double
minTrackable()
{
    return std::ldexp(1.0, Histogram::kMinExp);
}

/** First value past the linear range (at/above -> overflow bucket). */
double
maxTrackable()
{
    return std::ldexp(1.0, Histogram::kMaxExp + 1);
}

} // namespace

std::uint32_t
Histogram::bucketIndex(double v)
{
    // The negated comparison routes NaN, zero, negatives and
    // underflow into bucket 0.
    if (!(v >= minTrackable()))
        return 0;
    if (v >= maxTrackable())
        return kBuckets - 1;
    int e = 0;
    const double m = std::frexp(v, &e); // v = m * 2^e, m in [0.5, 1)
    const int oct = e - 1;              // v in [2^oct, 2^(oct+1))
    const int sub = std::min(
        kSubBuckets - 1,
        static_cast<int>((m - 0.5) * 2.0 * kSubBuckets));
    return 1 +
           static_cast<std::uint32_t>(oct - kMinExp) * kSubBuckets +
           static_cast<std::uint32_t>(sub);
}

double
Histogram::bucketLowerBound(std::uint32_t i)
{
    if (i == 0)
        return 0.0;
    if (i >= kBuckets - 1)
        return maxTrackable();
    const std::uint32_t lin = i - 1;
    const int oct = static_cast<int>(lin / kSubBuckets) + kMinExp;
    const int sub = static_cast<int>(lin % kSubBuckets);
    return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, oct);
}

double
Histogram::bucketUpperBound(std::uint32_t i)
{
    if (i == 0)
        return minTrackable();
    if (i >= kBuckets - 1)
        return std::numeric_limits<double>::infinity();
    return bucketLowerBound(i + 1);
}

double
Histogram::bucketMidpoint(std::uint32_t i)
{
    if (i == 0)
        return 0.0;
    if (i >= kBuckets - 1)
        return maxTrackable();
    return 0.5 * (bucketLowerBound(i) + bucketUpperBound(i));
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t n = 0;
    for (const auto &b : buckets_)
        n += b.load(std::memory_order_relaxed);
    return n;
}

double
Histogram::quantile(double q) const
{
    return snapshot().quantile(q);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
        const std::uint64_t n =
            buckets_[i].load(std::memory_order_relaxed);
        if (n != 0)
            s.buckets.emplace(i, n);
    }
    return s;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

std::uint64_t
HistogramSnapshot::count() const
{
    std::uint64_t n = 0;
    for (const auto &[i, c] : buckets) {
        (void)i;
        n += c;
    }
    return n;
}

double
HistogramSnapshot::sum() const
{
    // Buckets iterate in ascending index order (std::map), so this
    // summation order is fixed and the result is bit-identical for
    // any partition/merge history that produced the same counts.
    double s = 0.0;
    for (const auto &[i, c] : buckets)
        s += static_cast<double>(c) * Histogram::bucketMidpoint(i);
    return s;
}

double
HistogramSnapshot::quantile(double q) const
{
    const std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    // Target rank in [1, total]; the value at cumulative rank `r` is
    // interpolated linearly inside the bucket containing it.
    const double rank =
        std::max(1.0, q * static_cast<double>(total));
    std::uint64_t cum = 0;
    for (const auto &[i, c] : buckets) {
        const double before = static_cast<double>(cum);
        cum += c;
        if (static_cast<double>(cum) >= rank) {
            if (i == 0)
                return 0.0;
            const double lo = Histogram::bucketLowerBound(i);
            if (i >= Histogram::kBuckets - 1)
                return lo;
            const double hi = Histogram::bucketUpperBound(i);
            const double frac =
                (rank - before) / static_cast<double>(c);
            return lo + (hi - lo) * frac;
        }
    }
    return 0.0; // unreachable: total > 0
}

void
mergeHistograms(std::map<std::string, HistogramSnapshot> &into,
                const std::map<std::string, HistogramSnapshot> &from)
{
    for (const auto &[name, snap] : from) {
        HistogramSnapshot &dst = into[name];
        for (const auto &[i, c] : snap.buckets)
            dst.buckets[i] += c;
    }
}

} // namespace obs
} // namespace bpsim
