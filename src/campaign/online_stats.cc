#include "campaign/online_stats.hh"

#include <algorithm>
#include <cmath>

#include "campaign/json.hh"
#include "sim/logging.hh"

namespace bpsim
{

BinomialCi
wilsonInterval(std::uint64_t successes, std::uint64_t trials, double z)
{
    BinomialCi ci;
    if (trials == 0)
        return ci;
    BPSIM_ASSERT(successes <= trials, "%llu successes out of %llu trials",
                 static_cast<unsigned long long>(successes),
                 static_cast<unsigned long long>(trials));
    const auto n = static_cast<double>(trials);
    const double phat = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (phat + z2 / (2.0 * n)) / denom;
    const double half =
        z / denom * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
    ci.fraction = phat;
    ci.lo = std::max(0.0, center - half);
    ci.hi = std::min(1.0, center + half);
    return ci;
}

Moments
momentsOf(std::uint64_t n, const ExactSum &sum, const ExactSum &sumSq)
{
    Moments m;
    if (n == 0)
        return m;
    const auto nd = static_cast<double>(n);
    const double s = sum.value();
    m.mean = s / nd;
    if (n >= 2)
        m.variance = std::max(0.0, (sumSq.value() - s * s / nd) / nd);
    return m;
}

void
MergingMetric::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_.add(x);
    sumSq_.add(x * x);
    digest_.add(x);
}

void
MergingMetric::addSums(double x)
{
    sum_.add(x);
    sumSq_.add(x * x);
}

void
MergingMetric::foldChunk(const double *values, const MetricChunk &chunk,
                         std::size_t n)
{
    const std::size_t length = chunk.order.size();
    digest_.addRun(values, chunk.order.data(), length, n);
    if (n == 0)
        return;
    // The digest took the run's first extremes.
    if (n_ == 0) {
        min_ = digest_.min();
        max_ = digest_.max();
    } else {
        min_ = std::min(min_, digest_.min());
        max_ = std::max(max_, digest_.max());
    }
    n_ += n;
    if (!chunk.hasSums)
        return;
    if (n == length) {
        sum_.merge(chunk.sum);
        sumSq_.merge(chunk.sumSq);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            addSums(values[i]);
    }
}

void
MetricChunk::prepare(const double *values, std::size_t n, bool sums)
{
    BPSIM_ASSERT(n >= 1 && n <= kMaxLength,
                 "metric chunk of %zu observations", n);
    /** An observation keyed for a stable sort by value. */
    struct Keyed
    {
        double x;
        std::uint16_t at;
    };
    std::vector<Keyed> keys(n);
    for (std::size_t i = 0; i < n; ++i) {
        BPSIM_ASSERT(std::isfinite(values[i]),
                     "metric observation %g is not finite", values[i]);
        keys[i] = {values[i], static_cast<std::uint16_t>(i)};
    }
    // Arrival order breaks ties, so the sort is stable.
    std::sort(keys.begin(), keys.end(), [](const Keyed &a, const Keyed &b) {
        if (a.x < b.x || b.x < a.x)
            return a.x < b.x;
        return a.at < b.at;
    });
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = keys[i].at;
    hasSums = sums;
    sum = sumSq = ExactSum();
    if (sums) {
        for (std::size_t i = 0; i < n; ++i) {
            sum.add(values[i]);
            sumSq.add(values[i] * values[i]);
        }
    }
}

void
MergingMetric::merge(const MergingMetric &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    n_ += other.n_;
    sum_.merge(other.sum_);
    sumSq_.merge(other.sumSq_);
    digest_.merge(other.digest_);
}

double
MergingMetric::mean() const
{
    return n_ ? sum_.value() / static_cast<double>(n_) : 0.0;
}

double
MergingMetric::variance() const
{
    return n_ < 2 ? 0.0 : momentsOf(n_, sum_, sumSq_).variance;
}

double
MergingMetric::stddev() const
{
    return std::sqrt(variance());
}

double
MergingMetric::meanCiHalfWidth(double z) const
{
    if (n_ < 2)
        return 0.0;
    return z * std::sqrt(variance() / static_cast<double>(n_));
}

void
MergingMetric::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("count", n_);
    w.field("min", min());
    w.field("max", max());
    w.key("sum");
    sum_.writeJson(w);
    w.key("sum_sq");
    sumSq_.writeJson(w);
    w.key("tdigest");
    digest_.writeStateJson(w);
    w.endObject();
}

std::optional<MergingMetric>
MergingMetric::fromJson(const JsonValue &v)
{
    if (v.kind() != JsonValue::Kind::Object)
        return std::nullopt;
    const auto n = jsonUint(v.find("count"));
    const auto min = jsonFinite(v.find("min"));
    const auto max = jsonFinite(v.find("max"));
    const JsonValue *sum = v.find("sum");
    const JsonValue *sq = v.find("sum_sq");
    const JsonValue *td = v.find("tdigest");
    if (!n || !min || !max || !sum || !ExactSum::validJson(*sum) ||
        !sq || !ExactSum::validJson(*sq) || !td)
        return std::nullopt;
    auto digest = TDigest::fromStateJson(*td);
    if (!digest || digest->count() != *n || *min > *max)
        return std::nullopt;
    MergingMetric m;
    m.n_ = *n;
    m.min_ = *min;
    m.max_ = *max;
    m.sum_ = ExactSum::fromJson(*sum);
    m.sumSq_ = ExactSum::fromJson(*sq);
    m.digest_ = std::move(*digest);
    return m;
}

} // namespace bpsim
