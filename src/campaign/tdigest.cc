#include "campaign/tdigest.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "campaign/json.hh"
#include "sim/logging.hh"

namespace bpsim
{

namespace
{

constexpr double kTwoPi = 6.283185307179586476925286766559;

/** Largest compression fromStateJson accepts. */
constexpr double kMaxStateCompression = 1e4;

/** k1 scale function: k(q) = δ/(2π) · asin(2q − 1). */
double
scaleK(double q, double compression)
{
    const double a = std::clamp(2.0 * q - 1.0, -1.0, 1.0);
    return compression / kTwoPi * std::asin(a);
}

/** Inverse of scaleK: q(k) = (sin(2πk/δ) + 1) / 2. */
double
scaleQ(double k, double compression)
{
    const double s = std::sin(kTwoPi * k / compression);
    return std::clamp((s + 1.0) / 2.0, 0.0, 1.0);
}

/** The flush order: ascending mean, then ascending weight. */
constexpr auto byMeanThenWeight = [](const TDigest::Centroid &a,
                                     const TDigest::Centroid &b) {
    if (a.mean != b.mean)
        return a.mean < b.mean;
    return a.weight < b.weight;
};

} // namespace

TDigest::TDigest(double compression) : compression_(compression)
{
    BPSIM_ASSERT(compression >= 10.0,
                 "t-digest compression %g too small (min 10)",
                 compression);
    buffer_.reserve(static_cast<std::size_t>(8.0 * compression));
}

void
TDigest::add(double x, double weight)
{
    BPSIM_ASSERT(std::isfinite(x), "TDigest::add(%g): not finite", x);
    BPSIM_ASSERT(weight > 0.0, "TDigest::add: weight %g <= 0", weight);
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    count_ += static_cast<std::uint64_t>(weight);
    buffer_.push_back({x, weight});
    if (buffer_.size() >= flushEvery())
        flush();
}

void
TDigest::addRun(const double *values, const std::uint16_t *order,
                std::size_t length, std::size_t n)
{
    BPSIM_ASSERT(n <= length, "t-digest run keeps %zu of %zu values", n,
                 length);
    if (n <= 1) {
        if (n == 1)
            add(values[0]);
        return;
    }
    // Pieces end where the buffer fills: after `first` values, then
    // every flushEvery() values.
    const std::size_t every = flushEvery();
    const std::size_t first =
        buffer_.size() >= every ? 1 : every - buffer_.size();
    const std::size_t head = std::min(n, first);
    // One pass over the permutation drops the entries past n and deals
    // the rest to their pieces: the first straight onto sorted_, the
    // others into `rest`, each at its own arrival range.
    sealTail();
    sorted_.resize(sorted_.size() + head);
    Centroid *lo = sorted_.data() + sorted_.size() - head;
    std::vector<Centroid> rest(n - head);
    std::vector<std::size_t> next((n - head + every - 1) / every);
    for (std::size_t p = 1; p < next.size(); ++p)
        next[p] = p * every;
    for (std::size_t i = 0; i < length; ++i) {
        const std::size_t at = order[i];
        if (at >= n)
            continue;
        if (at < first)
            *lo++ = {values[at], 1.0};
        else
            rest[next[(at - first) / every]++] = {values[at], 1.0};
    }
    addPiece(values, head);
    for (std::size_t begin = head; begin < n; begin += every) {
        const std::size_t len = std::min(every, n - begin);
        const Centroid *from = rest.data() + (begin - head);
        sorted_.insert(sorted_.end(), from, from + len);
        addPiece(values + begin, len);
    }
}

void
TDigest::addPiece(const double *values, std::size_t n)
{
    // The piece's sorted copy ends sorted_. Its first minimum leads it;
    // its first maximum leads its trailing run of equal values (±0.0
    // compare equal).
    const Centroid *sorted = sorted_.data() + sorted_.size() - n;
    std::size_t top = n - 1;
    while (top > 0 && sorted[top - 1].mean == sorted[n - 1].mean)
        --top;
    if (count_ == 0) {
        min_ = sorted[0].mean;
        max_ = sorted[top].mean;
    } else {
        min_ = std::min(min_, sorted[0].mean);
        max_ = std::max(max_, sorted[top].mean);
    }
    count_ += n;
    for (std::size_t i = 0; i < n; ++i)
        buffer_.push_back({values[i], 1.0});
    cuts_.push_back(sorted_.size());
    if (buffer_.size() >= flushEvery())
        flush();
}

std::size_t
TDigest::flushEvery() const
{
    return static_cast<std::size_t>(8.0 * compression_);
}

void
TDigest::sealTail() const
{
    if (sorted_.size() == buffer_.size())
        return;
    const auto from = static_cast<std::ptrdiff_t>(sorted_.size());
    sorted_.insert(sorted_.end(), buffer_.begin() + from, buffer_.end());
    std::stable_sort(sorted_.begin() + from, sorted_.end(),
                     byMeanThenWeight);
    cuts_.push_back(sorted_.size());
}

void
TDigest::merge(const TDigest &other)
{
    if (other.count_ == 0)
        return;
    other.flush();
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    buffer_.insert(buffer_.end(), other.centroids_.begin(),
                   other.centroids_.end());
    if (buffer_.size() >= flushEvery())
        flush();
}

std::vector<TDigest::Centroid>
TDigest::mergeRuns() const
{
    // flush() replaces the centroids, so take them. They need their own
    // sort, since equal means can leave them in descending weight.
    std::vector<Centroid> points = std::move(centroids_);
    centroids_.clear();
    std::stable_sort(points.begin(), points.end(), byMeanThenWeight);
    sealTail();
    std::size_t size = points.size();
    points.resize(size + sorted_.size());
    std::vector<Centroid> merged(points.size());
    std::size_t begin = 0;
    for (const std::size_t end : cuts_) {
        const auto last = std::merge(
            points.begin(), points.begin() + static_cast<std::ptrdiff_t>(size),
            sorted_.begin() + static_cast<std::ptrdiff_t>(begin),
            sorted_.begin() + static_cast<std::ptrdiff_t>(end),
            merged.begin(), byMeanThenWeight);
        size = static_cast<std::size_t>(last - merged.begin());
        points.swap(merged);
        begin = end;
    }
    sorted_.clear();
    cuts_.clear();
    return points;
}

void
TDigest::flush() const
{
    if (buffer_.empty())
        return;
    // A stable sort of centroids ++ buffer is the left-biased merge of
    // its stably sorted pieces, taken in order.
    const std::vector<Centroid> points = mergeRuns();
    buffer_.clear();

    double total = 0.0;
    for (const auto &p : points)
        total += p.weight;

    // One merging pass: greedily absorb neighbours into the current
    // cluster while its k-size stays under one.
    std::vector<Centroid> out;
    out.reserve(static_cast<std::size_t>(compression_) + 8);
    Centroid cur = points[0];
    double w_before = 0.0; // weight strictly left of `cur`
    double q_limit =
        scaleQ(scaleK(0.0, compression_) + 1.0, compression_);
    for (std::size_t i = 1; i < points.size(); ++i) {
        const Centroid &p = points[i];
        const double q_new = (w_before + cur.weight + p.weight) / total;
        if (q_new <= q_limit) {
            // Weighted-mean update keeps the cluster mean inside
            // [cur.mean, p.mean] exactly.
            cur.mean +=
                p.weight / (cur.weight + p.weight) * (p.mean - cur.mean);
            cur.weight += p.weight;
        } else {
            out.push_back(cur);
            w_before += cur.weight;
            q_limit = scaleQ(
                scaleK(w_before / total, compression_) + 1.0,
                compression_);
            cur = p;
        }
    }
    out.push_back(cur);
    centroids_ = std::move(out);
}

double
TDigest::min() const
{
    return count_ ? min_ : 0.0;
}

double
TDigest::max() const
{
    return count_ ? max_ : 0.0;
}

const std::vector<TDigest::Centroid> &
TDigest::centroids() const
{
    flush();
    return centroids_;
}

double
TDigest::quantile(double q) const
{
    BPSIM_ASSERT(q >= 0.0 && q <= 1.0, "quantile %g outside [0, 1]", q);
    flush();
    if (count_ == 0)
        return 0.0;
    if (centroids_.size() == 1)
        return centroids_[0].mean;

    double total = 0.0;
    for (const auto &c : centroids_)
        total += c.weight;
    const double t = q * total;

    // Piecewise-linear between centroid midpoints, with the exact
    // min/max anchoring the first and last half-clusters.
    double cum = 0.0; // weight strictly left of centroid i
    double prev_mid = 0.0, prev_mean = min_;
    for (const auto &c : centroids_) {
        const double mid = cum + c.weight / 2.0;
        if (t <= mid) {
            const double span = mid - prev_mid;
            if (span <= 0.0)
                return c.mean;
            const double frac = (t - prev_mid) / span;
            return prev_mean + frac * (c.mean - prev_mean);
        }
        prev_mid = mid;
        prev_mean = c.mean;
        cum += c.weight;
    }
    // Upper tail: last midpoint .. exact max.
    const double span = total - prev_mid;
    if (span <= 0.0)
        return max_;
    const double frac = (t - prev_mid) / span;
    return prev_mean + std::min(frac, 1.0) * (max_ - prev_mean);
}

void
TDigest::writeJson(JsonWriter &w) const
{
    flush();
    w.beginObject();
    w.field("compression", compression_);
    w.field("count", count_);
    w.field("min", min());
    w.field("max", max());
    w.key("centroids").beginArray();
    for (const auto &c : centroids_) {
        w.beginArray();
        w.value(c.mean);
        w.value(c.weight);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

void
TDigest::writeStateJson(JsonWriter &w) const
{
    const auto points = [&w](const std::vector<Centroid> &list) {
        w.beginArray();
        for (const auto &c : list) {
            w.beginArray();
            w.value(c.mean);
            w.value(c.weight);
            w.endArray();
        }
        w.endArray();
    };
    w.beginObject();
    w.field("compression", compression_);
    w.field("count", count_);
    w.field("min", min_);
    w.field("max", max_);
    w.key("centroids");
    points(centroids_);
    w.key("buffer");
    points(buffer_);
    w.endObject();
}

std::optional<TDigest>
TDigest::fromStateJson(const JsonValue &v)
{
    if (v.kind() != JsonValue::Kind::Object)
        return std::nullopt;
    const auto compression = jsonFinite(v.find("compression"));
    const auto count = jsonUint(v.find("count"));
    const auto min = jsonFinite(v.find("min"));
    const auto max = jsonFinite(v.find("max"));
    // The upper bound keeps a corrupt compression from sizing the
    // buffer reservation.
    if (!compression || *compression < 10.0 ||
        *compression > kMaxStateCompression || !count || !min || !max)
        return std::nullopt;

    TDigest d(*compression);
    d.count_ = *count;
    d.min_ = *min;
    d.max_ = *max;
    // Both lists are restored verbatim (order included): the buffer's
    // insertion order feeds the next flush's stable sort, so it is
    // part of the bit-exactness contract.
    const auto points = [&v](const char *key,
                             std::vector<Centroid> &into) {
        const JsonValue *list = v.find(key);
        if (!list || list->kind() != JsonValue::Kind::Array)
            return false;
        for (std::size_t i = 0; i < list->size(); ++i) {
            const JsonValue &c = list->item(i);
            if (c.kind() != JsonValue::Kind::Array || c.size() != 2 ||
                c.item(0).kind() != JsonValue::Kind::Number ||
                c.item(1).kind() != JsonValue::Kind::Number)
                return false;
            const double mean = c.item(0).asDouble();
            const double weight = c.item(1).asDouble();
            if (!std::isfinite(mean) || !(weight > 0.0))
                return false;
            into.push_back({mean, weight});
        }
        return true;
    };
    if (!points("centroids", d.centroids_) ||
        !points("buffer", d.buffer_))
        return std::nullopt;
    return d;
}

TDigest
TDigest::fromJson(const JsonValue &v)
{
    TDigest d(v.at("compression").asDouble());
    d.count_ = v.at("count").asUint();
    d.min_ = v.at("min").asDouble();
    d.max_ = v.at("max").asDouble();
    const JsonValue &cents = v.at("centroids");
    double prev = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cents.size(); ++i) {
        const JsonValue &c = cents.item(i);
        BPSIM_ASSERT(c.size() == 2, "centroid %zu is not a pair", i);
        const double mean = c.item(0).asDouble();
        const double weight = c.item(1).asDouble();
        BPSIM_ASSERT(mean >= prev, "centroids not sorted at %zu", i);
        BPSIM_ASSERT(weight > 0.0, "centroid %zu has weight %g", i,
                     weight);
        d.centroids_.push_back({mean, weight});
        prev = mean;
    }
    return d;
}

} // namespace bpsim
