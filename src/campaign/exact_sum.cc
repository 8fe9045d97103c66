#include "campaign/exact_sum.hh"

#include <algorithm>
#include <cmath>

#include "campaign/json.hh"
#include "sim/logging.hh"

namespace bpsim
{

namespace
{

constexpr std::int64_t kBase = std::int64_t{1} << 30;

} // namespace

void
ExactSum::add(double x)
{
    BPSIM_ASSERT(std::isfinite(x), "ExactSum::add(%g): not finite", x);
    if (x == 0.0)
        return;

    // x = m * 2^(e-53) with |m| a 53-bit integer; frexp is exact.
    int e;
    const double f = std::frexp(x, &e);
    auto m = static_cast<std::int64_t>(std::ldexp(f, 53));
    int pos = e - 53 + kBias; // bit index of m's LSB, from 2^-1074
    if (pos < 0) {
        // Subnormal input: m is a multiple of 2^-pos, so this is exact.
        m >>= -pos;
        pos = 0;
    }

    // |m| << (pos % 30) spans at most 83 bits: three limbs from j.
    const std::int64_t sign = m < 0 ? -1 : 1;
    auto wide = static_cast<unsigned __int128>(sign * m);
    wide <<= pos % kLimbBits;
    const int j = pos / kLimbBits;
    const auto mask = static_cast<unsigned __int128>(kBase - 1);
    limb_[j] += sign * static_cast<std::int64_t>(wide & mask);
    limb_[j + 1] +=
        sign * static_cast<std::int64_t>((wide >> kLimbBits) & mask);
    limb_[j + 2] += sign * static_cast<std::int64_t>(wide >> (2 * kLimbBits));
    touch(j, j + 2);

    // Each add shifts any limb by < 2^30; renormalize long before a
    // limb could reach the int64 range.
    if (++dirty_ >= (1u << 30))
        normalize();
}

void
ExactSum::merge(const ExactSum &other)
{
    if (other.lo_ > other.hi_)
        return;
    // Limb-wise addition is exact whether or not either side is
    // normalized. Every limb of `other` is below (other.dirty_ + 1) *
    // 2^30 in magnitude, so the merge counts as that many adds.
    for (int j = other.lo_; j <= other.hi_; ++j)
        limb_[j] += other.limb_[j];
    touch(other.lo_, other.hi_);
    dirty_ += other.dirty_ + 1;
    if (dirty_ >= (1u << 30))
        normalize();
}

void
ExactSum::touch(int lo, int hi)
{
    lo_ = std::min(lo_, lo);
    hi_ = std::max(hi_, hi);
}

void
ExactSum::normalize()
{
    dirty_ = 0;
    if (lo_ > hi_)
        return;
    // Pass 1: carry-propagate every limb into (-2^30, 2^30); a carry
    // out of the top touched limb widens the range.
    std::int64_t carry = 0;
    int j = lo_;
    for (; j <= hi_ || carry != 0; ++j) {
        BPSIM_ASSERT(j < kLimbs, "ExactSum overflow beyond 2^1024");
        const std::int64_t t = limb_[j] + carry;
        limb_[j] = t % kBase;
        carry = t / kBase;
    }
    hi_ = j - 1;

    // Pass 2: unify limb signs so the digits are the canonical
    // base-2^30 representation of |sum| (the top nonzero limb always
    // carries the sign of the total).
    while (hi_ >= lo_ && limb_[hi_] == 0)
        --hi_;
    if (hi_ >= lo_) {
        const int sign = limb_[hi_] > 0 ? 1 : -1;
        for (j = lo_; j < hi_; ++j) {
            if (sign > 0 && limb_[j] < 0) {
                limb_[j] += kBase;
                limb_[j + 1] -= 1;
            } else if (sign < 0 && limb_[j] > 0) {
                limb_[j] -= kBase;
                limb_[j + 1] += 1;
            }
        }
    }
    // Trim the zeros the borrows left at either end.
    while (hi_ >= lo_ && limb_[hi_] == 0)
        --hi_;
    while (lo_ <= hi_ && limb_[lo_] == 0)
        ++lo_;
    if (lo_ > hi_) {
        lo_ = kLimbs;
        hi_ = -1;
    }
}

double
ExactSum::value() const
{
    ExactSum c = *this;
    c.normalize();
    // High-to-low accumulation of same-signed digits: faithful, and a
    // pure function of the canonical digits.
    double v = 0.0;
    for (int j = c.hi_; j >= c.lo_; --j) {
        if (c.limb_[j] != 0)
            v += std::ldexp(static_cast<double>(c.limb_[j]),
                            j * kLimbBits - kBias);
    }
    return v;
}

bool
ExactSum::zero() const
{
    ExactSum c = *this;
    c.normalize();
    return c.lo_ > c.hi_;
}

void
ExactSum::writeJson(JsonWriter &w) const
{
    ExactSum c = *this;
    c.normalize();
    const int sign = c.lo_ > c.hi_ ? 0 : (c.limb_[c.hi_] > 0 ? 1 : -1);

    w.beginObject();
    w.field("sign", sign);
    w.field("lo", sign == 0 ? 0 : c.lo_);
    w.key("limbs").beginArray();
    for (int j = c.lo_; j <= c.hi_; ++j)
        w.value(static_cast<int>(sign > 0 ? c.limb_[j] : -c.limb_[j]));
    w.endArray();
    w.endObject();
}

bool
ExactSum::validJson(const JsonValue &v)
{
    if (v.kind() != JsonValue::Kind::Object)
        return false;
    const auto integral = [](const JsonValue *x) {
        return x && x->kind() == JsonValue::Kind::Number &&
               x->asDouble() == std::floor(x->asDouble());
    };
    const JsonValue *sign = v.find("sign");
    const JsonValue *lo = v.find("lo");
    const JsonValue *limbs = v.find("limbs");
    if (!integral(sign) || sign->asDouble() < -1.0 ||
        sign->asDouble() > 1.0)
        return false;
    if (!integral(lo) || lo->asDouble() < 0.0)
        return false;
    if (!limbs || limbs->kind() != JsonValue::Kind::Array)
        return false;
    if (lo->asDouble() + static_cast<double>(limbs->size()) >
        static_cast<double>(kLimbs))
        return false;
    for (std::size_t i = 0; i < limbs->size(); ++i) {
        const JsonValue &d = limbs->item(i);
        if (!integral(&d) || d.asDouble() < 0.0 ||
            d.asDouble() >= static_cast<double>(kBase))
            return false;
    }
    return true;
}

ExactSum
ExactSum::fromJson(const JsonValue &v)
{
    ExactSum out;
    const auto sign = v.at("sign").asInt();
    BPSIM_ASSERT(sign >= -1 && sign <= 1, "ExactSum: bad sign %lld",
                 static_cast<long long>(sign));
    if (sign == 0)
        return out;
    const auto lo = v.at("lo").asInt();
    const JsonValue &limbs = v.at("limbs");
    BPSIM_ASSERT(lo >= 0 &&
                     lo + static_cast<std::int64_t>(limbs.size()) <=
                         kLimbs,
                 "ExactSum: limb range out of bounds");
    for (std::size_t i = 0; i < limbs.size(); ++i) {
        const auto digit = limbs.item(i).asInt();
        BPSIM_ASSERT(digit >= 0 && digit < kBase,
                     "ExactSum: digit %lld outside [0, 2^30)",
                     static_cast<long long>(digit));
        out.limb_[lo + static_cast<std::int64_t>(i)] = sign * digit;
    }
    if (limbs.size() != 0)
        out.touch(static_cast<int>(lo),
                  static_cast<int>(lo) + static_cast<int>(limbs.size()) -
                      1);
    return out;
}

} // namespace bpsim
