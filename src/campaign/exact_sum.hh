/**
 * @file
 * Exact, mergeable accumulation of doubles for distributed campaign
 * aggregates.
 *
 * Floating-point addition is not associative, so a campaign mean
 * computed as "sum of shard sums / n" would depend on how the trial
 * range was partitioned. ExactSum side-steps this by accumulating
 * into a fixed-point superaccumulator (one signed limb per 30 bits of
 * binary exponent, spanning the entire double range): every add() and
 * merge() is exact, so the accumulated value — and therefore the
 * merged campaign mean and CI — is bit-identical for any shard count
 * and any merge order. See docs/CAMPAIGN.md "Sharding".
 */

#ifndef BPSIM_CAMPAIGN_EXACT_SUM_HH
#define BPSIM_CAMPAIGN_EXACT_SUM_HH

#include <array>
#include <cstdint>

namespace bpsim
{

class JsonWriter;
class JsonValue;

/**
 * Exact sum of doubles: add() folds the full 53-bit significand of
 * each finite input into base-2^30 limbs with no rounding, merge()
 * adds accumulators limb-wise, and value() reads the total back out
 * as a double (faithfully rounded, and a pure function of the exact
 * real sum — never of the order values or shards were combined in).
 *
 * Capacity: each limb absorbs ~2^32 adds between normalizations;
 * add() renormalizes automatically long before that bound, so the
 * accumulator is safe for arbitrarily long campaigns.
 *
 * Cost: the accumulator tracks the lowest and highest limb it has
 * touched, and normalize()/value() visit only that range. Campaign
 * metrics span a few limbs, so reading the sum once per trial (the
 * early-stop rule) stays cheap.
 */
class ExactSum
{
  public:
    /** Add one finite observation (exactly). */
    void add(double x);

    /** Fold another accumulator in (exactly; commutative). */
    void merge(const ExactSum &other);

    /** The accumulated sum, faithfully rounded to double. */
    double value() const;

    /** True when nothing (or only zeros) has been accumulated. */
    bool zero() const;

    /**
     * Emit as a JSON object `{"sign":s,"lo":j,"limbs":[...]}` in
     * value position: the canonical base-2^30 limbs of |sum| from
     * limb index `lo` upward. Round-trips exactly through
     * ExactSum::fromJson.
     */
    void writeJson(JsonWriter &w) const;

    /** Rebuild from writeJson output (asserts on malformed input). */
    static ExactSum fromJson(const JsonValue &v);

    /**
     * True when @p v is a well-formed writeJson document that
     * fromJson would accept without asserting. Checkpoint readers
     * validate untrusted payloads with this first, so a corrupt file
     * degrades to a cache miss instead of aborting the server.
     */
    static bool validJson(const JsonValue &v);

  private:
    static constexpr int kLimbBits = 30;
    /** Lowest representable bit: 2^-1074 (subnormal ulp). */
    static constexpr int kBias = 1074;
    /** Limbs covering exponents -1074..1024 plus carry headroom. */
    static constexpr int kLimbs = (kBias + 1024 + 53) / kLimbBits + 2;

    /** Carry-propagate into the canonical single-sign form. */
    void normalize();

    /** Widen the touched range to cover limbs [lo, hi]. */
    void touch(int lo, int hi);

    /** value = sum_j limb[j] * 2^(j*30 - 1074) */
    std::array<std::int64_t, kLimbs> limb_{};
    /** Every limb outside [lo_, hi_] is zero (empty when lo_ > hi_). */
    int lo_ = kLimbs, hi_ = -1;
    /**
     * add()s since the last normalize(), a merge counting as one more
     * than the merged sum's own (overflow guard: every limb stays below
     * (dirty_ + 1) * 2^30 in magnitude).
     */
    std::uint32_t dirty_ = 0;
};

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_EXACT_SUM_HH
