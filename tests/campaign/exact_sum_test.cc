/**
 * @file
 * Tests for the ExactSum superaccumulator: the merge layer's claim of
 * bit-identical statistics for any shard partitioning rests entirely
 * on addition here being exact and associative.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/exact_sum.hh"
#include "campaign/json.hh"
#include "sim/random.hh"

namespace bpsim
{
namespace
{

TEST(ExactSum, EmptyIsZero)
{
    ExactSum s;
    EXPECT_EQ(s.value(), 0.0);
}

TEST(ExactSum, SingleValueRoundTrips)
{
    for (const double x : {1.0, -1.0, 0.1, -1e300, 1e-300, 1e308,
                           5e-324, -5e-324, 123456.789}) {
        ExactSum s;
        s.add(x);
        EXPECT_EQ(s.value(), x) << "x = " << x;
    }
}

TEST(ExactSum, CancellationIsExact)
{
    // Classic float failure: (1e16 + 1) - 1e16 == 0 in double chains.
    ExactSum s;
    s.add(1e16);
    s.add(1.0);
    s.add(-1e16);
    EXPECT_EQ(s.value(), 1.0);

    // Huge magnitudes cancelling to a tiny residue.
    ExactSum t;
    t.add(1e300);
    t.add(1e-300);
    t.add(-1e300);
    EXPECT_EQ(t.value(), 1e-300);
}

TEST(ExactSum, KahanKillerSeries)
{
    // Alternating large/small values whose naive double sum drifts:
    // the ulp at 1e16 is 2.0, so every +0.25 near the big magnitude
    // is rounded away.
    ExactSum s;
    double naive = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const double big = (i % 2 == 0) ? 1e16 : -1e16;
        s.add(big);
        s.add(0.25);
        naive += big;
        naive += 0.25;
    }
    EXPECT_EQ(s.value(), 250.0);
    EXPECT_NE(naive, 250.0); // the whole point of ExactSum
}

TEST(ExactSum, AssociativeUnderRandomPartitioning)
{
    // Sum a fixed stream serially, then as randomly-sized chunks
    // merged in random-ish orders. Bitwise equality required.
    Rng rng(2014);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i) {
        // Mix magnitudes and signs aggressively.
        const double mag = std::ldexp(rng.nextDouble(),
                                      static_cast<int>(rng.nextU64() % 600) - 300);
        xs.push_back(rng.nextDouble() < 0.5 ? mag : -mag);
    }

    ExactSum serial;
    for (const double x : xs)
        serial.add(x);
    const double expect = serial.value();

    for (int trial = 0; trial < 10; ++trial) {
        Rng part(100 + trial);
        std::vector<ExactSum> chunks;
        std::size_t i = 0;
        while (i < xs.size()) {
            const std::size_t len =
                1 + static_cast<std::size_t>(part.nextU64() % 700);
            ExactSum c;
            for (std::size_t j = i; j < std::min(i + len, xs.size()); ++j)
                c.add(xs[j]);
            chunks.push_back(c);
            i += len;
        }
        // Merge back-to-front to exercise a different order than the
        // serial pass.
        ExactSum merged;
        for (auto it = chunks.rbegin(); it != chunks.rend(); ++it)
            merged.merge(*it);
        EXPECT_EQ(merged.value(), expect) << "trial " << trial;
    }
}

TEST(ExactSum, SubnormalsAccumulateExactly)
{
    const double tiny = std::numeric_limits<double>::denorm_min();
    ExactSum s;
    for (int i = 0; i < 1000; ++i)
        s.add(tiny);
    EXPECT_EQ(s.value(), 1000 * tiny);
}

TEST(ExactSum, ManyLargeValuesDoNotOverflow)
{
    // 1e6 copies of the largest finite double exceeds double range in
    // the accumulator but value() saturates sensibly only when asked;
    // here we cancel back down before reading.
    const double big = std::numeric_limits<double>::max();
    ExactSum s;
    for (int i = 0; i < 64; ++i)
        s.add(big);
    for (int i = 0; i < 64; ++i)
        s.add(-big);
    s.add(3.5);
    EXPECT_EQ(s.value(), 3.5);
}

TEST(ExactSum, JsonRoundTripIsBitwise)
{
    Rng rng(7);
    ExactSum s;
    for (int i = 0; i < 300; ++i)
        s.add((rng.nextDouble() - 0.5) * std::ldexp(1.0, i % 120 - 60));

    std::ostringstream os;
    {
        JsonWriter w(os);
        s.writeJson(w);
    }
    const auto parsed = parseJson(os.str());
    ASSERT_TRUE(parsed.has_value());
    const ExactSum back = ExactSum::fromJson(*parsed);
    EXPECT_EQ(back.value(), s.value());

    // And the re-serialization is byte-identical (canonical form).
    std::ostringstream os2;
    {
        JsonWriter w(os2);
        back.writeJson(w);
    }
    EXPECT_EQ(os.str(), os2.str());
}

/** Canonical serialized form: equal exact sums print identically. */
std::string
canonical(const ExactSum &s)
{
    std::ostringstream os;
    JsonWriter w(os);
    s.writeJson(w);
    return os.str();
}

TEST(ExactSum, SparseFarApartLimbsWithCancellation)
{
    // Limbs hundreds of positions apart; the top ones cancel and leave
    // a residue at the bottom, of either sign, which the touched-limb
    // range must still find.
    ExactSum s;
    s.add(1e300);
    s.add(-1e-300);
    s.add(-1e300);
    EXPECT_EQ(s.value(), -1e-300);
    s.add(2e-300);
    EXPECT_EQ(s.value(), 1e-300);
    s.add(5e-324);
    s.add(-1e-300);
    EXPECT_EQ(s.value(), 5e-324);
    EXPECT_FALSE(s.zero());

    // A borrow across a run of zero limbs: 2^600 - 2^-600.
    ExactSum b;
    b.add(std::ldexp(1.0, 600));
    b.add(-std::ldexp(1.0, -600));
    ExactSum direct;
    direct.add(-std::ldexp(1.0, -600));
    direct.add(std::ldexp(1.0, 600));
    EXPECT_EQ(canonical(b), canonical(direct));
    EXPECT_EQ(b.value(), std::ldexp(1.0, 600));

    // Merging accumulators with disjoint ranges equals adding the
    // surviving terms directly, digit for digit.
    ExactSum hi, lo;
    hi.add(1e200);
    lo.add(-1e200);
    lo.add(3.0);
    lo.add(1e-200);
    hi.merge(lo);
    ExactSum want;
    want.add(1e-200);
    want.add(3.0);
    EXPECT_EQ(canonical(hi), canonical(want));
    EXPECT_EQ(hi.value(), 3.0);

    // A cancelled bottom limb leaves the canonical digits unchanged.
    ExactSum gap;
    gap.add(1e-300);
    gap.add(1.0);
    gap.add(-1e-300);
    ExactSum one;
    one.add(1.0);
    EXPECT_EQ(canonical(gap), canonical(one));

    // Carries out of the highest limb an add touched: 2^28 - 1 fills
    // the top of its three limbs, so 1000 of them carry one higher.
    ExactSum carry;
    for (int i = 0; i < 1000; ++i)
        carry.add(268435455.0);
    EXPECT_EQ(carry.value(), 268435455000.0);
}

TEST(ExactSum, FromJsonThenMoreAddsMatchesNeverSerialized)
{
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 400; ++i)
        xs.push_back((rng.nextDouble() - 0.5) *
                     std::ldexp(1.0, i % 200 - 100));
    ExactSum straight, head;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        straight.add(xs[i]);
        if (i < xs.size() / 2)
            head.add(xs[i]);
    }
    const auto parsed = parseJson(canonical(head));
    ASSERT_TRUE(parsed.has_value());
    ExactSum resumed = ExactSum::fromJson(*parsed);
    for (std::size_t i = xs.size() / 2; i < xs.size(); ++i)
        resumed.add(xs[i]);
    EXPECT_EQ(resumed.value(), straight.value());
    EXPECT_EQ(canonical(resumed), canonical(straight));

    // A value far below anything read back must extend the range.
    resumed.add(5e-324);
    straight.add(5e-324);
    EXPECT_EQ(canonical(resumed), canonical(straight));
}

TEST(ExactSum, MergingADirtySumEqualsAddingItsValues)
{
    // merge() folds the other side's limbs as they are, without
    // normalizing a copy first. Dirty limbs (out of canonical range,
    // mixed signs) must still give the digits of adding the values.
    std::vector<double> xs;
    for (int i = 0; i < 3000; ++i)
        xs.push_back((i % 3 ? 1.0 : -1.0) * 268435455.0 *
                     std::ldexp(1.0, i % 7 - 3));
    ExactSum dirty, direct;
    for (const double x : xs) {
        dirty.add(x);
        direct.add(x);
    }
    ExactSum into;
    into.add(-0.75);
    into.merge(dirty);
    direct.add(-0.75);
    EXPECT_EQ(canonical(into), canonical(direct));
    EXPECT_EQ(into.value(), direct.value());

    // Doubling by merging a copy 40 times: the merged headroom compounds
    // past the renormalization bound, which must still fire in time.
    ExactSum doubled = dirty;
    for (int k = 0; k < 40; ++k) {
        const ExactSum copy = doubled;
        doubled.merge(copy);
    }
    ExactSum scaled;
    for (const double x : xs)
        scaled.add(std::ldexp(x, 40));
    EXPECT_EQ(canonical(doubled), canonical(scaled));
}

TEST(ExactSum, ZeroQuery)
{
    ExactSum s;
    EXPECT_TRUE(s.zero());
    s.add(42.0);
    EXPECT_FALSE(s.zero());
    s.add(-42.0);
    EXPECT_TRUE(s.zero()); // exact cancellation is recognized
}

} // namespace
} // namespace bpsim
