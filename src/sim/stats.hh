/**
 * @file
 * Lightweight statistics collectors used throughout the models and the
 * benchmark harnesses: streaming summary statistics (Welford), fixed-bin
 * histograms, and a time-weighted mean accumulator.
 */

#ifndef BPSIM_SIM_STATS_HH
#define BPSIM_SIM_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace bpsim
{

/**
 * Streaming count/mean/variance/min/max via Welford's algorithm.
 *
 * Empty-state contract: every accessor of an empty collector returns
 * exactly 0 (never NaN or a sentinel), so zero-sample windows and
 * zero-trial shards serialize and merge without special-casing.
 */
class SummaryStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations. */
    std::size_t count() const { return n; }
    /** Arithmetic mean (0 when empty). */
    double mean() const { return n ? mean_ : 0.0; }
    /** Population variance (0 for fewer than 2 samples). */
    double variance() const;
    /** Population standard deviation. */
    double stddev() const;
    /** Smallest observation (0 when empty). */
    double min() const { return n ? min_ : 0.0; }
    /** Largest observation (0 when empty). */
    double max() const { return n ? max_ : 0.0; }
    /** Sum of all observations. */
    double sum() const { return sum_; }

  private:
    std::size_t n = 0;
    double mean_ = 0.0;
    double m2 = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Histogram with uniform bins over [lo, hi); out-of-range samples land
 * in saturating underflow/overflow buckets.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    /** Add one observation. */
    void add(double x);

    /** Count in bin @p i. */
    std::uint64_t binCount(std::size_t i) const { return counts.at(i); }
    /** Inclusive lower edge of bin @p i. */
    double binLo(std::size_t i) const;
    /** Exclusive upper edge of bin @p i. */
    double binHi(std::size_t i) const;
    /** Number of regular bins. */
    std::size_t bins() const { return counts.size(); }
    /** Samples below the range. */
    std::uint64_t underflow() const { return under; }
    /** Samples at or above the range end. */
    std::uint64_t overflow() const { return over; }
    /** Total samples added, including out-of-range ones. */
    std::uint64_t total() const { return total_; }
    /** Fraction of in-range samples in bin @p i (0 when empty). */
    double binFraction(std::size_t i) const;

  private:
    double lo_, hi_;
    std::vector<std::uint64_t> counts;
    std::uint64_t under = 0, over = 0, total_ = 0;
};

/**
 * Time-weighted mean of a piecewise-constant signal fed as explicit
 * (duration, value) contributions; cheaper than a full Timeline when
 * only the mean is needed.
 */
class TimeWeightedMean
{
  public:
    /** Accumulate @p value held for @p duration. */
    void add(Time duration, double value);

    /** Total accumulated duration. */
    Time duration() const { return total; }
    /** Time-weighted mean (0 when no time accumulated). */
    double mean() const;

  private:
    Time total = 0;
    double weighted = 0.0;
};

} // namespace bpsim

#endif // BPSIM_SIM_STATS_HH
