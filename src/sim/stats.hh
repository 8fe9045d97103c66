/**
 * @file
 * Streaming summary statistics (Welford), used throughout the models
 * and the benchmark harnesses.
 */

#ifndef BPSIM_SIM_STATS_HH
#define BPSIM_SIM_STATS_HH

#include <cstddef>

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

} // namespace bpsim

#endif // BPSIM_SIM_STATS_HH
