/**
 * @file
 * Online (single-pass, bounded-memory) statistics for Monte Carlo
 * campaigns: the one per-metric aggregate (MergingMetric) and Wilson
 * score intervals for binomial proportions (the loss-free-year
 * fraction).
 *
 * Everything here is deterministic in the input *sequence*: feeding
 * the same observations in the same order yields bit-identical state.
 * The campaign runner exploits this by always consuming trial results
 * in trial-id order, so campaign statistics do not depend on the
 * thread count or scheduling (see campaign/runner.hh).
 */

#ifndef BPSIM_CAMPAIGN_ONLINE_STATS_HH
#define BPSIM_CAMPAIGN_ONLINE_STATS_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "campaign/exact_sum.hh"
#include "campaign/tdigest.hh"

namespace bpsim
{

/** A binomial proportion with its Wilson score interval. */
struct BinomialCi
{
    double fraction = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Wilson score interval for @p successes out of @p trials at normal
 * quantile @p z (1.96 = 95%). Well-behaved at 0 and 1, unlike the
 * Wald interval. Returns all-zero for trials == 0.
 */
BinomialCi wilsonInterval(std::uint64_t successes, std::uint64_t trials,
                          double z = 1.96);

/** Digest compression of every campaign metric (≲1% mid-rank error). */
constexpr double kDigestCompression = 100.0;

/** Mean and population variance of a metric. */
struct Moments
{
    double mean = 0.0;
    double variance = 0.0;
};

/**
 * Moments of @p n observations whose exact sum and sum of squares are
 * @p sum and @p sumSq. Reads each sum once. Variance is 0 below two
 * observations and clamped at 0.
 */
Moments momentsOf(std::uint64_t n, const ExactSum &sum,
                  const ExactSum &sumSq);

/**
 * One metric's observations over a chunk of consecutive trials,
 * prepared away from the in-order fold (a pool worker prepares it
 * while it still holds the chunk) so that MergingMetric::foldChunk
 * only merges: the chunk's stable sort permutation, and its exact
 * sums when it carries them.
 */
struct MetricChunk
{
    /** Stable ascending permutation of the chunk (ties by arrival). */
    std::vector<std::uint16_t> order;
    /** Σx and Σx² of the chunk, when it carries them. */
    bool hasSums = false;
    ExactSum sum, sumSq;

    /** Longest chunk a uint16_t permutation can index. */
    static constexpr std::size_t kMaxLength = 65536;

    /**
     * Prepare values[0, n) (in fold order, n <= kMaxLength); with
     * @p sums, also their exact sums.
     */
    void prepare(const double *values, std::size_t n, bool sums);
};

/**
 * One campaign metric: integer count, ExactSum sums (so mean and
 * variance are bit-identical for any partition of the trials into
 * shards, checkpoints or resumes), exact min/max, and a t-digest for
 * quantiles. The same type serves a single-process campaign, a shard
 * and a checkpoint; the campaign aggregate holds five of them.
 */
class MergingMetric
{
  public:
    /** Add one per-trial observation. */
    void add(double x);

    /**
     * @name Chunk fold
     * add() for the first @p n values of a MetricChunk at once, with
     * the same state. Σx and Σx² come from the chunk when it carries
     * them; otherwise the caller adds each observation's with
     * addSums() (the stop rule reads them after every trial).
     */
    ///@{
    /** Add @p x to Σx and Σx² only. */
    void addSums(double x);
    /**
     * Fold values[0, n) of @p chunk, prepared from @p values (in fold
     * order; n <= the chunk's length).
     */
    void foldChunk(const double *values, const MetricChunk &chunk,
                   std::size_t n);
    ///@}

    /** Fold another metric in (exact except for digest placement). */
    void merge(const MergingMetric &other);

    std::uint64_t count() const { return n_; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    /** sum/n via ExactSum: bit-identical for any shard partition. */
    double mean() const;
    /** Population variance from exact sums (clamped at 0). */
    double variance() const;
    double stddev() const;
    /**
     * Normal-approximation half-width of the confidence interval on
     * the mean: z * sqrt(variance / n). Zero for fewer than 2 samples.
     */
    double meanCiHalfWidth(double z = 1.96) const;

    /** Any quantile, from the t-digest (see campaign/tdigest.hh). */
    double quantile(double q) const { return digest_.quantile(q); }
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    const ExactSum &sum() const { return sum_; }
    const ExactSum &sumSq() const { return sumSq_; }
    const TDigest &digest() const { return digest_; }

    /**
     * Emit the exact state as a JSON object in value position. The
     * digest is written unflushed (TDigest::writeStateJson), so a
     * metric read back and fed more observations is bit-identical to
     * one that never left memory.
     */
    void writeJson(JsonWriter &w) const;
    /**
     * Rebuild from writeJson output. Returns nullopt on malformed or
     * inconsistent input instead of asserting: metric state arrives
     * from shard files and disk caches.
     */
    static std::optional<MergingMetric> fromJson(const JsonValue &v);

  private:
    std::uint64_t n_ = 0;
    double min_ = 0.0, max_ = 0.0;
    ExactSum sum_, sumSq_;
    TDigest digest_{kDigestCompression};
};

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_ONLINE_STATS_HH
