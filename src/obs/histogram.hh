/**
 * @file
 * Log-linear bucketed histogram (HDR-style) for distribution metrics
 * such as DG start latency or per-outage downtime.
 *
 * Layout: values are grouped by power-of-two octave, each octave split
 * into kSubBuckets linear sub-buckets, giving a worst-case relative
 * quantile error of 1/kSubBuckets (~6 %) over the whole representable
 * range [2^kMinExp, 2^(kMaxExp+1)). Bucket 0 catches zero, negative
 * and underflowing values; the last bucket catches overflow. Bucket
 * boundaries are pure functions of the index — no per-instance state
 * — so snapshots, merges and quantile queries are deterministic.
 *
 * Concurrency: record() is one relaxed fetch_add per call, the same
 * contract as obs::Counter. Totals are sums of per-trial
 * contributions and therefore identical for any thread count.
 *
 * Merging: snapshots are sparse (index -> count) maps and merge by
 * bucket-wise addition — associative and commutative — so per-shard
 * histogram deltas ride shard aggregate files next to the counters
 * sidecar and recombine bit-identically for any shard partition or
 * merge order. For the same reason sum() is *derived* from bucket
 * counts times representative values rather than accumulated at
 * record time: a true running sum of doubles would be order-dependent
 * and break the any-partition bit-identity invariant.
 */

#ifndef BPSIM_OBS_HISTOGRAM_HH
#define BPSIM_OBS_HISTOGRAM_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace bpsim
{
namespace obs
{

/** Sparse histogram snapshot: bucket index -> count (zeros omitted). */
struct HistogramSnapshot
{
    std::map<std::uint32_t, std::uint64_t> buckets;

    /** Total recorded count. */
    std::uint64_t count() const;
    /** Sum derived from bucket midpoints (bucket-resolution exact). */
    double sum() const;
    /**
     * Quantile @p q in [0, 1] by cumulative bucket walk with linear
     * interpolation inside the target bucket. Returns 0 when empty.
     */
    double quantile(double q) const;

    bool operator==(const HistogramSnapshot &o) const
    {
        return buckets == o.buckets;
    }
    bool operator!=(const HistogramSnapshot &o) const
    {
        return !(*this == o);
    }
};

/** Concurrent log-linear histogram (relaxed-atomic buckets). */
class Histogram
{
  public:
    /** Linear sub-buckets per power-of-two octave. */
    static constexpr int kSubBuckets = 16;
    /** Smallest distinguishable octave: values < 2^kMinExp hit
     *  bucket 0 (with zero and negatives). 2^-16 ~ 1.5e-5. */
    static constexpr int kMinExp = -16;
    /** Largest octave: values >= 2^(kMaxExp+1) (~2.8e14) hit the
     *  overflow bucket. */
    static constexpr int kMaxExp = 47;
    /** Bucket count: underflow + octaves * sub-buckets + overflow. */
    static constexpr std::uint32_t kBuckets =
        2 + static_cast<std::uint32_t>(kMaxExp - kMinExp + 1) *
                kSubBuckets;

    /** @name Pure bucket-layout functions (shared with snapshots) */
    ///@{
    static std::uint32_t bucketIndex(double v);
    static double bucketLowerBound(std::uint32_t i);
    static double bucketUpperBound(std::uint32_t i);
    /** Representative value used for the derived sum (the bucket
     *  midpoint; 0 for the underflow bucket, the lower bound for the
     *  overflow bucket). */
    static double bucketMidpoint(std::uint32_t i);
    ///@}

    /** Record one value (one relaxed fetch_add). */
    void record(double v)
    {
        buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    }

    /** Total recorded count. */
    std::uint64_t count() const;
    /** See HistogramSnapshot::quantile(). */
    double quantile(double q) const;

    /** Sparse copy of the current bucket counts. */
    HistogramSnapshot snapshot() const;
    /** Zero every bucket (the registry reset contract). */
    void reset();

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/**
 * Key-wise, bucket-wise histogram-map addition: the shard-merge
 * operation. Associative and commutative, so any merge tree over any
 * partition of the same event stream yields identical totals.
 */
void mergeHistograms(std::map<std::string, HistogramSnapshot> &into,
                     const std::map<std::string, HistogramSnapshot> &from);

} // namespace obs
} // namespace bpsim

#endif // BPSIM_OBS_HISTOGRAM_HH
