/**
 * @file
 * Mergeable streaming quantile sketch (t-digest, Dunning & Ertl).
 *
 * The quantile sketch behind every campaign metric's p50/p95/p99
 * (campaign/online_stats.hh). A t-digest keeps a size-bounded list of (mean, weight) centroids whose widths
 * follow the k1 scale function — fine near the tails, coarse in the
 * middle — so any two digests merge into a digest of the union with
 * bounded rank error. Campaign shards each build one digest per
 * metric and the coordinator merges them (see campaign/shard.hh).
 *
 * Determinism: feeding the same observations in the same order yields
 * bit-identical state, and merging the same digests in the same order
 * is likewise reproducible. That holds whether the observations arrive
 * one by one (add) or as presorted runs (addRun): the buffer keeps
 * arrival order either way, and a flush's stable sort of the centroids
 * and the buffer equals the left-biased merge of its stably sorted
 * pieces taken in order. So a flush always merges: a run gives one
 * presorted piece per stretch between flush points, and the points
 * that arrived by add, merge or fromStateJson since the last run are
 * sorted into one more.
 * Merging in a *different* order changes centroid placement
 * slightly — quantiles then agree to within the sketch's rank error,
 * not bitwise (the exact aggregates that must be bit-stable across
 * shardings live in ExactSum instead).
 */

#ifndef BPSIM_CAMPAIGN_TDIGEST_HH
#define BPSIM_CAMPAIGN_TDIGEST_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace bpsim
{

class JsonWriter;
class JsonValue;

/** Mergeable quantile sketch with the k1 (arcsine) scale function. */
class TDigest
{
  public:
    /** One cluster of nearby observations. */
    struct Centroid
    {
        double mean = 0.0;
        double weight = 0.0;
    };

    /**
     * @p compression (δ) bounds the flushed digest to about ⌈δ⌉
     * centroids; rank error scales as O(q(1-q)/δ). 100 is a good
     * default (≲1% mid-rank error, much tighter at the tails).
     */
    explicit TDigest(double compression = 100.0);

    /** Add one observation with the given weight. */
    void add(double x, double weight = 1.0);

    /**
     * Add values[0, n) as unit-weight observations, with the state n
     * add() calls would leave. @p values holds @p length observations
     * in arrival order and @p order is their stable ascending
     * permutation (ties keep arrival order); only the entries below
     * @p n are kept. The digest cuts the run at its own flush points:
     * filtering a stable permutation by arrival index keeps both the
     * value order and the order of ties, so each piece is the stable
     * sort of its observations, and its first entry and the first of
     * its trailing equal entries are the first minimum and the first
     * maximum, as a std::min / std::max fold finds them. The next flush
     * merges each piece instead of sorting it. A 1-value run is an
     * add().
     */
    void addRun(const double *values, const std::uint16_t *order,
                std::size_t length, std::size_t n);

    /** Fold another digest into this one. */
    void merge(const TDigest &other);

    /**
     * Estimated value of the @p q quantile (0 <= q <= 1); piecewise
     * linear between centroid midpoints, anchored at the exact
     * min/max. 0 for an empty digest.
     */
    double quantile(double q) const;

    /** Total observations added (merges included). */
    std::uint64_t count() const { return count_; }

    double compression() const { return compression_; }

    /** Exact extremes of everything added. */
    double min() const;
    double max() const;

    /** Flushed centroids, ascending by mean. */
    const std::vector<Centroid> &centroids() const;

    /**
     * Emit as a JSON object in value position:
     * `{"compression":δ,"count":n,"min":m,"max":M,
     *   "centroids":[[mean,weight],...]}`.
     * Round-trips bit-exactly through TDigest::fromJson (the writer
     * prints doubles with %.17g).
     */
    void writeJson(JsonWriter &w) const;

    /** Rebuild from writeJson output (asserts on malformed input). */
    static TDigest fromJson(const JsonValue &v);

    /**
     * @name Exact-state checkpointing
     * writeJson() flushes first, which is right for *merging* but
     * changes the future clustering trajectory: a digest flushed at
     * trial K and then fed trials K..M-1 clusters differently from
     * one fed 0..M-1 straight through. Shard files and checkpoints
     * (campaign/shard.hh), which must resume and merge bit-identically,
     * therefore serialize the raw internal state — the flushed centroids AND
     * the pending buffer, verbatim, with no flush.
     */
    ///@{
    /** Emit the exact internal state as a JSON object (no flush). */
    void writeStateJson(JsonWriter &w) const;
    /**
     * Rebuild from writeStateJson output. Returns nullopt on
     * malformed input (checkpoint payloads arrive from disk, so this
     * validates instead of asserting).
     */
    static std::optional<TDigest> fromStateJson(const JsonValue &v);
    ///@}

  private:
    /** Buffer capacity: a flush every this many buffered points. */
    std::size_t flushEvery() const;

    /** Sort the buffer into the centroid list and re-cluster. */
    void flush() const;

    /**
     * Buffer values[0, n), one piece of a run, whose sorted copy was
     * just appended to sorted_ (see addRun).
     */
    void addPiece(const double *values, std::size_t n);

    /** Stable-sort the buffered points past the last run into sorted_. */
    void sealTail() const;
    /** The flush order of the centroids and the buffer. */
    std::vector<Centroid> mergeRuns() const;

    double compression_;
    std::uint64_t count_ = 0;
    double min_ = 0.0, max_ = 0.0;
    /** Clustered state + pending raw points; flushed lazily so the
     * read-side accessors can stay const. */
    mutable std::vector<Centroid> centroids_;
    mutable std::vector<Centroid> buffer_;
    /**
     * Sorted copies of a prefix of buffer_, piece by piece: piece i is
     * sorted_[cuts_[i-1], cuts_[i]). Not part of the serialized state.
     */
    mutable std::vector<Centroid> sorted_;
    mutable std::vector<std::size_t> cuts_;
};

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_TDIGEST_HH
