/**
 * @file
 * Content-addressed campaign result cache for the what-if server.
 *
 * Entries are addressed by the FNV-1a 64-bit hash of a *canonical
 * key* — the deterministic serialization of everything the result is
 * a pure function of: scenario config, seed, trial budget and
 * buildId (see whatif.hh canonicalCacheKey()). Because campaign
 * results are bit-identical for any thread count, a cache hit can
 * return the stored response bytes verbatim and the reply is
 * indistinguishable from re-simulating — which is the whole point: a
 * repeated or merged what-if costs a map lookup, not a Monte Carlo
 * campaign.
 *
 * Eviction is LRU over a bounded entry count. Hits, misses,
 * insertions and evictions are counted in an obs::Registry so the
 * /metrics exposition (and the CI smoke test) can watch hit rates.
 * The full key is stored and compared on lookup, so a 64-bit hash
 * collision degrades to a miss, never to a wrong answer.
 */

#ifndef BPSIM_SERVICE_CACHE_HH
#define BPSIM_SERVICE_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/registry.hh"

namespace bpsim
{
namespace service
{

/** FNV-1a 64-bit hash (the content address of a canonical key). */
std::uint64_t fnv1a64(std::string_view bytes);

/** Point-in-time cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    /** Total cached value bytes. */
    std::size_t valueBytes = 0;
};

/** Bounded, thread-safe, content-addressed LRU cache. */
class ResultCache
{
  public:
    /**
     * @p maxEntries bounds the cache (>= 1). @p registry receives the
     * `<prefix>.*` counters/gauges; null counts nothing (the stats()
     * totals are kept either way). @p prefix names this
     * instance's metrics — the what-if result cache keeps the
     * historical "service.cache", the checkpoint cache uses
     * "service.ckpt.cache" so the two hit rates stay separable.
     */
    explicit ResultCache(std::size_t maxEntries = 256,
                         obs::Registry *registry = nullptr,
                         std::string prefix = "service.cache");

    /** Look up the canonical @p key; copies the stored value out and
     *  marks the entry most-recently used. With @p countMiss false an
     *  absent key is not counted (for a caller that will look again
     *  and count then), so each request still counts at most once. */
    std::optional<std::string> get(const std::string &key,
                                   bool countMiss = true);

    /** The stored value for @p key, without counting the lookup or
     *  touching the LRU order (for the service's own bookkeeping). */
    std::optional<std::string> peek(const std::string &key) const;

    /** Insert/overwrite the value for @p key, evicting the LRU tail
     *  when the entry bound is exceeded. */
    void put(const std::string &key, std::string value);

    /** Drop every entry (counters are not reset). */
    void clear();

    CacheStats stats() const;

  private:
    struct Entry
    {
        std::uint64_t hash = 0;
        std::string key;
        std::string value;
    };

    void touchCounters();

    const std::size_t maxEntries_;
    obs::Registry *const registry_;
    const std::string prefix_;
    /** prefix + ".hits" and so on. */
    obs::LazyCounter hitCount_, missCount_, evictionCount_,
        insertionCount_;

    mutable std::mutex m_;
    /** Front = most recently used. */
    std::list<Entry> lru_;
    /** Content address -> entry. Full keys verified on lookup. */
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    CacheStats stats_;
};

} // namespace service
} // namespace bpsim

#endif // BPSIM_SERVICE_CACHE_HH
