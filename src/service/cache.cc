#include "service/cache.hh"

#include <utility>

namespace bpsim
{
namespace service
{

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

ResultCache::ResultCache(std::size_t maxEntries, obs::Registry *registry,
                         std::string prefix)
    : maxEntries_(maxEntries == 0 ? 1 : maxEntries),
      registry_(registry),
      prefix_(std::move(prefix)),
      hitCount_(registry, prefix_ + ".hits"),
      missCount_(registry, prefix_ + ".misses"),
      evictionCount_(registry, prefix_ + ".evictions"),
      insertionCount_(registry, prefix_ + ".insertions")
{
}

std::optional<std::string>
ResultCache::get(const std::string &key, bool countMiss)
{
    const std::uint64_t h = fnv1a64(key);
    std::lock_guard<std::mutex> lk(m_);
    const auto it = index_.find(h);
    if (it == index_.end() || it->second->key != key) {
        if (!countMiss)
            return std::nullopt;
        ++stats_.misses;
        missCount_.add();
        return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    hitCount_.add();
    return it->second->value;
}

std::optional<std::string>
ResultCache::peek(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(m_);
    const auto it = index_.find(fnv1a64(key));
    if (it == index_.end() || it->second->key != key)
        return std::nullopt;
    return it->second->value;
}

void
ResultCache::put(const std::string &key, std::string value)
{
    const std::uint64_t h = fnv1a64(key);
    std::lock_guard<std::mutex> lk(m_);
    const auto it = index_.find(h);
    if (it != index_.end()) {
        // Overwrite (also the hash-collision path: the colliding old
        // entry is replaced, keeping at most one entry per address).
        stats_.valueBytes -= it->second->value.size();
        stats_.valueBytes += value.size();
        it->second->key = key;
        it->second->value = std::move(value);
        lru_.splice(lru_.begin(), lru_, it->second);
        touchCounters();
        return;
    }
    while (lru_.size() >= maxEntries_) {
        const Entry &victim = lru_.back();
        stats_.valueBytes -= victim.value.size();
        index_.erase(victim.hash);
        lru_.pop_back();
        ++stats_.evictions;
        evictionCount_.add();
    }
    stats_.valueBytes += value.size();
    lru_.push_front(Entry{h, key, std::move(value)});
    index_[h] = lru_.begin();
    ++stats_.insertions;
    insertionCount_.add();
    touchCounters();
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lk(m_);
    lru_.clear();
    index_.clear();
    stats_.valueBytes = 0;
    touchCounters();
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lk(m_);
    CacheStats s = stats_;
    s.entries = lru_.size();
    return s;
}

void
ResultCache::touchCounters()
{
    if (registry_ == nullptr)
        return;
    registry_->gauge(prefix_ + ".entries")
        .set(static_cast<double>(lru_.size()));
    registry_->gauge(prefix_ + ".value_bytes")
        .set(static_cast<double>(stats_.valueBytes));
}

} // namespace service
} // namespace bpsim
