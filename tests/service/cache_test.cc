/**
 * @file
 * Result-cache tests: FNV-1a content addressing, LRU eviction order,
 * and the hit/miss/eviction counters a local obs::Registry observes.
 */

#include "service/cache.hh"

#include <gtest/gtest.h>

using namespace bpsim;
using namespace bpsim::service;

TEST(Fnv1a64, ReferenceVectors)
{
    // The published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ResultCacheTest, MissThenHit)
{
    obs::Registry reg;
    ResultCache cache(8, &reg);

    EXPECT_FALSE(cache.get("key").has_value());
    cache.put("key", "value");
    const auto hit = cache.get("key");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "value");

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.valueBytes, 5u);

    // The same story told through the registry.
    EXPECT_EQ(reg.counter("service.cache.hits").value(), 1u);
    EXPECT_EQ(reg.counter("service.cache.misses").value(), 1u);
    EXPECT_EQ(reg.counter("service.cache.insertions").value(), 1u);
    EXPECT_EQ(reg.gauge("service.cache.entries").value(), 1.0);
    EXPECT_EQ(reg.gauge("service.cache.value_bytes").value(), 5.0);
}

TEST(ResultCacheTest, UncountedMissLeavesCountersAlone)
{
    // The service's lock-free first lookup passes countMiss = false:
    // an absent key counts nothing, a present one still counts a hit.
    obs::Registry reg;
    ResultCache cache(8, &reg);

    EXPECT_FALSE(cache.get("key", false).has_value());
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(reg.counter("service.cache.misses").value(), 0u);

    cache.put("key", "value");
    ASSERT_TRUE(cache.get("key", false).has_value());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(reg.counter("service.cache.hits").value(), 1u);
}

TEST(ResultCacheTest, LruEvictionKeepsRecentlyUsed)
{
    obs::Registry reg;
    ResultCache cache(2, &reg);
    cache.put("a", "1");
    cache.put("b", "2");
    // Touch "a" so "b" becomes the LRU tail, then overflow.
    EXPECT_TRUE(cache.get("a").has_value());
    cache.put("c", "3");

    EXPECT_TRUE(cache.get("a").has_value());
    EXPECT_FALSE(cache.get("b").has_value()); // evicted
    EXPECT_TRUE(cache.get("c").has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(reg.counter("service.cache.evictions").value(), 1u);
}

TEST(ResultCacheTest, PutOverwritesInPlace)
{
    obs::Registry reg;
    ResultCache cache(4, &reg);
    cache.put("k", "old");
    cache.put("k", "newer");
    const auto v = cache.get("k");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, "newer");
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().valueBytes, 5u);
}

TEST(ResultCacheTest, ClearDropsEntriesButNotCounters)
{
    obs::Registry reg;
    ResultCache cache(4, &reg);
    cache.put("k", "v");
    EXPECT_TRUE(cache.get("k").has_value());
    cache.clear();
    EXPECT_FALSE(cache.get("k").has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().valueBytes, 0u);
    EXPECT_EQ(cache.stats().hits, 1u); // history survives clear()
    EXPECT_EQ(reg.gauge("service.cache.entries").value(), 0.0);
}

TEST(ResultCacheTest, ZeroCapacityClampsToOne)
{
    obs::Registry reg;
    ResultCache cache(0, &reg);
    cache.put("a", "1");
    cache.put("b", "2");
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_FALSE(cache.get("a").has_value());
    EXPECT_TRUE(cache.get("b").has_value());
}
