/**
 * @file
 * Persistent-cache tests: the DiskStore fault battery (truncation,
 * bit flips, checksum mismatch, foreign buildId, hash collision —
 * every one a miss, never a crash or a wrong answer) and the service
 * warm-restart round trip: a second CampaignService pointed at the
 * same --cache-dir serves the first's results from disk and resumes
 * from its spilled checkpoints.
 */

#include "service/service.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <stdlib.h>

#include <gtest/gtest.h>

#include "obs/obs.hh"

using namespace bpsim;
using namespace bpsim::service;

namespace
{

/** A fresh temporary directory, removed (best effort) on scope exit. */
struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/bpsim_persist_XXXXXX";
        path = ::mkdtemp(tmpl);
        EXPECT_FALSE(path.empty());
    }
    ~TempDir()
    {
        std::system(("rm -rf " + path).c_str());
    }
    std::string path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

HttpRequest
post(const std::string &body)
{
    HttpRequest req;
    req.method = "POST";
    req.target = "/v1/whatif";
    req.body = body;
    return req;
}

const std::string *
header(const HttpResponse &resp, const std::string &name)
{
    for (const auto &[k, v] : resp.headers)
        if (k == name)
            return &v;
    return nullptr;
}

const char *const kBody =
    "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":10,\"seed\":21,"
    "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
    "\"serve_for_min\":10.0,\"low_power\":true}}";

} // namespace

TEST(DiskStoreTest, RoundTripsValuesAndCountsLoads)
{
    TempDir dir;
    obs::Registry reg;
    DiskStore store(dir.path, &reg);
    ASSERT_TRUE(store.enabled());

    const std::string key = "whatif.v1|some|canonical|key";
    const std::string value = "{\"answer\":42}\n";
    EXPECT_FALSE(store.load(key).has_value());
    ASSERT_TRUE(store.store(key, value));
    const auto back = store.load(key);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, value);
    EXPECT_EQ(reg.counter("service.disk.stores").value(), 1u);
    EXPECT_EQ(reg.counter("service.disk.loads").value(), 1u);
    EXPECT_EQ(reg.counter("service.disk.misses").value(), 1u);

    // Overwrite is atomic and last-writer-wins.
    ASSERT_TRUE(store.store(key, "v2"));
    EXPECT_EQ(*store.load(key), "v2");
}

TEST(DiskStoreTest, ConcurrentStoresOfOneKeyLeaveOneIntactValue)
{
    // Concurrent misses can store one key at once; every write must
    // go through its own temp file, so the survivor is one writer's
    // value, whole, and no temp file is left behind.
    constexpr int kWriters = 8;
    TempDir dir;
    obs::Registry reg;
    DiskStore store(dir.path, &reg);
    const std::string key = "ckpt|one-scenario";
    std::vector<std::string> values;
    for (int i = 0; i < kWriters; ++i)
        values.push_back(std::string(1 << 18, static_cast<char>('a' + i)));

    for (int round = 0; round < 4; ++round) {
        std::atomic<int> ready{0};
        std::atomic<int> failed{0};
        std::vector<std::thread> writers;
        for (int i = 0; i < kWriters; ++i)
            writers.emplace_back([&, i] {
                ready.fetch_add(1);
                while (ready.load() < kWriters)
                    std::this_thread::yield();
                if (!store.store(key, values[static_cast<std::size_t>(i)]))
                    failed.fetch_add(1);
            });
        for (auto &w : writers)
            w.join();
        EXPECT_EQ(failed.load(), 0) << "round " << round;

        const auto back = store.load(key);
        ASSERT_TRUE(back.has_value()) << "round " << round;
        EXPECT_NE(std::find(values.begin(), values.end(), *back),
                  values.end());
        for (const auto &entry :
             std::filesystem::directory_iterator(dir.path))
            EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                      std::string::npos)
                << entry.path();
    }
}

TEST(DiskStoreTest, TruncatedFilesAreMisses)
{
    TempDir dir;
    obs::Registry reg;
    DiskStore store(dir.path, &reg);
    const std::string key = "k";
    ASSERT_TRUE(store.store(key, "a longer value with bytes in it"));
    const std::string intact = readFile(store.pathFor(key));
    ASSERT_FALSE(intact.empty());

    // Every truncation point — mid-header, mid-key, mid-value — is a
    // clean miss.
    for (std::size_t len = 0; len < intact.size();
         len += 7) {
        writeFile(store.pathFor(key), intact.substr(0, len));
        EXPECT_FALSE(store.load(key).has_value()) << "len=" << len;
    }
    EXPECT_GT(reg.counter("service.disk.corrupt").value(), 0u);

    // Restoring the original bytes restores the entry.
    writeFile(store.pathFor(key), intact);
    EXPECT_TRUE(store.load(key).has_value());
}

TEST(DiskStoreTest, BitFlipsAndChecksumMismatchesAreMisses)
{
    TempDir dir;
    obs::Registry reg;
    DiskStore store(dir.path, &reg);
    const std::string key = "flip-target";
    ASSERT_TRUE(store.store(key, "payload payload payload"));
    const std::string intact = readFile(store.pathFor(key));

    // Flip one bit at a spread of offsets (header, key and value all
    // get hit); each corruption must read as a miss.
    for (std::size_t off = 0; off < intact.size(); off += 11) {
        std::string bad = intact;
        bad[off] = static_cast<char>(bad[off] ^ 0x10);
        writeFile(store.pathFor(key), bad);
        EXPECT_FALSE(store.load(key).has_value()) << "off=" << off;
    }
    EXPECT_GT(reg.counter("service.disk.corrupt").value(), 0u);
}

TEST(DiskStoreTest, ForeignBuildEntriesAreMisses)
{
    TempDir dir;
    obs::Registry reg;
    DiskStore store(dir.path, &reg);
    const std::string key = "cross-build";
    ASSERT_TRUE(store.store(key, "value"));
    std::string bytes = readFile(store.pathFor(key));

    // Swap the build line for a same-length imposter: every checksum
    // still matches, but the producing binary does not.
    const std::string real = "build=" + std::string(buildId());
    const auto at = bytes.find(real);
    ASSERT_NE(at, std::string::npos);
    std::string fake = real;
    fake[6] = fake[6] == 'z' ? 'y' : 'z';
    bytes.replace(at, real.size(), fake);
    writeFile(store.pathFor(key), bytes);
    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_GT(reg.counter("service.disk.corrupt").value(), 0u);
}

TEST(DiskStoreTest, HashCollisionDegradesToAMiss)
{
    TempDir dir;
    obs::Registry reg;
    DiskStore store(dir.path, &reg);
    // Simulate a 64-bit address collision by copying key A's file
    // onto key B's path: the entry is healthy, just not B's.
    const std::string a = "key-a", b = "key-b";
    ASSERT_TRUE(store.store(a, "value-of-a"));
    writeFile(store.pathFor(b), readFile(store.pathFor(a)));
    const std::uint64_t corrupt_before =
        reg.counter("service.disk.corrupt").value();
    EXPECT_FALSE(store.load(b).has_value());
    // A collision is a miss, not corruption.
    EXPECT_EQ(reg.counter("service.disk.corrupt").value(),
              corrupt_before);
    EXPECT_EQ(*store.load(a), "value-of-a");
}

TEST(DiskStoreTest, EmptyDirDisablesTheStore)
{
    obs::Registry reg;
    DiskStore store("", &reg);
    EXPECT_FALSE(store.enabled());
    EXPECT_FALSE(store.store("k", "v"));
    EXPECT_FALSE(store.load("k").has_value());
}

TEST(DiskStoreTest, UncreatableDirSelfDisables)
{
    obs::Registry reg;
    DiskStore store("/proc/definitely/not/creatable", &reg);
    EXPECT_FALSE(store.enabled());
    EXPECT_GE(reg.counter("service.disk.errors").value(), 1u);
}

TEST(PersistTest, WarmRestartServesResultsFromDisk)
{
    TempDir dir;
    std::string first_body, first_key;
    {
        ServiceOptions opts;
        opts.evaluateAlerts = false;
        opts.cacheDir = dir.path;
        CampaignService service(opts);
        const HttpResponse first = service.handle(post(kBody));
        ASSERT_EQ(first.status, 200) << first.body;
        EXPECT_EQ(*header(first, "X-Bpsim-Cache"), "miss");
        first_body = first.body;
        first_key = *header(first, "X-Bpsim-Key");
    } // "kill" the server

    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.cacheDir = dir.path;
    CampaignService restarted(opts);
    const HttpResponse warm = restarted.handle(post(kBody));
    ASSERT_EQ(warm.status, 200) << warm.body;
    EXPECT_EQ(*header(warm, "X-Bpsim-Cache"), "hit");
    ASSERT_NE(header(warm, "X-Bpsim-Cache-Tier"), nullptr);
    EXPECT_EQ(*header(warm, "X-Bpsim-Cache-Tier"), "disk");
    EXPECT_EQ(warm.body, first_body);
    EXPECT_EQ(*header(warm, "X-Bpsim-Key"), first_key);

    // Promoted to memory: the next hit does not touch the disk.
    const HttpResponse memory = restarted.handle(post(kBody));
    EXPECT_EQ(*header(memory, "X-Bpsim-Cache-Tier"), "memory");
    EXPECT_EQ(memory.body, first_body);
}

TEST(PersistTest, WarmRestartResumesFromSpilledCheckpoints)
{
    TempDir dir;
    const char *const kBigger =
        "{\"config\":\"NoUPS\",\"servers\":4,\"trials\":30,\"seed\":21,"
        "\"technique\":{\"kind\":\"throttle_sleep\",\"pstate\":5,"
        "\"serve_for_min\":10.0,\"low_power\":true}}";
    {
        ServiceOptions opts;
        opts.evaluateAlerts = false;
        opts.cacheDir = dir.path;
        CampaignService service(opts);
        ASSERT_EQ(service.handle(post(kBody)).status, 200);
    }

    // The restarted server has an empty memory cache, but the bigger
    // budget resumes from the 10-trial checkpoint spilled to disk.
    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.cacheDir = dir.path;
    CampaignService restarted(opts);
    const HttpResponse bigger = restarted.handle(post(kBigger));
    ASSERT_EQ(bigger.status, 200) << bigger.body;
    EXPECT_EQ(*header(bigger, "X-Bpsim-Cache"), "miss");
    ASSERT_NE(header(bigger, "X-Bpsim-Resumed-From"), nullptr);
    EXPECT_EQ(*header(bigger, "X-Bpsim-Resumed-From"), "10");

    // Still byte-identical to a cold service with no disk at all.
    ServiceOptions cold_opts;
    cold_opts.evaluateAlerts = false;
    CampaignService cold(cold_opts);
    const HttpResponse reference = cold.handle(post(kBigger));
    EXPECT_EQ(bigger.body, reference.body);
}

TEST(PersistTest, CorruptSpillFilesDegradeToRecomputation)
{
    TempDir dir;
    std::string first_body;
    {
        ServiceOptions opts;
        opts.evaluateAlerts = false;
        opts.cacheDir = dir.path;
        CampaignService service(opts);
        const HttpResponse first = service.handle(post(kBody));
        ASSERT_EQ(first.status, 200);
        first_body = first.body;
    }

    // Flip a bit in the middle of every spilled file.
    std::system(("for f in " + dir.path +
                 "/*.bpsim; do printf 'X' | dd of=\"$f\" bs=1 "
                 "seek=40 conv=notrunc 2>/dev/null; done")
                    .c_str());

    ServiceOptions opts;
    opts.evaluateAlerts = false;
    opts.cacheDir = dir.path;
    CampaignService restarted(opts);
    const HttpResponse recomputed = restarted.handle(post(kBody));
    ASSERT_EQ(recomputed.status, 200) << recomputed.body;
    // Corruption means a miss and a fresh campaign — with the same
    // deterministic bytes as the original answer.
    EXPECT_EQ(*header(recomputed, "X-Bpsim-Cache"), "miss");
    EXPECT_EQ(recomputed.body, first_body);
}
