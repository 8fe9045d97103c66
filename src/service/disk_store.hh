/**
 * @file
 * Content-addressed disk spill for the what-if server's caches.
 *
 * One file per canonical key, named by the key's FNV-1a 64-bit hash,
 * written atomically (tmp file + rename) so a crashed or killed server
 * never leaves a half-written entry behind. Each file carries a small
 * validated header — magic, format version, the producing buildId,
 * key/value lengths and FNV checksums — followed by the raw key and
 * value bytes. load() re-verifies all of it: a truncated file, a
 * flipped bit, a checksum mismatch, a foreign build, or a hash
 * collision (stored key != requested key) all degrade to a miss,
 * never to a wrong or crashing answer. That is the whole durability
 * contract: the disk is a best-effort warm-start accelerator, and the
 * server must behave identically (minus latency) with an empty, a
 * corrupt, or a missing cache directory. See docs/SERVICE.md
 * "Persistent cache".
 */

#ifndef BPSIM_SERVICE_DISK_STORE_HH
#define BPSIM_SERVICE_DISK_STORE_HH

#include <optional>
#include <string>

#include "obs/registry.hh"

namespace bpsim
{
namespace service
{

/** Content-addressed one-file-per-key store under one directory. */
class DiskStore
{
  public:
    /**
     * @p dir empty disables the store (every load misses, every store
     * is a no-op). The directory is created if absent; on failure the
     * store disables itself and counts `service.disk.errors`.
     * @p registry receives the `service.disk.*` counters; null counts
     * nothing.
     */
    explicit DiskStore(std::string dir,
                       obs::Registry *registry = nullptr);

    /** False when constructed with an empty/uncreatable directory. */
    bool enabled() const { return !dir_.empty(); }

    /** The backing directory ("" when disabled). */
    const std::string &dir() const { return dir_; }

    /**
     * Read the value stored for @p key. nullopt when absent — or on
     * any validation failure (truncation, checksum mismatch, foreign
     * buildId, key collision), which also counts
     * `service.disk.corrupt`.
     */
    std::optional<std::string> load(const std::string &key) const;

    /**
     * Atomically persist @p value for @p key, overwriting any previous
     * entry. Safe to call concurrently, also for one key: every write
     * goes through its own temp file, and the last rename wins.
     * Returns false (counting `service.disk.errors`) on I/O failure;
     * the caller treats that as "no disk", not an error.
     */
    bool store(const std::string &key, const std::string &value) const;

    /** The file a key lives in (for tests and forensics). */
    std::string pathFor(const std::string &key) const;

    /** Number of `*.bpsim` entries on disk right now (0 when
     *  disabled). A directory scan — /v1/status cost, not hot-path. */
    std::size_t fileCount() const;

  private:
    /** Add one to counter @p name (when there is a registry). */
    void count(const char *name) const;

    std::string dir_;
    obs::Registry *const registry_;
};

} // namespace service
} // namespace bpsim

#endif // BPSIM_SERVICE_DISK_STORE_HH
