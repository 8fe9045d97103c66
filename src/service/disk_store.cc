#include "service/disk_store.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "campaign/json.hh"
#include "service/cache.hh"

namespace bpsim
{
namespace service
{

namespace
{

/**
 * On-disk entry layout (format "bpsim.store.v1"): a line-oriented
 * header terminated by one blank line, then the raw key bytes
 * immediately followed by the raw value bytes. Lengths and FNV-1a
 * checksums in the header authenticate both payloads; the buildId
 * line scopes every entry to the binary that wrote it.
 */
constexpr const char *kMagic = "bpsim.store.v1";

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One "name=value\n" header line; false on any deviation. */
bool
readHeaderLine(std::istringstream &is, const char *name,
               std::string &value)
{
    std::string line;
    if (!std::getline(is, line))
        return false;
    const std::string prefix = std::string(name) + "=";
    if (line.rfind(prefix, 0) != 0)
        return false;
    value = line.substr(prefix.size());
    return true;
}

bool
parseLen(const std::string &s, std::size_t &out)
{
    if (s.empty() || s.size() > 15)
        return false;
    std::size_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::size_t>(c - '0');
    }
    out = v;
    return true;
}

} // namespace

DiskStore::DiskStore(std::string dir, obs::Registry *registry)
    : dir_(std::move(dir)),
      registry_(registry)
{
    if (dir_.empty())
        return;
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
        count("service.disk.errors");
        dir_.clear(); // degrade to a memory-only server
    }
}

std::string
DiskStore::pathFor(const std::string &key) const
{
    return dir_ + "/" + hex16(fnv1a64(key)) + ".bpsim";
}

std::size_t
DiskStore::fileCount() const
{
    if (!enabled())
        return 0;
    DIR *d = ::opendir(dir_.c_str());
    if (d == nullptr)
        return 0;
    std::size_t n = 0;
    constexpr const char *kExt = ".bpsim";
    constexpr std::size_t kExtLen = 6;
    while (const dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() > kExtLen &&
            name.compare(name.size() - kExtLen, kExtLen, kExt) == 0)
            ++n;
    }
    ::closedir(d);
    return n;
}

std::optional<std::string>
DiskStore::load(const std::string &key) const
{
    if (!enabled())
        return std::nullopt;
    std::ifstream is(pathFor(key), std::ios::binary);
    if (!is) {
        count("service.disk.misses");
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string file = ss.str();

    // Validate the header line by line; everything after the blank
    // line is payload. Any deviation at all is a corrupt entry.
    const auto corrupt = [this]() -> std::optional<std::string> {
        count("service.disk.corrupt");
        return std::nullopt;
    };
    const std::size_t header_end = file.find("\n\n");
    if (header_end == std::string::npos)
        return corrupt();
    std::istringstream header(file.substr(0, header_end + 1));
    std::string magic, build, key_len_s, value_len_s, key_fnv, value_fnv;
    if (!readHeaderLine(header, "magic", magic) || magic != kMagic)
        return corrupt();
    if (!readHeaderLine(header, "build", build) || build != buildId())
        return corrupt(); // foreign binary: trajectories not comparable
    std::size_t key_len = 0, value_len = 0;
    if (!readHeaderLine(header, "key_len", key_len_s) ||
        !parseLen(key_len_s, key_len) ||
        !readHeaderLine(header, "value_len", value_len_s) ||
        !parseLen(value_len_s, value_len) ||
        !readHeaderLine(header, "key_fnv", key_fnv) ||
        !readHeaderLine(header, "value_fnv", value_fnv))
        return corrupt();

    const std::size_t payload = header_end + 2;
    if (file.size() != payload + key_len + value_len)
        return corrupt(); // truncated (or padded) payload
    const std::string stored_key = file.substr(payload, key_len);
    std::string value = file.substr(payload + key_len, value_len);
    if (hex16(fnv1a64(stored_key)) != key_fnv ||
        hex16(fnv1a64(value)) != value_fnv)
        return corrupt();
    if (stored_key != key) {
        // 64-bit address collision: the file is healthy but belongs
        // to a different key. A miss, not corruption.
        count("service.disk.misses");
        return std::nullopt;
    }
    count("service.disk.loads");
    return value;
}

bool
DiskStore::store(const std::string &key, const std::string &value) const
{
    if (!enabled())
        return false;
    const std::string path = pathFor(key);
    // Unique per write, not just per process: concurrent misses can
    // store the same key at once, and a shared temp name would let
    // one writer rename the other's half-written file into place.
    static std::atomic<std::uint64_t> sequence{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
        "." + std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            count("service.disk.errors");
            return false;
        }
        os << "magic=" << kMagic << '\n'
           << "build=" << buildId() << '\n'
           << "key_len=" << key.size() << '\n'
           << "value_len=" << value.size() << '\n'
           << "key_fnv=" << hex16(fnv1a64(key)) << '\n'
           << "value_fnv=" << hex16(fnv1a64(value)) << '\n'
           << '\n'
           << key << value;
        os.flush();
        if (!os) {
            count("service.disk.errors");
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        count("service.disk.errors");
        std::remove(tmp.c_str());
        return false;
    }
    count("service.disk.stores");
    return true;
}

void
DiskStore::count(const char *name) const
{
    if (registry_ != nullptr)
        registry_->counter(name).add(1);
}

} // namespace service
} // namespace bpsim
