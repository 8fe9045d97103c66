/**
 * @file
 * Minimal JSON layer for campaign and bench exports: a streaming
 * writer plus a small recursive-descent reader.
 *
 * The writer emits syntactically valid JSON with automatic comma
 * placement; doubles are printed with %.17g so values round-trip
 * exactly. The reader parses what the writer (and the shard export
 * format) produces — objects, arrays, strings, numbers, booleans and
 * null — into a JsonValue tree so shard aggregate files can be merged
 * back. Neither side aims to be a general-purpose JSON library.
 */

#ifndef BPSIM_CAMPAIGN_JSON_HH
#define BPSIM_CAMPAIGN_JSON_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bpsim
{

/** Streaming writer for one JSON document. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os(os) {}

    /** @name Structure */
    ///@{
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    /** Emit the key of the next member (inside an object). */
    JsonWriter &key(const std::string &name);
    ///@}

    /** @name Values */
    ///@{
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    JsonWriter &value(const char *v);
    JsonWriter &value(const std::string &v);
    /**
     * Splice pre-serialized JSON verbatim in value position. The
     * caller guarantees `json` is one complete JSON value (e.g. an
     * array built by another JsonWriter).
     */
    JsonWriter &raw(const std::string &json);
    ///@}

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    void separate();

    std::ostream &os;
    /** Per-nesting-level "a member has been emitted" flags. */
    std::vector<bool> used;
    /** A key() is pending, so the next value needs no comma. */
    bool pending_key = false;
};

/**
 * One parsed JSON value. Objects preserve member order; numbers are
 * stored as double (exact for every integer the exporters emit, all
 * far below 2^53).
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** @name Typed accessors (assert on kind mismatch) */
    ///@{
    bool asBool() const;
    double asDouble() const;
    /** The number as an integer (asserts it is integral). */
    std::int64_t asInt() const;
    /** The number as a non-negative integer. */
    std::uint64_t asUint() const;
    const std::string &asString() const;
    ///@}

    /** @name Array access */
    ///@{
    /** Element count (arrays and objects). */
    std::size_t size() const;
    const JsonValue &item(std::size_t i) const;
    ///@}

    /** @name Object access */
    ///@{
    /** Member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(const std::string &key) const;
    /** Member lookup; asserts presence. */
    const JsonValue &at(const std::string &key) const;
    /** i-th member, in parse order (for iterating dynamic keys). */
    const std::pair<std::string, JsonValue> &member(std::size_t i) const;
    ///@}

    /** @name Construction (used by the parser and tests) */
    ///@{
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double d);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray();
    static JsonValue makeObject();
    void append(JsonValue v);                      // array
    void set(std::string key, JsonValue v);        // object
    ///@}

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Maximum container nesting depth parseJson() accepts. The parser is
 * recursive-descent, so untrusted input (the what-if server feeds it
 * raw request bodies) could otherwise drive unbounded stack growth
 * with a few kilobytes of '['. Every document the exporters emit is
 * fewer than ten levels deep; 64 leaves generous headroom.
 */
constexpr int kJsonMaxDepth = 64;

/**
 * Parse one JSON document. Returns nullopt on malformed input —
 * including container nesting beyond kJsonMaxDepth — with a
 * human-readable reason (including the byte offset) in @p error when
 * provided. Trailing whitespace is allowed; trailing garbage is not.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

/** Parse the whole contents of @p path; nullopt on I/O or parse error. */
std::optional<JsonValue> parseJsonFile(const std::string &path,
                                       std::string *error = nullptr);

/**
 * @name Defensive member reads
 * For documents read back from disk (shard files, checkpoints): each
 * returns nullopt for a missing member (@p v null) or the wrong kind
 * instead of asserting like the typed accessors.
 */
///@{
/** A non-negative integer that fits int64. */
std::optional<std::uint64_t> jsonUint(const JsonValue *v);
/** A finite number. */
std::optional<double> jsonFinite(const JsonValue *v);
///@}

/**
 * Build identifier stamped into exported files: `git describe
 * --always --dirty` captured at configure time ("unknown" outside a
 * git checkout). Ties every result file back to the binary that
 * produced it.
 */
const char *buildId();

/** @name Host provenance (for bench trajectory comparability) */
///@{
/** CPU model string from /proc/cpuinfo ("unknown" elsewhere). */
const std::string &hostCpuModel();
/** Hardware concurrency of this host. */
unsigned hostCoreCount();
///@}

/**
 * Write `BENCH_<name>.json` in the current working directory with
 * `body` filling the members of the top-level object ("bench",
 * "build" and host-provenance members are emitted first). Returns
 * the file name, or "" on I/O failure.
 */
std::string writeBenchJsonFile(const std::string &name,
                               const std::function<void(JsonWriter &)> &body);

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_JSON_HH
