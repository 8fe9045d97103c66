#include "campaign/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/logging.hh"

namespace bpsim
{

void
JsonWriter::separate()
{
    if (pending_key) {
        pending_key = false;
        return;
    }
    if (!used.empty()) {
        if (used.back())
            os << ',';
        used.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    os << '{';
    used.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    BPSIM_ASSERT(!used.empty(), "endObject() without beginObject()");
    used.pop_back();
    os << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    os << '[';
    used.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    BPSIM_ASSERT(!used.empty(), "endArray() without beginArray()");
    used.pop_back();
    os << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    separate();
    os << '"' << name << "\":";
    pending_key = true;
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os << buf;
    } else {
        os << "null"; // JSON has no inf/nan
    }
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separate();
    os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    separate();
    os << v;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    os << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    separate();
    os << json;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    os << '"';
    for (char c : v) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
    return *this;
}

bool
JsonValue::asBool() const
{
    BPSIM_ASSERT(kind_ == Kind::Bool, "JSON value is not a boolean");
    return bool_;
}

double
JsonValue::asDouble() const
{
    BPSIM_ASSERT(kind_ == Kind::Number, "JSON value is not a number");
    return num_;
}

std::int64_t
JsonValue::asInt() const
{
    const double d = asDouble();
    const auto i = static_cast<std::int64_t>(d);
    BPSIM_ASSERT(static_cast<double>(i) == d,
                 "JSON number %g is not an integer", d);
    return i;
}

std::uint64_t
JsonValue::asUint() const
{
    const std::int64_t i = asInt();
    BPSIM_ASSERT(i >= 0, "JSON number %lld is negative",
                 static_cast<long long>(i));
    return static_cast<std::uint64_t>(i);
}

std::optional<std::uint64_t>
jsonUint(const JsonValue *v)
{
    if (!v || v->kind() != JsonValue::Kind::Number)
        return std::nullopt;
    const double d = v->asDouble();
    if (!(d >= 0.0 && d < 0x1p63) || d != std::floor(d))
        return std::nullopt;
    return static_cast<std::uint64_t>(d);
}

std::optional<double>
jsonFinite(const JsonValue *v)
{
    if (!v || v->kind() != JsonValue::Kind::Number ||
        !std::isfinite(v->asDouble()))
        return std::nullopt;
    return v->asDouble();
}

const std::string &
JsonValue::asString() const
{
    BPSIM_ASSERT(kind_ == Kind::String, "JSON value is not a string");
    return str_;
}

std::size_t
JsonValue::size() const
{
    if (kind_ == Kind::Object)
        return members_.size();
    BPSIM_ASSERT(kind_ == Kind::Array, "JSON value is not a container");
    return items_.size();
}

const JsonValue &
JsonValue::item(std::size_t i) const
{
    BPSIM_ASSERT(kind_ == Kind::Array, "JSON value is not an array");
    BPSIM_ASSERT(i < items_.size(), "JSON array index %zu out of range",
                 i);
    return items_[i];
}

const std::pair<std::string, JsonValue> &
JsonValue::member(std::size_t i) const
{
    BPSIM_ASSERT(kind_ == Kind::Object, "JSON value is not an object");
    BPSIM_ASSERT(i < members_.size(),
                 "JSON object member index %zu out of range", i);
    return members_[i];
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    BPSIM_ASSERT(v != nullptr, "JSON object has no member \"%s\"",
                 key.c_str());
    return *v;
}

JsonValue
JsonValue::makeNull()
{
    return {};
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double d)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
}

void
JsonValue::append(JsonValue v)
{
    BPSIM_ASSERT(kind_ == Kind::Array, "append() on a non-array");
    items_.push_back(std::move(v));
}

void
JsonValue::set(std::string key, JsonValue v)
{
    BPSIM_ASSERT(kind_ == Kind::Object, "set() on a non-object");
    members_.emplace_back(std::move(key), std::move(v));
}

namespace
{

/** Recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text(text) {}

    std::optional<JsonValue>
    parse(std::string *error)
    {
        JsonValue v;
        if (!parseValue(v) || !atEndAfterSpace()) {
            if (error)
                *error = formatString("%s at offset %zu", err.c_str(),
                                      pos);
            return std::nullopt;
        }
        return v;
    }

  private:
    bool
    fail(const char *why)
    {
        if (err.empty())
            err = why;
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    atEndAfterSpace()
    {
        skipSpace();
        return pos == text.size() || fail("trailing garbage");
    }

    bool
    literal(const char *word)
    {
        const std::string_view w(word);
        if (text.substr(pos, w.size()) != w)
            return fail("invalid literal");
        pos += w.size();
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        switch (text[pos]) {
        case '{':
            return parseObject(out);
        case '[':
            return parseArray(out);
        case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue::makeString(std::move(s));
            return true;
        }
        case 't':
            out = JsonValue::makeBool(true);
            return literal("true");
        case 'f':
            out = JsonValue::makeBool(false);
            return literal("false");
        case 'n':
            out = JsonValue::makeNull();
            return literal("null");
        default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        if (++depth > kJsonMaxDepth)
            return fail("nesting too deep");
        ++pos; // '{'
        out = JsonValue::makeObject();
        skipSpace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            --depth;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.set(std::move(key), std::move(v));
            skipSpace();
            if (pos >= text.size())
                return fail("unterminated object");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                --depth;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        if (++depth > kJsonMaxDepth)
            return fail("nesting too deep");
        ++pos; // '['
        out = JsonValue::makeArray();
        skipSpace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            --depth;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.append(std::move(v));
            skipSpace();
            if (pos >= text.size())
                return fail("unterminated array");
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                --depth;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos];
            if (c != '\\') {
                out.push_back(c);
                ++pos;
                continue;
            }
            if (++pos >= text.size())
                return fail("unterminated escape");
            switch (text[pos]) {
            case '"':
            case '\\':
            case '/':
                out.push_back(text[pos]);
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u': {
                if (pos + 4 >= text.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 1; i <= 4; ++i) {
                    const char h = text[pos + i];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        cp |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        cp |= h - 'A' + 10;
                    else
                        return fail("bad \\u escape");
                }
                pos += 4;
                // UTF-8 encode (surrogate pairs unsupported; the
                // writer never emits them).
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
            }
            default:
                return fail("unknown escape");
            }
            ++pos;
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing '"'
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        // JSON requires a digit here: no leading '+', '.', or 'e'
        // (strtod below would happily take "+1" or ".5").
        if (pos >= text.size() ||
            !std::isdigit(static_cast<unsigned char>(text[pos])))
            return fail("expected value");
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected value");
        const std::string num(text.substr(start, pos - start));
        char *end = nullptr;
        const double d = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size())
            return fail("malformed number");
        out = JsonValue::makeNumber(d);
        return true;
    }

    std::string_view text;
    std::size_t pos = 0;
    /** Current container nesting (bounded by kJsonMaxDepth). */
    int depth = 0;
    std::string err;
};

} // namespace

std::optional<JsonValue>
parseJson(std::string_view text, std::string *error)
{
    return JsonParser(text).parse(error);
}

std::optional<JsonValue>
parseJsonFile(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return parseJson(ss.str(), error);
}

const char *
buildId()
{
#ifdef BPSIM_BUILD_ID
    return BPSIM_BUILD_ID;
#else
    return "unknown";
#endif
}

const std::string &
hostCpuModel()
{
    static const std::string model = [] {
        std::ifstream is("/proc/cpuinfo");
        std::string line;
        while (std::getline(is, line)) {
            const auto colon = line.find(':');
            if (colon == std::string::npos)
                continue;
            if (line.compare(0, 10, "model name") != 0)
                continue;
            std::size_t start = colon + 1;
            while (start < line.size() && line[start] == ' ')
                ++start;
            return line.substr(start);
        }
        return std::string("unknown");
    }();
    return model;
}

unsigned
hostCoreCount()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

std::string
writeBenchJsonFile(const std::string &name,
                   const std::function<void(JsonWriter &)> &body)
{
    const std::string file = "BENCH_" + name + ".json";
    std::ofstream os(file);
    if (!os) {
        warn("cannot write %s", file.c_str());
        return "";
    }
    JsonWriter w(os);
    w.beginObject();
    w.field("bench", name);
    w.field("build", buildId());
    w.field("host_cpu", hostCpuModel());
    w.field("host_cores", static_cast<std::uint64_t>(hostCoreCount()));
    body(w);
    w.endObject();
    os << '\n';
    return os ? file : "";
}

} // namespace bpsim
