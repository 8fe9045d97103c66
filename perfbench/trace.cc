#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>

#include "obs/export.hh"

namespace perfbench
{

namespace
{

struct Buffer
{
    std::uint32_t thread = 0;
    std::vector<Span> spans;
};

/** Owns every thread's buffer, so spans outlive pool threads. */
struct Buffers
{
    std::mutex m;
    std::vector<std::unique_ptr<Buffer>> all;
};

Buffers &
buffers()
{
    static Buffers b;
    return b;
}

Buffer &
threadBuffer()
{
    thread_local Buffer *mine = nullptr;
    if (mine == nullptr) {
        Buffers &b = buffers();
        std::lock_guard<std::mutex> lk(b.m);
        b.all.push_back(std::make_unique<Buffer>());
        mine = b.all.back().get();
        mine->thread = static_cast<std::uint32_t>(b.all.size());
    }
    return *mine;
}

std::atomic<std::uint64_t> g_nextId{0};

} // namespace

std::uint64_t
newSpanId()
{
    return g_nextId.fetch_add(1, std::memory_order_relaxed) + 1;
}

void
recordSpan(const Span &s)
{
    Buffer &b = threadBuffer();
    b.spans.push_back(s);
    b.spans.back().thread = b.thread;
}

std::uint64_t
recordSpan(const char *name, std::uint64_t parent, std::int64_t startNs,
           std::int64_t endNs, std::uint64_t tag)
{
    Span s;
    s.id = newSpanId();
    s.parent = parent;
    s.name = name;
    s.startNs = startNs;
    s.endNs = endNs;
    s.tag = tag;
    recordSpan(s);
    return s.id;
}

std::vector<Span>
collectSpans()
{
    Buffers &b = buffers();
    std::lock_guard<std::mutex> lk(b.m);
    std::vector<Span> out;
    for (const auto &buf : b.all) {
        out.insert(out.end(), buf->spans.begin(), buf->spans.end());
        buf->spans.clear();
    }
    std::sort(out.begin(), out.end(), [](const Span &a, const Span &b) {
        return a.startNs != b.startNs ? a.startNs < b.startNs : a.id < b.id;
    });
    return out;
}

bool
writeChromeTrace(
    const std::string &path, const std::vector<Span> &spans,
    const std::vector<std::pair<std::string, std::string>> &metadata)
{
    const std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    std::vector<bpsim::obs::SpanEvent> events;
    events.reserve(std::min(spans.size(), kMaxTraceSpans));
    for (const Span &s : spans) {
        if (events.size() == kMaxTraceSpans)
            break;
        bpsim::obs::SpanEvent e;
        e.name = s.name;
        e.category = "perfbench";
        e.track = s.thread;
        e.startUs = (s.startNs - origin) / 1000;
        e.durUs = (s.endNs - s.startNs) / 1000;
        e.args = {{"id", std::to_string(s.id)},
                  {"parent", std::to_string(s.parent)},
                  {"tag", std::to_string(s.tag)}};
        events.push_back(std::move(e));
    }
    std::ofstream os(path, std::ios::out | std::ios::trunc);
    bpsim::obs::TraceExportOptions opts;
    opts.metadata = metadata;
    bpsim::obs::writeSpanTrace(os, events, opts);
    return os.good();
}

} // namespace perfbench
