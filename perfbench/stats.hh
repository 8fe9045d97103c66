/**
 * @file
 * Pure helpers of the benchmark, kept free of sockets and clocks so
 * selftest.cc can pin them: the percentile rule, the OpenMetrics phase
 * parser, span self-time arithmetic and open-loop due-time accounting.
 */

#ifndef BPSIM_PERFBENCH_STATS_HH
#define BPSIM_PERFBENCH_STATS_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

// ---------------------------------------------------------------- //
// Percentiles

/** Samples strictly above the nearest-rank @p q quantile of @p n. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    // Nearest rank: the smallest rank r with r >= q * n (1-based).
    std::size_t r = static_cast<std::size_t>(q * static_cast<double>(n));
    if (static_cast<double>(r) < q * static_cast<double>(n))
        ++r;
    r = std::clamp<std::size_t>(r, 1, n);
    return n - r;
}

/** A reported percentile must keep at least this many samples beyond. */
constexpr std::size_t kMinBeyond = 10;

/**
 * The highest of p99, p95, p90, p75 and p50 that is at most @p want
 * and keeps kMinBeyond samples beyond it; p50 when none does.
 */
inline double
highestAllowedQuantile(std::size_t n, double want)
{
    for (const double q : {0.99, 0.95, 0.90, 0.75})
        if (q <= want && samplesBeyond(n, q) >= kMinBeyond)
            return q;
    return 0.50;
}

/** Nearest-rank quantile of @p sorted (ascending); 0 when empty. */
inline double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t n = sorted.size();
    return sorted[n - 1 - samplesBeyond(n, q)];
}

/** Median and the rule-abiding tail of one latency sample. */
struct LatencySummary
{
    std::size_t n = 0;
    double p50 = 0.0;
    /** The tail quantile actually reported (see highestAllowedQuantile). */
    double tailQ = 0.0;
    double tail = 0.0;
};

inline LatencySummary
summarize(std::vector<double> samples, double want_tail)
{
    std::sort(samples.begin(), samples.end());
    LatencySummary s;
    s.n = samples.size();
    s.p50 = quantileSorted(samples, 0.50);
    s.tailQ = highestAllowedQuantile(s.n, want_tail);
    s.tail = quantileSorted(samples, s.tailQ);
    return s;
}

/** "p99" for 0.99, "p50" for 0.5. */
inline std::string
quantileLabel(double q)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
    return buf;
}

/** One timing with its sample count beside it, e.g. "1.20 ms (n=512)". */
inline std::string
formatTiming(double value, const char *unit, std::size_t n)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.4g %s (n=%zu)", value, unit, n);
    return buf;
}

// ---------------------------------------------------------------- //
// OpenMetrics request-phase histograms

/** Sum and count of one phase's request-seconds histogram. */
struct PhaseTotals
{
    double sum = 0.0;
    double count = 0.0;
};

/** The request phases a what-if passes through (server vocabulary). */
inline const std::vector<std::string> &
requestPhases()
{
    static const std::vector<std::string> phases = {
        "read",    "parse",    "wait",   "cache_mem",  "cache_disk",
        "checkpoint", "campaign", "alerts", "serialize", "write"};
    return phases;
}

/**
 * Parse the `bpsim_service_request_seconds_{sum,count}` lines of a
 * /metrics exposition into per-phase totals for @p endpoint, summed
 * over status codes. The synthetic phase "total" covers the whole
 * request.
 */
inline std::map<std::string, PhaseTotals>
parseRequestPhases(std::string_view text, std::string_view endpoint)
{
    static constexpr std::string_view kFamily =
        "bpsim_service_request_seconds_";
    std::map<std::string, PhaseTotals> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = text.size();
        const std::string_view line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.substr(0, kFamily.size()) != kFamily)
            continue;
        const std::string_view rest = line.substr(kFamily.size());
        const bool is_sum = rest.substr(0, 4) == "sum{";
        const bool is_count = rest.substr(0, 6) == "count{";
        if (!is_sum && !is_count)
            continue;
        const std::size_t open = rest.find('{');
        const std::size_t close = rest.find('}', open);
        if (close == std::string_view::npos)
            continue;
        // Labels: k="v" pairs; values never contain quotes here.
        std::map<std::string, std::string> labels;
        std::string_view ls = rest.substr(open + 1, close - open - 1);
        while (!ls.empty()) {
            const std::size_t eq = ls.find("=\"");
            if (eq == std::string_view::npos)
                break;
            const std::size_t endq = ls.find('"', eq + 2);
            if (endq == std::string_view::npos)
                break;
            labels[std::string(ls.substr(0, eq))] =
                std::string(ls.substr(eq + 2, endq - eq - 2));
            ls = ls.substr(std::min(ls.size(), endq + 2)); // skip `",`
        }
        if (labels["endpoint"] != endpoint || labels["phase"].empty())
            continue;
        const double v =
            std::strtod(std::string(rest.substr(close + 1)).c_str(),
                        nullptr);
        PhaseTotals &t = out[labels["phase"]];
        (is_sum ? t.sum : t.count) += v;
    }
    return out;
}

/** Per-phase seconds between two scrapes, plus "unspanned". */
inline std::map<std::string, double>
phaseDeltas(const std::map<std::string, PhaseTotals> &before,
            const std::map<std::string, PhaseTotals> &after)
{
    const auto sum = [](const std::map<std::string, PhaseTotals> &m,
                        const std::string &k) {
        const auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second.sum;
    };
    std::map<std::string, double> out;
    double spanned = 0.0;
    for (const std::string &p : requestPhases()) {
        out[p] = sum(after, p) - sum(before, p);
        spanned += out[p];
    }
    out["total"] = sum(after, "total") - sum(before, "total");
    out["unspanned"] = out["total"] - spanned;
    return out;
}

// ---------------------------------------------------------------- //
// Spans

/** One recorded span; times are nanoseconds on one steady clock. */
struct Span
{
    /** Unique within one trace; 0 is "no span". */
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    /** Static-storage name (the layer). */
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Trial id, chunk start or request id the span belongs to. */
    std::uint64_t tag = 0;
    /** Recording thread (Chrome-trace track). */
    std::uint32_t thread = 0;
};

/** Length of the union of @p iv, each clipped to [lo, hi). */
inline std::int64_t
coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
          std::int64_t lo, std::int64_t hi)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur = lo;
    for (auto [a, b] : iv) {
        a = std::max(a, cur);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            cur = b;
        }
    }
    return covered;
}

/**
 * Self time per span name: each span's duration minus the part of its
 * interval that its children (on any thread) cover.
 */
inline std::map<std::string, std::int64_t>
selfTimeByName(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                  std::int64_t>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    std::map<std::string, std::int64_t> out;
    for (const Span &s : spans) {
        std::int64_t self = s.endNs - s.startNs;
        const auto it = children.find(s.id);
        if (it != children.end())
            self -= coveredNs(it->second, s.startNs, s.endNs);
        out[s.name] += self;
    }
    return out;
}

// ---------------------------------------------------------------- //
// Open-loop schedule

/** One request class of an open loop: a fixed rate on its own slots. */
struct ArrivalClass
{
    double ratePerSec = 0.0;
    int slots = 1;
};

/**
 * Due-time accounting of an open loop over a fixed window. Requests of
 * class c are due every 1/rate from the window start; a due request is
 * released only while one of its class's slots is free. Each release
 * reports its lateness, send time minus max(due, the time a slot last
 * became free): the part of the delay the generator itself caused, as
 * opposed to waiting for the system under test to free a slot.
 * Latency is timed by the caller from due(), so a stall charges every
 * request that was due behind it.
 */
class OpenLoopSchedule
{
  public:
    OpenLoopSchedule(std::int64_t startNs, std::int64_t windowNs,
                     std::vector<ArrivalClass> classes)
        : startNs_(startNs), endNs_(startNs + windowNs)
    {
        for (const ArrivalClass &c : classes)
            state_.push_back({c, 0, 0, startNs});
    }

    struct Release
    {
        int cls = 0;
        std::uint64_t index = 0;
        std::int64_t dueNs = 0;
        std::int64_t lateNs = 0;
    };

    /** Due time of request @p index of class @p cls. */
    std::int64_t
    due(int cls, std::uint64_t index) const
    {
        const double period = 1e9 / state_[cls].spec.ratePerSec;
        return startNs_ +
               static_cast<std::int64_t>(static_cast<double>(index) *
                                         period);
    }

    /** Release one request due by @p now on a free slot, if any. */
    bool
    next(std::int64_t now, Release &out)
    {
        for (std::size_t c = 0; c < state_.size(); ++c) {
            State &s = state_[c];
            if (s.busy >= s.spec.slots || !pending(static_cast<int>(c)))
                continue;
            const std::int64_t d = due(static_cast<int>(c), s.next);
            if (d > now)
                continue;
            out.cls = static_cast<int>(c);
            out.index = s.next++;
            out.dueNs = d;
            out.lateNs = now - std::max(d, s.freedNs);
            ++s.busy;
            return true;
        }
        return false;
    }

    /** A request of class @p cls completed at @p now: free its slot. */
    void
    done(int cls, std::int64_t now)
    {
        State &s = state_[cls];
        if (s.busy == s.spec.slots)
            s.freedNs = now;
        --s.busy;
    }

    /** Earliest due time among classes with a free slot (or -1). */
    std::int64_t
    nextDue() const
    {
        std::int64_t best = -1;
        for (std::size_t c = 0; c < state_.size(); ++c) {
            const State &s = state_[c];
            if (s.busy >= s.spec.slots || !pending(static_cast<int>(c)))
                continue;
            const std::int64_t d = due(static_cast<int>(c), s.next);
            if (best < 0 || d < best)
                best = d;
        }
        return best;
    }

    /** True once every request due inside the window was released. */
    bool
    exhausted() const
    {
        for (std::size_t c = 0; c < state_.size(); ++c)
            if (pending(static_cast<int>(c)))
                return false;
        return true;
    }

    /** Requests of class @p cls due inside the window. */
    std::uint64_t
    planned(int cls) const
    {
        std::uint64_t n = 0;
        while (due(cls, n) < endNs_)
            ++n;
        return n;
    }

  private:
    struct State
    {
        ArrivalClass spec;
        std::uint64_t next = 0;
        int busy = 0;
        /** When a slot last became free (window start initially). */
        std::int64_t freedNs = 0;
    };

    bool
    pending(int cls) const
    {
        return due(cls, state_[cls].next) < endNs_;
    }

    std::int64_t startNs_;
    std::int64_t endNs_;
    std::vector<State> state_;
};

} // namespace perfbench

#endif // BPSIM_PERFBENCH_STATS_HH
