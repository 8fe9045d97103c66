/**
 * @file
 * Self-tests of the benchmark's own arithmetic (stats.hh): the
 * percentile rule, the /metrics phase parser on a captured exposition,
 * span self time, and open-loop due-time accounting under a fake
 * clock. run.py runs this before every benchmark run; a failure stops
 * the run. Exit status 0 means every check passed.
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "stats.hh"

using namespace perfbench;

namespace
{

int g_failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "selftest: line %d: %s\n", line, what);
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
percentileRule()
{
    // p99 of 1000 samples keeps exactly 10 beyond it; of 999, only 9.
    EXPECT(samplesBeyond(1000, 0.99) == 10);
    EXPECT(samplesBeyond(999, 0.99) == 9);
    EXPECT(highestAllowedQuantile(1000, 0.99) == 0.99);
    EXPECT(highestAllowedQuantile(999, 0.99) == 0.95);
    EXPECT(highestAllowedQuantile(5000, 0.90) == 0.90);
    EXPECT(highestAllowedQuantile(100, 0.99) == 0.90);
    EXPECT(highestAllowedQuantile(40, 0.99) == 0.75);
    EXPECT(highestAllowedQuantile(19, 0.99) == 0.50);
    EXPECT(samplesBeyond(20, 0.50) == 10);

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const LatencySummary s = summarize(v, 0.99);
    EXPECT(s.n == 100);
    EXPECT(s.p50 == 50.0);
    EXPECT(s.tailQ == 0.90);
    EXPECT(s.tail == 90.0);
    EXPECT(samplesBeyond(s.n, s.tailQ) >= kMinBeyond);
    EXPECT(quantileLabel(0.99) == "p99");
    EXPECT(formatTiming(1.5, "ms", 100) == "1.5 ms (n=100)");
}

/** Captured from campaign_server's /metrics (trimmed). */
const char *kExposition =
    "# TYPE bpsim_service_requests counter\n"
    "bpsim_service_requests_total{build=\"85789bb\"} 14\n"
    "# TYPE bpsim_service_request_seconds histogram\n"
    "bpsim_service_request_seconds_bucket{endpoint=\"whatif\",phase="
    "\"alerts\",status=\"200\",build=\"85789bb\",le=\"0.0625\"} 2\n"
    "bpsim_service_request_seconds_bucket{endpoint=\"whatif\",phase="
    "\"alerts\",status=\"200\",build=\"85789bb\",le=\"+Inf\"} 5\n"
    "bpsim_service_request_seconds_sum{endpoint=\"whatif\",phase=\"alerts\","
    "status=\"200\",build=\"85789bb\"} 0.8251953125\n"
    "bpsim_service_request_seconds_count{endpoint=\"whatif\",phase="
    "\"alerts\",status=\"200\",build=\"85789bb\"} 5\n"
    "bpsim_service_request_seconds_sum{endpoint=\"whatif\",phase="
    "\"cache_mem\",status=\"200\",build=\"85789bb\"} 0\n"
    "bpsim_service_request_seconds_sum{endpoint=\"whatif\",phase="
    "\"campaign\",status=\"200\",build=\"85789bb\"} 0.08837890625\n"
    "bpsim_service_request_seconds_sum{endpoint=\"whatif\",phase=\"parse\","
    "status=\"200\",build=\"85789bb\"} 0.00038814544677734375\n"
    "bpsim_service_request_seconds_sum{endpoint=\"whatif\",phase=\"read\","
    "status=\"200\",build=\"85789bb\"} 0.00017213821411132812\n"
    "bpsim_service_request_seconds_sum{endpoint=\"whatif\",phase="
    "\"serialize\",status=\"200\",build=\"85789bb\"} 0.000766754150390625\n"
    "bpsim_service_request_seconds_sum{endpoint=\"whatif\",phase=\"total\","
    "status=\"200\",build=\"85789bb\"} 0.92982101440429688\n"
    "bpsim_service_request_seconds_count{endpoint=\"whatif\",phase="
    "\"total\",status=\"200\",build=\"85789bb\"} 6\n"
    "bpsim_service_request_seconds_sum{endpoint=\"whatif\",phase=\"write\","
    "status=\"200\",build=\"85789bb\"} 0.00033092498779296875\n"
    "bpsim_service_request_seconds_sum{endpoint=\"whatif\",phase=\"total\","
    "status=\"400\",build=\"85789bb\"} 0.5\n"
    "bpsim_service_request_seconds_sum{endpoint=\"metrics\",phase="
    "\"serialize\",status=\"200\",build=\"85789bb\"} 0.25\n"
    "# EOF\n";

void
metricsParser()
{
    const auto p = parseRequestPhases(kExposition, "whatif");
    EXPECT(near(p.at("alerts").sum, 0.8251953125));
    EXPECT(p.at("alerts").count == 5.0);
    EXPECT(near(p.at("campaign").sum, 0.08837890625));
    // Status codes are summed: 200 and 400 both count towards total.
    EXPECT(near(p.at("total").sum, 0.92982101440429688 + 0.5));
    EXPECT(p.at("total").count == 6.0);
    // Another endpoint's serialize time must not leak in.
    EXPECT(near(p.at("serialize").sum, 0.000766754150390625));

    // Deltas against an empty scrape: the remainder of phase="total"
    // is what no phase span covers.
    const auto d = phaseDeltas({}, p);
    const double spanned = 0.8251953125 + 0.08837890625 +
                           0.00038814544677734375 + 0.00017213821411132812 +
                           0.000766754150390625 + 0.00033092498779296875;
    EXPECT(near(d.at("total"), 1.42982101440429688));
    EXPECT(near(d.at("unspanned"), 1.42982101440429688 - spanned));
    EXPECT(d.at("wait") == 0.0);
    // A second scrape: deltas subtract phase by phase.
    auto later = p;
    later["alerts"].sum += 1.0;
    later["total"].sum += 1.25;
    const auto d2 = phaseDeltas(p, later);
    EXPECT(near(d2.at("alerts"), 1.0));
    EXPECT(near(d2.at("unspanned"), 0.25));
}

void
spanSelfTime()
{
    std::vector<Span> s;
    const auto add = [&s](std::uint64_t id, std::uint64_t parent,
                          const char *name, std::int64_t a, std::int64_t b) {
        Span x;
        x.id = id;
        x.parent = parent;
        x.name = name;
        x.startNs = a;
        x.endNs = b;
        s.push_back(x);
    };
    add(1, 0, "root", 0, 100);
    add(2, 1, "child", 10, 30);  // overlaps the next child (two threads)
    add(3, 1, "child", 20, 50);
    add(4, 1, "child", 90, 120); // runs past its parent's end
    add(5, 2, "leaf", 15, 25);
    const auto self = selfTimeByName(s);
    // root: 100 - |[10,50) u [90,100)| = 100 - 50.
    EXPECT(self.at("root") == 50);
    // children: (20 - 10) + 30 + 30.
    EXPECT(self.at("child") == 70);
    EXPECT(self.at("leaf") == 10);
    EXPECT(coveredNs({{0, 10}, {5, 15}, {20, 30}}, 0, 25) == 20);
}

void
openLoopAccounting()
{
    constexpr std::int64_t ms = 1000000;
    // One class, 10/s on one slot over one second: due every 100 ms.
    OpenLoopSchedule sched(0, 1000 * ms, {{10.0, 1}});
    EXPECT(sched.planned(0) == 10);
    OpenLoopSchedule::Release r;
    EXPECT(sched.next(0, r) && r.index == 0 && r.dueNs == 0 && r.lateNs == 0);
    EXPECT(!sched.next(150 * ms, r)); // the only slot is busy
    EXPECT(sched.nextDue() == -1);
    sched.done(0, 250 * ms);          // request 0 took 250 ms
    EXPECT(sched.nextDue() == 100 * ms);
    // Released 10 ms after the slot freed: only those 10 ms are the
    // generator's lateness; the caller times latency from due (100).
    EXPECT(sched.next(260 * ms, r) && r.index == 1 &&
           r.dueNs == 100 * ms && r.lateNs == 10 * ms);
    sched.done(0, 270 * ms);
    EXPECT(sched.next(270 * ms, r) && r.index == 2 && r.lateNs == 0);
    sched.done(0, 280 * ms);
    EXPECT(!sched.next(299 * ms, r)); // request 3 is not due yet
    EXPECT(sched.next(350 * ms, r) && r.index == 3 && r.lateNs == 50 * ms);
    sched.done(0, 360 * ms);
    for (std::uint64_t i = 4; i < 10; ++i) {
        EXPECT(sched.next(static_cast<std::int64_t>(i) * 100 * ms, r) &&
               r.index == i && r.lateNs == 0);
        sched.done(0, static_cast<std::int64_t>(i) * 100 * ms + ms);
    }
    EXPECT(sched.exhausted());
    EXPECT(!sched.next(5000 * ms, r)); // nothing due after the window

    // Two classes keep their own slots: a busy miss slot never delays
    // a due hit.
    OpenLoopSchedule two(0, 1000 * ms, {{100.0, 3}, {2.0, 1}});
    EXPECT(two.planned(0) == 100 && two.planned(1) == 2);
    int hits = 0, misses = 0;
    while (two.next(0, r))
        (r.cls == 0 ? hits : misses) += 1;
    EXPECT(hits == 1 && misses == 1);
    EXPECT(two.next(10 * ms, r) && r.cls == 0 && r.index == 1);
}

} // namespace

int
main()
{
    percentileRule();
    metricsParser();
    spanSelfTime();
    openLoopAccounting();
    if (g_failures != 0) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
        return 1;
    }
    std::fprintf(stderr, "selftest: all checks passed\n");
    return 0;
}
