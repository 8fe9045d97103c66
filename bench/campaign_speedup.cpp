/**
 * @file
 * Perf-gate lane for the parallel campaign engine: the same scalar
 * campaign on 1 thread and on every hardware thread. Exits non-zero
 * when the parallel run is not bit-identical to the serial one, or
 * when the speedup falls below the bar (4x on 8+ hardware threads,
 * 2x on 4-7). The speedup is the fastest serial over the fastest
 * parallel run of N repetitions, so one descheduled run cannot swing
 * it either way. Below 4 threads a speedup means nothing and the lane
 * reports a skip.
 *
 * This is a wall-clock check, so it lives in the CI perf-gate job and
 * not in ctest, where parallel test load made it flaky; ctest keeps
 * the serial == parallel equality.
 */

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>

#include "campaign/annual_campaign.hh"
#include "campaign/thread_pool.hh"

using namespace bpsim;

namespace
{

constexpr std::uint64_t kTrials = 2000;
constexpr int kRepetitions = 3;

struct Run
{
    double wallSeconds;
    std::string summary;
};

Run
runWith(int threads, std::uint64_t trials)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = noDgConfig();

    AnnualCampaignOptions opts;
    opts.maxTrials = trials;
    opts.seed = 2014;
    opts.threads = threads;
    const AnnualCampaignSummary s = runAnnualCampaign(spec, opts);
    std::ostringstream json;
    writeCampaignJson(json, s, {.includeTiming = false});
    return {s.wallSeconds, json.str()};
}

} // namespace

int
main()
{
    const int hw = WorkStealingPool::hardwareThreads();

    double serialBest = 1e300, parallelBest = 1e300;
    for (int r = 0; r < kRepetitions; ++r) {
        const Run serial = runWith(1, kTrials);
        const Run parallel = runWith(hw, kTrials);
        if (serial.summary != parallel.summary) {
            std::fprintf(stderr,
                         "campaign_speedup: FAIL: %d-thread summary "
                         "differs from the serial one\n",
                         hw);
            return 2;
        }
        std::printf("campaign_speedup: %llu trials, serial %.4f s, "
                    "%d threads %.4f s\n",
                    static_cast<unsigned long long>(kTrials),
                    serial.wallSeconds, hw, parallel.wallSeconds);
        serialBest = std::min(serialBest, serial.wallSeconds);
        parallelBest = std::min(parallelBest, parallel.wallSeconds);
    }
    const double speedup = serialBest / parallelBest;

    if (hw < 4) {
        std::printf("campaign_speedup: SKIP speedup bar: only %d "
                    "hardware threads\n",
                    hw);
        return 0;
    }
    const double bar = hw >= 8 ? 4.0 : 2.0;
    const bool ok = speedup >= bar;
    std::printf("campaign_speedup: %s speedup %.2fx (bar %.1fx on "
                "%d threads)\n",
                ok ? "PASS" : "FAIL", speedup, bar, hw);
    return ok ? 0 : 1;
}
