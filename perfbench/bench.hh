/**
 * @file
 * Shared types of the benchmark program: the parsed command line, one
 * run's result, and small helpers every workload uses.
 */

#ifndef BPSIM_PERFBENCH_BENCH_HH
#define BPSIM_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "loadgen.hh"
#include "service/whatif.hh"
#include "sim/types.hh"
#include "stats.hh"

namespace perfbench
{

/** One simulated year, the horizon of every outage trace. */
constexpr bpsim::Time kYear = 365LL * 24 * bpsim::kHour;

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its Chrome trace. */
    std::string traceDir = ".bench_build/traces";
    /** The campaign_server binary built beside this one. */
    std::string serverPath;
};

/** One run: the output check, the counts and every metric by name. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    /** Human-readable report lines, printed before the JSON line. */
    std::vector<std::string> lines;

    /** Record an output check; a failed one makes the run incorrect. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            lines.push_back("CHECK FAILED: " + what);
        }
    }

    void note(const std::string &line) { lines.push_back(line); }
};

RunResult runCampaignWorkload(const RunArgs &args, bool batched);
RunResult runServiceWorkload(const RunArgs &args, bool mixed);

/** SplitMix64: the workload seed's deterministic input stream. */
class SeedStream
{
  public:
    explicit SeedStream(std::uint64_t seed) : state_(seed) {}
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** A seed small enough to round-trip through a JSON number. */
    std::uint64_t nextSmall() { return next() >> 20; }

  private:
    std::uint64_t state_;
};

/** Parse a what-if request body; exits the run on a malformed one. */
bpsim::service::WhatIfRequest parseWhatIf(const std::string &body);

/** Mean microseconds per call of @p fn over at least 0.2 s of calls. */
template <typename Fn>
double
usPerCall(Fn &&fn)
{
    std::uint64_t calls = 0;
    const std::int64_t t0 = nowNs();
    std::int64_t t = t0;
    do {
        for (int i = 0; i < 16; ++i)
            fn();
        calls += 16;
        t = nowNs();
    } while (t - t0 < 200000000);
    return static_cast<double>(t - t0) * 1e-3 / static_cast<double>(calls);
}

/**
 * Probe the layers' public functions on the what-if @p body (trials
 * drawn from @p seed) after the workload's timing; see probes.cc.
 */
void probeLayers(const std::string &body, std::uint64_t seed, RunResult &r);

/** Write @p spans as the run's Chrome trace and report where. */
void writeRunTrace(const RunArgs &args, const std::vector<Span> &spans,
                   RunResult &r);

/** VmHWM of process @p pid ("self" when 0) in MB; 0 when unreadable. */
double peakRssMb(int pid = 0);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** "%.4g"-style number for report lines. */
std::string fmt(double v);

} // namespace perfbench

#endif // BPSIM_PERFBENCH_BENCH_HH
