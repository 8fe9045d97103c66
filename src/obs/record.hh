/**
 * @file
 * One trial's observability record: the events, signal samples,
 * counter increments and histogram values a single simulated trial
 * emitted. A TrialScope points every instrumentation site on its
 * thread at one record, so a record is written by exactly one thread
 * and needs no locking; the campaign driver then hands it to the
 * campaign's obs::Context (obs/context.hh) in trial order.
 */

#ifndef BPSIM_OBS_RECORD_HH
#define BPSIM_OBS_RECORD_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/timeseries.hh"
#include "obs/trace.hh"

namespace bpsim
{
namespace obs
{

/** Everything one trial recorded. */
struct TrialRecord
{
    /** Campaign trial id stamped on every event and sample (set by
     *  the TrialScope that records into it). */
    std::uint64_t trial = 0;
    /** Simulated time between signal samples (0 = this trial is
     *  outside the sample window and samples nothing). */
    Time sampleCadence = 0;

    /** Events in emission order (the first kMaxEventsPerTrial). */
    std::vector<TraceEvent> events;
    /** Signal samples in emission order. */
    std::vector<SignalSample> samples;
    /** Counter increments by site name (string literals). */
    std::vector<std::pair<const char *, std::uint64_t>> counters;
    /** Histogram values by site name (string literals). */
    std::vector<std::pair<const char *, double>> histograms;

    /** Emissions so far, including the ones the cap dropped. */
    std::uint32_t seq = 0;
    /** Open incident id (0 = none) and the incidents opened so far. */
    std::uint32_t incident = 0;
    std::uint32_t incidentCount = 0;

    /** Add @p n to counter @p name (a string literal). */
    void
    addCounter(const char *name, std::uint64_t n)
    {
        if (n == 0)
            return;
        for (auto &[site, total] : counters)
            if (site == name) {
                total += n;
                return;
            }
        counters.emplace_back(name, n);
    }

    /** Record @p v into histogram @p name (a string literal). */
    void
    recordHistogram(const char *name, double v)
    {
        histograms.emplace_back(name, v);
    }
};

} // namespace obs
} // namespace bpsim

#endif // BPSIM_OBS_RECORD_HH
