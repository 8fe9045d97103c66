#include "obs/context.hh"

#include <algorithm>
#include <cmath>

namespace bpsim
{
namespace obs
{

void
ObsDeltas::merge(const ObsDeltas &other)
{
    mergeCounters(counters, other.counters);
    mergeHistograms(histograms, other.histograms);
    incidents.merge(other.incidents);
}

TrialRecord
Context::open(std::uint64_t offset) const
{
    TrialRecord rec;
    rec.sampleCadence = offset < sampleTrials ? sampleCadence : 0;
    return rec;
}

IncidentReport
Context::reduce(TrialRecord &record) const
{
    IncidentReport report = buildIncidentReport(record.events);
    report.incidents.clear(); // fold needs only the rollups
    if (!keepEvents)
        record.events = {};
    return report;
}

void
Context::fold(TrialRecord &&folded, const IncidentReport &forensics)
{
    // Take the record over, so its buffers go as soon as it is folded.
    TrialRecord record = std::move(folded);
    for (const auto &[name, n] : record.counters) {
        deltas_.counters[name] += n;
        if (registry)
            registry->counter(name).add(n);
    }
    for (const auto &[name, v] : record.histograms) {
        ++deltas_.histograms[name].buckets[Histogram::bucketIndex(v)];
        if (registry)
            registry->histogram(name).record(v);
    }
    deltas_.incidents.merge(forensics.aggregate);
    for (const TrialForensics &t : forensics.trials)
        maxResidualMin_ =
            std::max(maxResidualMin_, std::abs(t.residualMin()));
    if (keepEvents)
        events_.insert(events_.end(), record.events.begin(),
                       record.events.end());
    // Keep the trial's buffer as it is: the fold often runs on a
    // worker thread, and merging there would leave large blocks in
    // every worker's malloc arena.
    if (!record.samples.empty())
        sampleBlocks_.push_back(std::move(record.samples));
}

std::vector<SignalSample>
Context::samples() const
{
    std::size_t n = 0;
    for (const auto &block : sampleBlocks_)
        n += block.size();
    std::vector<SignalSample> rows;
    rows.reserve(n);
    // Within a trial, samples arrive time-major; the returned order is
    // (trial, signal, t), the row order TimeSeriesStore expects.
    for (const auto &block : sampleBlocks_)
        for (std::size_t s = 0; s < kSignalCount; ++s)
            for (const SignalSample &row : block)
                if (row.signal == static_cast<SignalId>(s))
                    rows.push_back(row);
    return rows;
}

} // namespace obs
} // namespace bpsim
