#include "obs/timeseries.hh"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "obs/record.hh"

namespace bpsim
{
namespace obs
{

namespace
{

bool
rowLess(const SignalSample &x, const SignalSample &y)
{
    return std::make_tuple(x.trial, static_cast<int>(x.signal), x.t) <
           std::make_tuple(y.trial, static_cast<int>(y.signal), y.t);
}

} // namespace

const char *
signalName(SignalId s)
{
    switch (s) {
      case SignalId::LoadW: return "load_w";
      case SignalId::UtilityW: return "utility_w";
      case SignalId::BatteryW: return "battery_w";
      case SignalId::DgW: return "dg_w";
      case SignalId::BatterySoc: return "battery_soc";
      case SignalId::ServersActive: return "servers_active";
      case SignalId::TechPhase: return "tech_phase";
      case SignalId::ClusterPowerW: return "cluster_power_w";
      case SignalId::QueueDepth: return "queue_depth";
    }
    return "unknown";
}

Time
sampleCadence()
{
    const TrialRecord *rec = activeRecord();
    return rec ? rec->sampleCadence : 0;
}

void
TimeSeriesSink::emit(SignalId signal, Time t, double value)
{
    TrialRecord *rec = activeRecord();
    if (!rec)
        return;
    SignalSample row;
    row.trial = rec->trial;
    row.t = t;
    row.signal = signal;
    row.value = value;
    rec->samples.push_back(row);
}

TimeSeriesStore
TimeSeriesStore::fromSamples(std::vector<SignalSample> rows)
{
    if (!std::is_sorted(rows.begin(), rows.end(), rowLess))
        std::sort(rows.begin(), rows.end(), rowLess);
    TimeSeriesStore s;
    s.trials_.reserve(rows.size());
    s.times_.reserve(rows.size());
    s.signals_.reserve(rows.size());
    s.values_.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SignalSample &r = rows[i];
        if (s.channels_.empty() ||
            s.channels_.back().trial != r.trial ||
            s.channels_.back().signal != r.signal) {
            Channel c;
            c.trial = r.trial;
            c.signal = r.signal;
            c.begin = i;
            s.channels_.push_back(c);
        }
        s.channels_.back().end = i + 1;
        s.trials_.push_back(r.trial);
        s.times_.push_back(r.t);
        s.signals_.push_back(r.signal);
        s.values_.push_back(r.value);
    }
    return s;
}

std::vector<SeriesPoint>
lttb(const std::vector<SeriesPoint> &points, std::size_t max_points)
{
    const std::size_t n = points.size();
    if (max_points >= n || n <= 2)
        return points;
    if (max_points < 3) {
        // Degenerate budget: keep the endpoints only.
        return {points.front(), points.back()};
    }

    std::vector<SeriesPoint> out;
    out.reserve(max_points);
    out.push_back(points.front());

    // Interior points are split into max_points-2 buckets; from each
    // bucket keep the point forming the largest triangle with the
    // previously kept point and the next bucket's average.
    const std::size_t buckets = max_points - 2;
    const double span =
        static_cast<double>(n - 2) / static_cast<double>(buckets);
    std::size_t prev = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t lo =
            1 + static_cast<std::size_t>(
                    std::floor(static_cast<double>(b) * span));
        std::size_t hi =
            1 + static_cast<std::size_t>(
                    std::floor(static_cast<double>(b + 1) * span));
        hi = std::min(hi, n - 1);

        // Average of the *next* bucket (or the final point).
        const std::size_t nlo = hi;
        const std::size_t nhi =
            b + 2 < buckets
                ? std::min(
                      n - 1,
                      1 + static_cast<std::size_t>(std::floor(
                              static_cast<double>(b + 2) * span)))
                : n;
        double avg_t = 0.0, avg_v = 0.0;
        const std::size_t nn = nhi > nlo ? nhi - nlo : 1;
        for (std::size_t i = nlo; i < nhi; ++i) {
            avg_t += static_cast<double>(points[i].t);
            avg_v += points[i].value;
        }
        if (nhi > nlo) {
            avg_t /= static_cast<double>(nn);
            avg_v /= static_cast<double>(nn);
        } else {
            avg_t = static_cast<double>(points[n - 1].t);
            avg_v = points[n - 1].value;
        }

        const double pt = static_cast<double>(points[prev].t);
        const double pv = points[prev].value;
        double best_area = -1.0;
        std::size_t best = lo;
        for (std::size_t i = lo; i < hi; ++i) {
            const double area = std::abs(
                (pt - avg_t) *
                    (points[i].value - pv) -
                (pt - static_cast<double>(points[i].t)) *
                    (avg_v - pv));
            if (area > best_area) {
                best_area = area;
                best = i;
            }
        }
        out.push_back(points[best]);
        prev = best;
    }
    out.push_back(points.back());
    return out;
}

} // namespace obs
} // namespace bpsim
