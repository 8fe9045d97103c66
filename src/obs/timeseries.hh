/**
 * @file
 * Simulated-signal time series: TimeSeriesSink records (trial,
 * sim-time, signal, value) rows into the calling thread's
 * obs::TrialRecord, and a columnar TimeSeriesStore is built from a
 * campaign's retained rows for export.
 *
 * Determinism contract: samples are keyed to *simulated* time — the
 * sampler is an ordinary simulation event self-rescheduling at a
 * fixed cadence (EventPriority::Stats, so the state at each instant
 * has settled) — and each trial is a pure function of its id,
 * recorded into its own record and folded in trial order by the
 * campaign's obs::Context. The retained rows are therefore
 * bit-identical for any thread count. Wall clocks never enter the
 * stream.
 *
 * Cost contract: a trial samples only when its record carries a
 * nonzero cadence — the Context sets one for the trials inside its
 * sample window and 0 for the rest — and the scheduling site is
 * additionally guarded by BPSIM_OBS_ON(), so a BPSIM_OBS=OFF build
 * contains no sampler at all and an unrecorded run schedules no
 * sampling events.
 *
 * Export: TimeSeriesStore groups rows into per-(trial, signal)
 * channels; obs/export.hh renders channels as Chrome trace counter
 * tracks ("ph":"C") beside the event spans, or as CSV. lttb() is the
 * largest-triangle-three-buckets downsampler for bounding export
 * size while keeping the visual shape of each series.
 */

#ifndef BPSIM_OBS_TIMESERIES_HH
#define BPSIM_OBS_TIMESERIES_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace bpsim
{
namespace obs
{

/** Which simulated signal a sample belongs to. */
enum class SignalId : std::uint8_t
{
    /** IT load demand at the hierarchy (watts). */
    LoadW,
    /** Watts served from utility. */
    UtilityW,
    /** Watts served from the UPS battery. */
    BatteryW,
    /** Watts served from the diesel generator. */
    DgW,
    /** Battery state of charge (0..1; 0 when no UPS). */
    BatterySoc,
    /** Servers in the Active state. */
    ServersActive,
    /** Technique Table 4 phase (0 normal, 1 start-of-outage,
     *  2 during-outage, 3 after-restoration, 4 power-lost). */
    TechPhase,
    /** Cluster electrical draw (watts). */
    ClusterPowerW,
    /** Pending events in the simulator queue. */
    QueueDepth,
};

/** Number of SignalId enumerators (for iteration). */
constexpr std::size_t kSignalCount = 9;

/** Stable lowercase identifier of @p s ("load_w", "battery_soc"...). */
const char *signalName(SignalId s);

/** One recorded sample. */
struct SignalSample
{
    /** Campaign trial id (0 outside campaigns). */
    std::uint64_t trial = 0;
    /** Simulated timestamp (microseconds within the trial). */
    Time t = 0;
    SignalId signal = SignalId::LoadW;
    double value = 0.0;
};

/**
 * The calling thread's sample cadence: its record's sampleCadence,
 * or 0 (sample nothing) outside a recording TrialScope.
 */
Time sampleCadence();

/** Sample emission into the calling thread's record. */
class TimeSeriesSink
{
  public:
    TimeSeriesSink() = delete;

    /**
     * Record one sample in the active record, tagged with its trial.
     * No-op without one.
     */
    static void emit(SignalId signal, Time t, double value);
};

/**
 * Columnar (struct-of-arrays) sample store with a channel index.
 * Rows are held sorted by (trial, signal, t), so each channel — one
 * (trial, signal) pair — is a contiguous row range.
 */
class TimeSeriesStore
{
  public:
    /** One contiguous per-(trial, signal) row range. */
    struct Channel
    {
        std::uint64_t trial = 0;
        SignalId signal = SignalId::LoadW;
        /** Row range [begin, end) into the column arrays. */
        std::size_t begin = 0, end = 0;
    };

    TimeSeriesStore() = default;
    /** Build from sample rows (sorted or not; sorts if needed). */
    static TimeSeriesStore fromSamples(std::vector<SignalSample> rows);

    std::size_t rows() const { return times_.size(); }
    bool empty() const { return times_.empty(); }

    /** @name Columns (all rows() long, channel-major order) */
    ///@{
    const std::vector<std::uint64_t> &trials() const { return trials_; }
    const std::vector<Time> &times() const { return times_; }
    const std::vector<SignalId> &signals() const { return signals_; }
    const std::vector<double> &values() const { return values_; }
    ///@}

    const std::vector<Channel> &channels() const { return channels_; }

  private:
    std::vector<std::uint64_t> trials_;
    std::vector<Time> times_;
    std::vector<SignalId> signals_;
    std::vector<double> values_;
    std::vector<Channel> channels_;
};

/** One (time, value) point of a downsampled series. */
struct SeriesPoint
{
    Time t = 0;
    double value = 0.0;
};

/**
 * Largest-triangle-three-buckets downsampling of one channel's
 * points to at most @p max_points (first and last points are always
 * kept; @p max_points < 3 degenerates to endpoints). Deterministic:
 * pure function of the input.
 */
std::vector<SeriesPoint> lttb(const std::vector<SeriesPoint> &points,
                              std::size_t max_points);

} // namespace obs
} // namespace bpsim

#endif // BPSIM_OBS_TIMESERIES_HH
