/**
 * @file
 * Event tracing for simulation runs: typed, timestamped simulation
 * events (outage start/end, DG start success/failure, UPS
 * discharge/depletion, technique phase transitions,
 * migration/hibernate progress, battery state-of-charge crossings)
 * recorded into the obs::TrialRecord of the trial that emitted them.
 *
 * Determinism contract: every event carries (trial, seq) where `seq`
 * is a per-trial emission counter. A trial is a pure function of its
 * id and runs on exactly one worker thread into its own record, and
 * the campaign driver hands records to the obs::Context in trial
 * order, so a campaign's event sequence is bit-identical for any
 * thread count — the property the golden-trace tests pin. Wall times
 * ride along for profiling but are excluded from deterministic
 * exports.
 *
 * Cost contract: a thread that is not recording a trial (the
 * default) pays one thread-local load and a predictable branch per
 * instrumentation site; compiling with BPSIM_OBS_ENABLED=0 removes
 * the sites entirely (see obs.hh).
 */

#ifndef BPSIM_OBS_TRACE_HH
#define BPSIM_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "sim/types.hh"

namespace bpsim
{
namespace obs
{

struct TrialRecord;

/** What happened (drives the category/rendering of exporters). */
enum class EventKind : std::uint8_t
{
    /** A campaign trial began (a = trial id). */
    TrialStart,
    /** Utility failed; backup path engaging (a = load watts). */
    OutageStart,
    /** Utility restored. */
    OutageEnd,
    /** UPS battery began carrying load (a = battery share watts). */
    UpsDischarge,
    /** A backup source ran dry while needed (battery or fuel). */
    BackupDepleted,
    /** The IT load abruptly lost power (a = load watts). */
    PowerLost,
    /** DG start requested (crank begins). */
    DgStart,
    /** DG start failed (empty tank). */
    DgStartFailed,
    /** DG finished its startup delay and began ramping. */
    DgOnline,
    /** DG fully carrying the load. */
    DgCarrying,
    /** Battery SoC crossed a 10 % boundary (a = soc, b = boundary). */
    BatterySoc,
    /** Technique Table 4 phase transition (detail = technique name). */
    Phase,
    /** Migration/consolidation progress (detail = technique name). */
    Migration,
    /** Hibernate/sleep save-state progress (a = server index). */
    Hibernate,
    /** Cluster availability changed (a = available fraction 0..1). */
    Availability,
    /** Batch recompute debt charged (a = extra downtime seconds). */
    Recompute,
    /** A campaign trial ended (a = downtime min, b = battery kWh). */
    TrialEnd,
    /** Anything else (examples, tests). */
    Custom,
};

/** Number of EventKind enumerators (Custom is last). */
constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::Custom) + 1;

/** Stable lowercase identifier of @p kind ("outage-start", ...). */
const char *kindName(EventKind kind);

/** Coarse grouping of @p kind ("power", "dg", "technique", ...). */
const char *kindCategory(EventKind kind);

/** One recorded simulation event. */
struct TraceEvent
{
    /** Campaign trial id the event belongs to (0 outside campaigns). */
    std::uint64_t trial = 0;
    /** Emission index within the trial (the determinism sort key). */
    std::uint32_t seq = 0;
    /**
     * Causal incident id: 1-based per-trial counter of the grid-outage
     * episode the event belongs to, 0 outside any incident. Every
     * event emitted between beginIncident() and endIncident() — UPS
     * discharge, DG start attempts, technique phase changes,
     * restoration — carries the same id, threading one outage into a
     * single span tree the incident engine can fold.
     */
    std::uint32_t incident = 0;
    EventKind kind = EventKind::Custom;
    /** Simulated timestamp (microseconds within the trial). */
    Time simTime = 0;
    /** Wall-clock seconds since the process first emitted an event
     *  (profiling only; excluded from deterministic exports). */
    double wallSeconds = 0.0;
    /** Interned event name; must be a string literal. */
    const char *name = "";
    /** Kind-specific payload. */
    double a = 0.0, b = 0.0;
    /** Short free-form annotation (e.g. the technique name). */
    char detail[32] = {};

    /** Copy (and truncate) @p s into detail. */
    void
    setDetail(const char *s)
    {
        if (!s)
            return;
        std::strncpy(detail, s, sizeof(detail) - 1);
        detail[sizeof(detail) - 1] = '\0';
    }
};

/**
 * Cap on events recorded per trial; later emissions only advance
 * `seq`, so which events survive is deterministic.
 */
constexpr std::uint32_t kMaxEventsPerTrial = 65536;

/**
 * True when the calling thread is recording a trial (inside a
 * TrialScope with a record). Every instrumentation site is gated on
 * it, so a thread with no record pays one thread-local load per site.
 */
bool enabled();

/**
 * The calling thread's record (null outside a recording TrialScope):
 * where BPSIM_OBS_COUNTER_ADD and BPSIM_OBS_HISTOGRAM_RECORD land.
 */
TrialRecord *activeRecord();

/**
 * Open a new causal incident in the calling thread's record and
 * return its 1-based per-trial id; subsequently emitted events carry
 * it. Called by PowerHierarchy when the utility fails. Ids count per
 * record, so they are deterministic per trial. 0 when not recording.
 */
std::uint32_t beginIncident();

/** Close the calling thread's open incident (id returns to 0). */
void endIncident();

/** Trace emission into the calling thread's record. */
class TraceSink
{
  public:
    TraceSink() = delete;

    /**
     * Record one event in the active record (no-op without one).
     * @p name and the strings reachable from it must outlive the
     * record (pass string literals); @p detail is copied (truncated
     * to 31 chars).
     */
    static void emit(EventKind kind, Time sim_time, const char *name,
                     const char *detail = nullptr, double a = 0.0,
                     double b = 0.0);
};

/**
 * RAII trial context: points every instrumentation site on the
 * calling thread at @p record (null = record nothing) and emits the
 * record's TrialStart marker. Instantiated by the campaign drivers
 * around each trial body; nests correctly (restores the previous
 * record on destruction, whose sequence continues where it left off).
 */
class TrialScope
{
  public:
    TrialScope(std::uint64_t trial, TrialRecord *record);
    ~TrialScope();

    TrialScope(const TrialScope &) = delete;
    TrialScope &operator=(const TrialScope &) = delete;

  private:
    TrialRecord *prev;
};

} // namespace obs
} // namespace bpsim

#endif // BPSIM_OBS_TRACE_HH
