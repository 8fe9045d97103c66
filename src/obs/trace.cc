#include "obs/trace.hh"

#include <chrono>

#include "obs/record.hh"

namespace bpsim
{
namespace obs
{

namespace
{

/** The calling thread's record (see TrialScope). */
thread_local TrialRecord *t_record = nullptr;

/** Process epoch for the wall-clock stamps. */
std::chrono::steady_clock::time_point
wallEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

} // namespace

bool
enabled()
{
    return t_record != nullptr;
}

TrialRecord *
activeRecord()
{
    return t_record;
}

std::uint32_t
beginIncident()
{
    TrialRecord *rec = t_record;
    if (!rec)
        return 0;
    rec->incident = ++rec->incidentCount;
    return rec->incident;
}

void
endIncident()
{
    if (TrialRecord *rec = t_record)
        rec->incident = 0;
}

const char *
kindName(EventKind kind)
{
    switch (kind) {
      case EventKind::TrialStart: return "trial-start";
      case EventKind::OutageStart: return "outage-start";
      case EventKind::OutageEnd: return "outage-end";
      case EventKind::UpsDischarge: return "ups-discharge";
      case EventKind::BackupDepleted: return "backup-depleted";
      case EventKind::PowerLost: return "power-lost";
      case EventKind::DgStart: return "dg-start";
      case EventKind::DgStartFailed: return "dg-start-failed";
      case EventKind::DgOnline: return "dg-online";
      case EventKind::DgCarrying: return "dg-carrying";
      case EventKind::BatterySoc: return "battery-soc";
      case EventKind::Phase: return "phase";
      case EventKind::Migration: return "migration";
      case EventKind::Hibernate: return "hibernate";
      case EventKind::Availability: return "availability";
      case EventKind::Recompute: return "recompute-debt";
      case EventKind::TrialEnd: return "trial-end";
      case EventKind::Custom: return "custom";
    }
    return "unknown";
}

const char *
kindCategory(EventKind kind)
{
    switch (kind) {
      case EventKind::TrialStart:
      case EventKind::TrialEnd:
        return "trial";
      case EventKind::OutageStart:
      case EventKind::OutageEnd:
      case EventKind::UpsDischarge:
      case EventKind::BackupDepleted:
      case EventKind::PowerLost:
        return "power";
      case EventKind::DgStart:
      case EventKind::DgStartFailed:
      case EventKind::DgOnline:
      case EventKind::DgCarrying:
        return "dg";
      case EventKind::BatterySoc:
        return "battery";
      case EventKind::Phase:
      case EventKind::Migration:
      case EventKind::Hibernate:
        return "technique";
      case EventKind::Availability:
      case EventKind::Recompute:
        return "workload";
      case EventKind::Custom:
        return "custom";
    }
    return "unknown";
}

void
TraceSink::emit(EventKind kind, Time sim_time, const char *name,
                const char *detail, double a, double b)
{
    TrialRecord *rec = t_record;
    if (!rec)
        return;
    const std::uint32_t seq = rec->seq++;
    if (seq >= kMaxEventsPerTrial)
        return;
    TraceEvent ev;
    ev.trial = rec->trial;
    ev.seq = seq;
    ev.incident = rec->incident;
    ev.kind = kind;
    ev.simTime = sim_time;
    ev.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallEpoch())
            .count();
    ev.name = name ? name : "";
    ev.a = a;
    ev.b = b;
    ev.setDetail(detail);
    rec->events.push_back(ev);
}

TrialScope::TrialScope(std::uint64_t trial, TrialRecord *record)
    : prev(t_record)
{
    t_record = record;
    if (record)
        record->trial = trial;
    TraceSink::emit(EventKind::TrialStart, 0, "trial-start", nullptr,
                    static_cast<double>(trial));
}

TrialScope::~TrialScope()
{
    t_record = prev;
}

} // namespace obs
} // namespace bpsim
