#include "sim/simulator.hh"

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace bpsim
{

EventHandle
Simulator::schedule(Time delay, EventFn fn, const char *name,
                    EventPriority prio)
{
    BPSIM_ASSERT(delay >= 0, "negative delay %lld for event '%s'",
                 static_cast<long long>(delay), name);
    return queue.push(now_ + delay, prio, fn);
}

EventHandle
Simulator::at(Time when, EventFn fn, const char *name, EventPriority prio)
{
    BPSIM_ASSERT(when >= now_,
                 "event '%s' scheduled in the past (%lld < %lld)",
                 name, static_cast<long long>(when),
                 static_cast<long long>(now_));
    return queue.push(when, prio, fn);
}

void
Simulator::run()
{
    runUntil(kTimeNever);
}

void
Simulator::runUntil(Time limit)
{
    BPSIM_ASSERT(!running, "re-entrant Simulator::run()");
    running = true;
    stopping = false;
    const std::uint64_t executed_before = executed;
    while (!stopping && !queue.empty()) {
        const Time next = queue.nextTime();
        if (next > limit)
            break;
        BPSIM_ASSERT(next >= now_, "time went backwards to %lld",
                     static_cast<long long>(next));
        now_ = next;
        // pop() retires the event's slot, so run the returned copy: the
        // callback may schedule events and grow the pool.
        EventFn fn = queue.pop();
        fn();
        ++executed;
    }
    if (limit != kTimeNever && now_ < limit && !stopping)
        now_ = limit;
    running = false;
    BPSIM_OBS_COUNTER_ADD("sim.events_processed", executed - executed_before);
}

} // namespace bpsim
