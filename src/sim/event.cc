#include "sim/event.hh"

#include "sim/logging.hh"

namespace bpsim
{

EventHandle
EventQueue::push(Time when, EventPriority prio, std::function<void()> fn,
                 const char *name)
{
    auto ev =
        std::make_shared<Event>(when, prio, nextSeq++, std::move(fn), name);
    heap.push(Entry{ev});
    return EventHandle(ev);
}

void
EventQueue::skipCancelled()
{
    while (!heap.empty() && !heap.top().ev->pending())
        heap.pop();
}

bool
EventQueue::empty()
{
    skipCancelled();
    return heap.empty();
}

Time
EventQueue::nextTime()
{
    skipCancelled();
    return heap.empty() ? kTimeNever : heap.top().ev->when();
}

std::shared_ptr<Event>
EventQueue::pop()
{
    skipCancelled();
    BPSIM_ASSERT(!heap.empty(), "pop() from an empty event queue");
    auto ev = heap.top().ev;
    heap.pop();
    return ev;
}

} // namespace bpsim
