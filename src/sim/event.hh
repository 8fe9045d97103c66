/**
 * @file
 * Discrete-event primitives: events, handles and the pending-event queue.
 *
 * Events carry an arbitrary callback and are ordered by (time, priority,
 * insertion sequence) so that simultaneous events execute in a
 * deterministic, reproducible order. Cancellation is supported through
 * shared handles; cancelled events stay in the queue but are skipped when
 * they reach the front (lazy deletion).
 */

#ifndef BPSIM_SIM_EVENT_HH
#define BPSIM_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/types.hh"

namespace bpsim
{

/** Scheduling priority for events that share a timestamp. */
enum class EventPriority : int
{
    /** Power-delivery bookkeeping runs before consumers react. */
    Power = 0,
    /** Default priority for model events. */
    Normal = 10,
    /** Metric sampling runs after the state at this instant settles. */
    Stats = 20,
};

/** A single scheduled callback. Managed via shared_ptr by the queue. */
class Event
{
  public:
    Event(Time when, EventPriority prio, std::uint64_t seq,
          std::function<void()> fn, const char *name)
        : when_(when), prio_(prio), seq_(seq), fn_(std::move(fn)),
          name_(name)
    {}

    /** Scheduled execution time. */
    Time when() const { return when_; }
    /** Priority within the timestamp. */
    EventPriority priority() const { return prio_; }
    /** Monotonic insertion sequence number (tie-breaker). */
    std::uint64_t sequence() const { return seq_; }
    /** Diagnostic name (a string literal; never owned). */
    const char *name() const { return name_; }
    /** True until executed or cancelled. */
    bool pending() const { return pending_; }

    /** Mark the event as no longer runnable. */
    void cancel() { pending_ = false; }

    /** Run the callback (once) if still pending. */
    void
    execute()
    {
        if (pending_) {
            pending_ = false;
            fn_();
        }
    }

  private:
    Time when_;
    EventPriority prio_;
    std::uint64_t seq_;
    std::function<void()> fn_;
    const char *name_;
    bool pending_ = true;
};

/**
 * Cancelable reference to a scheduled event. Default-constructed handles
 * refer to nothing and are safely no-ops.
 */
class EventHandle
{
  public:
    EventHandle() = default;
    explicit EventHandle(std::shared_ptr<Event> ev) : ev_(std::move(ev)) {}

    /** True if the referenced event is still waiting to run. */
    bool
    pending() const
    {
        return ev_ && ev_->pending();
    }

    /** Cancel the referenced event if it has not yet run. */
    void
    cancel()
    {
        if (ev_)
            ev_->cancel();
    }

    /** Scheduled time, or kTimeNever when empty/executed. */
    Time
    when() const
    {
        return pending() ? ev_->when() : kTimeNever;
    }

  private:
    std::shared_ptr<Event> ev_;
};

/**
 * Min-queue of pending events ordered by (time, priority, sequence).
 */
class EventQueue
{
  public:
    /** Insert an event; returns a cancelable handle. */
    EventHandle push(Time when, EventPriority prio,
                     std::function<void()> fn, const char *name);

    /** True when no runnable event remains. */
    bool empty();

    /** Timestamp of the next runnable event; kTimeNever when empty. */
    Time nextTime();

    /**
     * Pop and return the next runnable event. The queue must not be
     * empty().
     */
    std::shared_ptr<Event> pop();

    /** Number of events held, including lazily-cancelled ones. */
    std::size_t rawSize() const { return heap.size(); }

  private:
    struct Entry
    {
        std::shared_ptr<Event> ev;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.ev->when() != b.ev->when())
                return a.ev->when() > b.ev->when();
            if (a.ev->priority() != b.ev->priority())
                return a.ev->priority() > b.ev->priority();
            return a.ev->sequence() > b.ev->sequence();
        }
    };

    /** Drop cancelled events from the front. */
    void skipCancelled();

    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    std::uint64_t nextSeq = 0;
};

} // namespace bpsim

#endif // BPSIM_SIM_EVENT_HH
