/**
 * @file
 * Discrete-event primitives: callbacks, handles and the pending-event
 * queue.
 *
 * Events run in (time, priority, insertion sequence) order, so
 * simultaneous events execute in a deterministic, reproducible order.
 * Heap entries carry that key inline; callbacks (EventFn, captures
 * stored inline) live in a per-queue slot pool whose generations make
 * handles cheap to cancel and safe to keep after their event is gone.
 * Once warmed up, scheduling, cancelling and running allocate nothing.
 * Cancellation is lazy: a cancelled entry stays in the heap, counted by
 * rawSize(), until it reaches the front. docs/MODEL.md §1 has the
 * argument.
 *
 * Lifetime: a handle points at its queue, which lives inside a
 * Simulator. A handle must not be used (not even cancel()) after its
 * Simulator is destroyed. Every owner declares its Simulator before the
 * components that hold handles, so those components are destroyed first.
 */

#ifndef BPSIM_SIM_EVENT_HH
#define BPSIM_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
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

/**
 * A callback with at most 32 bytes of trivially copyable captures
 * (pointers, references and scalars), stored inline. Larger or owning
 * captures are rejected at compile time: capture a reference to the
 * state instead.
 */
class EventFn
{
  public:
    /** Capture bytes an EventFn can hold. */
    static constexpr std::size_t kCapacity = 32;

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>>>
    EventFn(F f) // implicit, so call sites pass lambdas
        : invoke_([](void *p) { (*static_cast<F *>(p))(); })
    {
        static_assert(std::is_invocable_v<F &>,
                      "an event callback takes no arguments");
        static_assert(sizeof(F) <= kCapacity,
                      "event callback captures more than 32 bytes");
        static_assert(alignof(F) <= kAlign,
                      "event callback is over-aligned");
        static_assert(std::is_trivially_copyable_v<F>,
                      "event callback captures must be trivially copyable "
                      "(pointers, references, scalars)");
        ::new (static_cast<void *>(storage_)) F(f);
    }

    /** Run the callback. */
    void operator()() { invoke_(storage_); }

  private:
    static constexpr std::size_t kAlign = alignof(void *);

    alignas(kAlign) unsigned char storage_[kCapacity] = {};
    void (*invoke_)(void *) = nullptr;
};

class EventQueue;

/**
 * Cancelable reference to a scheduled event. Default-constructed handles
 * refer to nothing and are safely no-ops. A handle stops being pending
 * when its event starts running or is cancelled; a stale handle never
 * touches the event that later reuses its slot.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if the referenced event is still waiting to run. */
    bool pending() const;

    /** Cancel the referenced event if it has not yet run. */
    void cancel();

    /** Scheduled time, or kTimeNever when empty/executed. */
    Time when() const;

  private:
    friend class EventQueue;
    EventHandle(EventQueue *q, std::uint32_t slot, std::uint32_t gen)
        : q_(q), slot_(slot), gen_(gen)
    {}

    EventQueue *q_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * Min-queue of pending events ordered by (time, priority, sequence).
 */
class EventQueue
{
  public:
    EventQueue() = default;
    // Handles point at the queue.
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Insert an event; returns a cancelable handle. */
    EventHandle push(Time when, EventPriority prio, EventFn fn);

    /** True when no runnable event remains. */
    bool
    empty()
    {
        skipCancelled();
        return heap_.empty();
    }

    /** Timestamp of the next runnable event; kTimeNever when empty. */
    Time
    nextTime()
    {
        skipCancelled();
        return heap_.empty() ? kTimeNever : heap_.front().when;
    }

    /**
     * Remove the next runnable event and return its callback. Its handle
     * stops being pending and its slot is free for reuse, so the caller
     * runs the returned copy. The queue must not be empty().
     */
    EventFn pop();

    /** Number of events held, including lazily-cancelled ones. */
    std::size_t rawSize() const { return heap_.size(); }

    /** Slots ever allocated: the pool's high-water mark of live events. */
    std::size_t poolSize() const { return slots_.size(); }

  private:
    friend class EventHandle;

    struct Slot
    {
        EventFn fn;
        Time when;
        /** Wraps after 2^32 reuses of one slot, far past any run's count. */
        std::uint32_t gen;
        std::uint32_t nextFree;
    };

    struct Entry
    {
        Time when;
        /** priority << 56 | insertion sequence. */
        std::uint64_t key;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** Heap comparator (defined in event.cc). */
    struct Later;

    bool
    live(std::uint32_t slot, std::uint32_t gen) const
    {
        return slots_[slot].gen == gen;
    }

    /** Invalidate the slot's handles and heap entry; free the slot. */
    void
    retire(std::uint32_t slot)
    {
        ++slots_[slot].gen;
        slots_[slot].nextFree = freeHead_;
        freeHead_ = slot;
    }

    /** Drop cancelled entries from the front. */
    void
    skipCancelled()
    {
        while (!heap_.empty() &&
               !live(heap_.front().slot, heap_.front().gen))
            popFront();
    }

    void popFront();

    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNoSlot;
    std::uint64_t nextSeq_ = 0;
};

inline bool
EventHandle::pending() const
{
    return q_ && q_->live(slot_, gen_);
}

inline void
EventHandle::cancel()
{
    if (pending())
        q_->retire(slot_);
}

inline Time
EventHandle::when() const
{
    return pending() ? q_->slots_[slot_].when : kTimeNever;
}

} // namespace bpsim

#endif // BPSIM_SIM_EVENT_HH
