#include "sim/event.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace bpsim
{

namespace
{

constexpr int kSeqBits = 56;

} // namespace

/** Heap order: the earliest (time, priority, sequence) on top. */
struct EventQueue::Later
{
    bool
    operator()(const Entry &a, const Entry &b) const
    {
        return a.when != b.when ? a.when > b.when : a.key > b.key;
    }
};

EventHandle
EventQueue::push(Time when, EventPriority prio, EventFn fn)
{
    const auto prio_bits = static_cast<std::uint64_t>(prio);
    BPSIM_ASSERT(prio_bits < (std::uint64_t{1} << (64 - kSeqBits)) &&
                     nextSeq_ < (std::uint64_t{1} << kSeqBits),
                 "event key out of range (priority %d, sequence %llu)",
                 static_cast<int>(prio),
                 static_cast<unsigned long long>(nextSeq_));
    std::uint32_t slot = freeHead_;
    if (slot == kNoSlot) {
        BPSIM_ASSERT(slots_.size() < kNoSlot, "event pool exhausted");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{fn, when, 0, kNoSlot});
    } else {
        freeHead_ = slots_[slot].nextFree;
        slots_[slot].fn = fn;
        slots_[slot].when = when;
    }
    const std::uint32_t gen = slots_[slot].gen;
    heap_.push_back(
        Entry{when, prio_bits << kSeqBits | nextSeq_++, slot, gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return EventHandle(this, slot, gen);
}

void
EventQueue::popFront()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
}

EventFn
EventQueue::pop()
{
    skipCancelled();
    BPSIM_ASSERT(!heap_.empty(), "pop() from an empty event queue");
    const std::uint32_t slot = heap_.front().slot;
    const EventFn fn = slots_[slot].fn;
    retire(slot);
    popFront();
    return fn;
}

} // namespace bpsim
