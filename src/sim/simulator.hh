/**
 * @file
 * The simulation kernel: a clock plus the event loop.
 *
 * Models schedule callbacks with schedule()/at(); run() drains the queue
 * in timestamp order, advancing the clock. Time never moves backwards,
 * and a given Simulator instance is single-threaded by design.
 */

#ifndef BPSIM_SIM_SIMULATOR_HH
#define BPSIM_SIM_SIMULATOR_HH

#include <cstdint>

#include "sim/event.hh"
#include "sim/types.hh"

namespace bpsim
{

/** Event-driven simulation kernel. */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule a callback after a non-negative delay from now.
     *
     * @param delay   Offset from the current time; must be >= 0.
     * @param fn      Callback to run (at most 32 bytes of trivially
     *                copyable captures; see EventFn).
     * @param name    Diagnostic label used in panic messages.
     * @param prio    Ordering class among same-timestamp events.
     * @return        Handle that can cancel the event.
     */
    EventHandle schedule(Time delay, EventFn fn,
                         const char *name = "event",
                         EventPriority prio = EventPriority::Normal);

    /** Schedule a callback at an absolute time >= now. */
    EventHandle at(Time when, EventFn fn,
                   const char *name = "event",
                   EventPriority prio = EventPriority::Normal);

    /** Run until the queue drains or stop() is called. */
    void run();

    /**
     * Run until the queue drains, stop() is called, or simulated time
     * would pass @p limit. The clock is left at min(limit, drain time).
     */
    void runUntil(Time limit);

    /** Request the run loop to stop after the current event. */
    void stop() { stopping = true; }

    /** Number of events executed so far (for tests and micro-benches). */
    std::uint64_t executedEvents() const { return executed; }

    /** Pending (scheduled, not yet cancelled-and-compacted) events —
     *  the obs time-series "queue_depth" signal. */
    std::size_t queueDepth() const { return queue.rawSize(); }

  private:
    EventQueue queue;
    Time now_ = 0;
    bool stopping = false;
    bool running = false;
    std::uint64_t executed = 0;
};

} // namespace bpsim

#endif // BPSIM_SIM_SIMULATOR_HH
