/**
 * @file
 * Diesel generator (DG) model.
 *
 * Per Section 3 of the paper: a DG takes 20-30 seconds to start and
 * produce stable power, and the load is then transferred from the UPS in
 * gradual load steps, making the overall transition ~2-3 minutes. Its
 * capital cost is dominated by peak power capacity; fuel (energy) is
 * comparatively cheap, so the tank defaults to a generous reserve.
 */

#ifndef BPSIM_POWER_DIESEL_GENERATOR_HH
#define BPSIM_POWER_DIESEL_GENERATOR_HH

#include <functional>

#include "sim/simulator.hh"
#include "sim/types.hh"

namespace bpsim
{

/** Start-up/ramp/fuel model of a diesel generator set. */
class DieselGenerator
{
  public:
    /** Static parameters of the generator set. */
    struct Params
    {
        /** Peak electrical output (watts). */
        Watts powerCapacityW = 250e3;
        /** Delay from start command to stable output (seconds). */
        double startupDelaySec = 25.0;
        /** Number of gradual load steps when taking over from UPS. */
        int rampSteps = 4;
        /**
         * Time from stable output to carrying the full load
         * (seconds). startupDelaySec + rampDurationSec matches the
         * paper's ~2-3 minute overall transition.
         */
        double rampDurationSec = 120.0;
        /** Usable fuel, as deliverable electrical energy (joules). */
        Joules fuelCapacityJ = 0.0; // 0 -> 24 h at rated power
    };

    /** Operating state. */
    enum class State
    {
        Off,
        Starting,
        Online,
    };

    DieselGenerator(Simulator &sim, const Params &params);

    /** Static parameters. */
    const Params &params() const { return p; }

    /** Current operating state. */
    State state() const { return st; }

    /** True once producing stable output. */
    bool online() const { return st == State::Online; }

    /**
     * Fraction of the datacenter load this DG may carry right now:
     * 0 while off/starting, then stepping up to 1 across the ramp.
     */
    double transferFraction() const { return fraction; }

    /** Issue the start command; no-op if already starting/online. */
    void start();

    /** Shut down (utility restored); resets the transfer ramp. */
    void stop();

    /** Deliverable power right now, given the transfer ramp and fuel. */
    Watts availablePowerW(Watts load) const;

    /** Record @p load carried for @p dt; draws down fuel. */
    void consume(Watts load, Time dt);

    /** Remaining fuel as deliverable electrical energy. */
    Joules fuelRemainingJ() const { return fuel; }

    /** True once the tank is dry. */
    bool fuelExhausted() const { return fuel <= 0.0; }

    /** Register a callback for when the ramp fraction changes. */
    void onRampChange(std::function<void()> fn) { rampFn = std::move(fn); }

    /** When the last start command was issued (-1 = never started);
     *  feeds the dg.start_to_carrying_s histogram. */
    Time startedAt() const { return startedAt_; }

  private:
    void becomeOnline();
    void advanceRamp();

    Simulator &sim;
    Params p;
    State st = State::Off;
    double fraction = 0.0;
    int stepsDone = 0;
    Time startedAt_ = -1;
    Joules fuel;
    EventHandle pendingEvent;
    std::function<void()> rampFn;
};

} // namespace bpsim

#endif // BPSIM_POWER_DIESEL_GENERATOR_HH
