/**
 * @file
 * Umbrella header and instrumentation macros for the observability
 * layer (obs/trace.hh, obs/record.hh, obs/registry.hh, obs/export.hh).
 *
 * Instrumentation sites in the simulation models go through the
 * macros below so they cost nothing when observability is compiled
 * out and a single thread-local load when it is compiled in but the
 * thread is not recording a trial (the default):
 *
 *  - compile-time gate: configure with -DBPSIM_OBS=OFF (which defines
 *    BPSIM_OBS_ENABLED=0) and every macro expands to a no-op
 *    statement — no branch, no load, no strings in the binary;
 *  - per-trial recording: a campaign run with an obs::Context
 *    (obs/context.hh) opens a TrialScope with a TrialRecord around
 *    each trial; outside one, obs::enabled() is false and
 *    BPSIM_TRACE / BPSIM_OBS_COUNTER_ADD / BPSIM_OBS_HISTOGRAM_RECORD
 *    return before touching anything. There is no process-wide gate.
 */

#ifndef BPSIM_OBS_OBS_HH
#define BPSIM_OBS_OBS_HH

#include "obs/export.hh"
#include "obs/histogram.hh"
#include "obs/record.hh"
#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"

#ifndef BPSIM_OBS_ENABLED
#define BPSIM_OBS_ENABLED 1
#endif

#if BPSIM_OBS_ENABLED

/**
 * The recording gate as a compile-out-able expression, for guarding
 * instrumentation-only work (e.g. tracking battery SoC crossings)
 * that is more than a single BPSIM_TRACE call. Constant-folds to
 * false when observability is compiled out.
 */
#define BPSIM_OBS_ON() (::bpsim::obs::enabled())

/**
 * Record a trace event in the thread's record; arguments are
 * forwarded to obs::TraceSink::emit(kind, sim_time, name[, detail[,
 * a[, b]]]).
 */
#define BPSIM_TRACE(...)                                                \
    do {                                                                \
        if (::bpsim::obs::enabled())                                    \
            ::bpsim::obs::TraceSink::emit(__VA_ARGS__);                 \
    } while (0)

/**
 * Add n to counter name_ (a string literal) in the thread's record;
 * the campaign's Context later folds it into its deltas and, when it
 * has one, its registry.
 */
#define BPSIM_OBS_COUNTER_ADD(name_, n_)                                \
    do {                                                                \
        if (::bpsim::obs::TrialRecord *bpsim_obs_rec_ =                 \
                ::bpsim::obs::activeRecord())                           \
            bpsim_obs_rec_->addCounter(name_, n_);                      \
    } while (0)

/**
 * Record value v_ into histogram name_ (a string literal) in the
 * thread's record; folded like BPSIM_OBS_COUNTER_ADD.
 */
#define BPSIM_OBS_HISTOGRAM_RECORD(name_, v_)                           \
    do {                                                                \
        if (::bpsim::obs::TrialRecord *bpsim_obs_rec_ =                 \
                ::bpsim::obs::activeRecord())                           \
            bpsim_obs_rec_->recordHistogram(name_, v_);                 \
    } while (0)

#else // !BPSIM_OBS_ENABLED

#define BPSIM_OBS_ON() (false)

#define BPSIM_TRACE(...)                                                \
    do {                                                                \
    } while (0)

#define BPSIM_OBS_COUNTER_ADD(name_, n_)                                \
    do {                                                                \
    } while (0)

#define BPSIM_OBS_HISTOGRAM_RECORD(name_, v_)                           \
    do {                                                                \
    } while (0)

#endif // BPSIM_OBS_ENABLED

#endif // BPSIM_OBS_OBS_HH
