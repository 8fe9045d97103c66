/**
 * @file
 * What-if queries: the JSON request schema of POST /v1/whatif, its
 * validation into an AnnualCampaignSpec + AnnualCampaignOptions, the
 * canonical cache key, and the deterministic runner.
 *
 * Request schema (every field except "config" optional):
 *
 *     {
 *       "config": "LargeEUPS"            // Table 3 name, or object:
 *                 {"name": "...", "has_dg": ..., "dg_power_frac": ...,
 *                  "has_ups": ..., "ups_power_frac": ...,
 *                  "ups_runtime_sec": ...},
 *       "technique": {"kind": "throttle_sleep", "pstate": 5,
 *                     "tstate": 0, "serve_for_min": 10.0,
 *                     "low_power": true, "host_pstate": 0,
 *                     "remote_perf": 0.7, "risk": 0.3},
 *       "servers": 8,
 *       "trials": 200, "seed": 2014,
 *       "min_trials": 64, "ci_rel_tol": 0.10, "ci_abs_tol_min": 1.0
 *     }
 *
 * Parsing is defensive: the body is untrusted network input, so every
 * field is type- and range-checked and errors are returned, never
 * asserted (JsonValue's checked accessors abort on mismatch and are
 * not used here). The ranges are the models' own: pstate and
 * host_pstate in [0, P-states) and tstate in [0, T-states) of the
 * default server model, remote_perf and risk in [0, 1], and a custom
 * config's ups_power_frac and ups_runtime_sec (with has_ups) and
 * dg_power_frac (with has_dg) above 0. Every technique kind is
 * checked alike, also one that ignores the field.
 *
 * Determinism: the response of a what-if is a pure function of
 * (spec, seed, trial budget, early-stop rule, buildId) — that tuple,
 * serialized canonically by canonicalCacheKey(), is the cache's
 * content address, and runWhatIf() serializes the campaign summary
 * without wall-clock fields so a cached reply is byte-identical to a
 * fresh run (and to `campaign_sweep --deterministic` batch output).
 */

#ifndef BPSIM_SERVICE_WHATIF_HH
#define BPSIM_SERVICE_WHATIF_HH

#include <cstdint>
#include <optional>
#include <string>

#include "campaign/annual_campaign.hh"
#include "campaign/checkpoint.hh"
#include "campaign/json.hh"

namespace bpsim
{
namespace service
{

/** One validated what-if query. */
struct WhatIfRequest
{
    AnnualCampaignSpec spec;
    AnnualCampaignOptions opts;
};

/** Sizing guard-rails applied during parsing. */
struct WhatIfLimits
{
    /** Reject trial budgets beyond this (one resident server should
     *  not be wedged for hours by one query). */
    std::uint64_t maxTrials = 100000;
    /** Reject server counts beyond this. */
    int maxServers = 4096;
};

/**
 * Validate one parsed request body. Returns nullopt with a
 * human-readable reason in @p error on any schema violation.
 */
std::optional<WhatIfRequest> parseWhatIfRequest(
    const JsonValue &body, std::string *error = nullptr,
    const WhatIfLimits &limits = {});

/**
 * The canonical cache key: every result-determining field in fixed
 * order, terminated by buildId (a new binary never serves a stale
 * cache line, even across identical configs).
 */
std::string canonicalCacheKey(const WhatIfRequest &req);

/**
 * The *base* key: canonicalCacheKey() with the trial budget
 * wildcarded (`trials=*`). Two requests that differ only in budget
 * share a base key, which is exactly the condition under which a
 * stored campaign checkpoint for one can seed the other — same
 * scenario, same seed, same early-stop rule, same build.
 */
std::string canonicalBaseKey(const WhatIfRequest &req);

/**
 * Run the campaign and serialize its summary as the deterministic
 * (timing-free) campaign JSON document — the /v1/whatif response
 * body, and byte-for-byte the `campaign_sweep --deterministic`
 * export for the same scenario.
 */
std::string runWhatIf(const WhatIfRequest &req);

/** Everything one what-if execution produced. */
struct WhatIfExecution
{
    /** The deterministic response body (timing-free campaign JSON). */
    std::string body;
    /** Exact aggregation state after the run, resumable to a larger
     *  budget later. */
    CampaignCheckpoint checkpoint;
    /** Trials actually simulated by this call (0 for a pure replay of
     *  an early-stopped checkpoint). */
    std::uint64_t executedTrials = 0;
    /** True when @p from was compatible and seeded the run. */
    bool resumed = false;
    /** First trial id simulated this call (the checkpoint's trial
     *  count when resuming, else 0). */
    std::uint64_t startTrial = 0;
};

/**
 * Run (or resume) the campaign for @p req. When @p from is non-null
 * and compatible — same seed, trials <= the request's budget, same
 * buildId — the campaign resumes from it, simulating only the
 * remaining trials; the result is bit-identical to a fresh run (see
 * campaign/checkpoint.hh). An incompatible checkpoint is ignored and
 * the campaign runs fresh. When @p obs is non-null the trials this
 * call simulates record into it (its sample window counts from
 * startTrial).
 */
WhatIfExecution executeWhatIf(const WhatIfRequest &req,
                              const CampaignCheckpoint *from = nullptr,
                              obs::Context *obs = nullptr);

/** Stable lowercase name of @p kind ("throttle_sleep", ...). */
const char *techniqueKindName(TechniqueKind kind);

/** Inverse of techniqueKindName(); nullopt for unknown names. */
std::optional<TechniqueKind> techniqueKindFromName(
    const std::string &name);

} // namespace service
} // namespace bpsim

#endif // BPSIM_SERVICE_WHATIF_HH
