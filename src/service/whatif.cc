#include "service/whatif.hh"

#include <cmath>
#include <sstream>

#include "core/backup_config.hh"
#include "server/server_model.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace service
{

namespace
{

bool
setError(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

/**
 * @name Checked JSON field accessors
 * JsonValue's as*() accessors assert (abort) on kind mismatch; the
 * request body is untrusted, so everything goes through these
 * instead. A missing member leaves @p out untouched and succeeds —
 * schema fields are optional unless the caller checks presence.
 */
///@{
bool
readNumber(const JsonValue &obj, const char *key, double &out,
           std::string *error)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        return true;
    if (v->kind() != JsonValue::Kind::Number)
        return setError(error, std::string(key) + " must be a number");
    out = v->asDouble();
    if (!std::isfinite(out))
        return setError(error, std::string(key) + " must be finite");
    return true;
}

bool
readUint(const JsonValue &obj, const char *key, std::uint64_t &out,
         std::string *error)
{
    double d = static_cast<double>(out);
    if (!readNumber(obj, key, d, error))
        return false;
    if (d < 0 || d != std::floor(d) || d > 9e15)
        return setError(error, std::string(key) +
                                   " must be a non-negative integer");
    out = static_cast<std::uint64_t>(d);
    return true;
}

bool
readInt(const JsonValue &obj, const char *key, int &out,
        std::string *error)
{
    double d = static_cast<double>(out);
    if (!readNumber(obj, key, d, error))
        return false;
    if (d != std::floor(d) || d < -2e9 || d > 2e9)
        return setError(error, std::string(key) + " must be an integer");
    out = static_cast<int>(d);
    return true;
}

/** Refuse @p value outside [lo, hi], naming the field @p key. */
bool
checkRange(const char *key, double value, double lo, double hi,
           std::string *error)
{
    if (value >= lo && value <= hi)
        return true;
    return setError(error,
                    formatString("%s must be in [%g, %g]", key, lo, hi));
}

bool
readBool(const JsonValue &obj, const char *key, bool &out,
         std::string *error)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        return true;
    if (v->kind() != JsonValue::Kind::Bool)
        return setError(error, std::string(key) + " must be a boolean");
    out = v->asBool();
    return true;
}
///@}

bool
parseConfig(const JsonValue &v, BackupConfigSpec &out, std::string *error)
{
    if (v.kind() == JsonValue::Kind::String) {
        for (const auto &c : table3Configs()) {
            if (c.name == v.asString()) {
                out = c;
                return true;
            }
        }
        return setError(error,
                        "unknown config \"" + v.asString() +
                            "\" (expected a Table 3 name, e.g. "
                            "\"LargeEUPS\", or an object)");
    }
    if (v.kind() != JsonValue::Kind::Object)
        return setError(error, "config must be a name or an object");

    out = BackupConfigSpec{};
    if (const JsonValue *n = v.find("name")) {
        if (n->kind() != JsonValue::Kind::String)
            return setError(error, "config.name must be a string");
        out.name = n->asString();
    } else {
        out.name = "custom";
    }
    if (!readBool(v, "has_dg", out.hasDg, error) ||
        !readNumber(v, "dg_power_frac", out.dgPowerFrac, error) ||
        !readBool(v, "has_ups", out.hasUps, error) ||
        !readNumber(v, "ups_power_frac", out.upsPowerFrac, error) ||
        !readNumber(v, "ups_runtime_sec", out.upsRuntimeSec, error))
        return false;
    if (out.dgPowerFrac < 0 || out.upsPowerFrac < 0 ||
        out.upsRuntimeSec < 0)
        return setError(error, "config fractions must be non-negative");
    // A present backup source needs a capacity: the battery and
    // generator models refuse a zero rating.
    if (out.hasUps && out.upsPowerFrac == 0)
        return setError(error, "ups_power_frac must be > 0 with has_ups");
    if (out.hasUps && out.upsRuntimeSec == 0)
        return setError(error, "ups_runtime_sec must be > 0 with has_ups");
    if (out.hasDg && out.dgPowerFrac == 0)
        return setError(error, "dg_power_frac must be > 0 with has_dg");
    return true;
}

bool
parseTechnique(const JsonValue &v, TechniqueSpec &out, std::string *error)
{
    if (v.kind() != JsonValue::Kind::Object)
        return setError(error, "technique must be an object");
    if (const JsonValue *k = v.find("kind")) {
        if (k->kind() != JsonValue::Kind::String)
            return setError(error, "technique.kind must be a string");
        const auto kind = techniqueKindFromName(k->asString());
        if (!kind)
            return setError(error, "unknown technique kind \"" +
                                       k->asString() + "\"");
        out.kind = *kind;
    }
    double serve_for_min = toMinutes(out.serveFor);
    if (!readInt(v, "pstate", out.pstate, error) ||
        !readInt(v, "tstate", out.tstate, error) ||
        !readNumber(v, "serve_for_min", serve_for_min, error) ||
        !readBool(v, "low_power", out.lowPower, error) ||
        !readInt(v, "host_pstate", out.hostPState, error) ||
        !readNumber(v, "remote_perf", out.remotePerf, error) ||
        !readNumber(v, "risk", out.risk, error))
        return false;
    if (serve_for_min < 0)
        return setError(error, "serve_for_min must be non-negative");
    out.serveFor = fromMinutes(serve_for_min);
    // The server model's own state counts bound the state indices.
    const ServerModel::Params server;
    return checkRange("pstate", out.pstate, 0, server.pStates - 1, error) &&
           checkRange("host_pstate", out.hostPState, 0, server.pStates - 1,
                      error) &&
           checkRange("tstate", out.tstate, 0, server.tStates - 1, error) &&
           checkRange("remote_perf", out.remotePerf, 0, 1, error) &&
           checkRange("risk", out.risk, 0, 1, error);
}

} // namespace

const char *
techniqueKindName(TechniqueKind kind)
{
    switch (kind) {
    case TechniqueKind::None:
        return "none";
    case TechniqueKind::Throttle:
        return "throttle";
    case TechniqueKind::Sleep:
        return "sleep";
    case TechniqueKind::Hibernate:
        return "hibernate";
    case TechniqueKind::ProactiveHibernate:
        return "proactive_hibernate";
    case TechniqueKind::Migration:
        return "migration";
    case TechniqueKind::ProactiveMigration:
        return "proactive_migration";
    case TechniqueKind::MigrationSleep:
        return "migration_sleep";
    case TechniqueKind::ThrottleSleep:
        return "throttle_sleep";
    case TechniqueKind::ThrottleHibernate:
        return "throttle_hibernate";
    case TechniqueKind::GeoFailover:
        return "geo_failover";
    case TechniqueKind::Adaptive:
        return "adaptive";
    }
    return "?";
}

std::optional<TechniqueKind>
techniqueKindFromName(const std::string &name)
{
    static const TechniqueKind kinds[] = {
        TechniqueKind::None,
        TechniqueKind::Throttle,
        TechniqueKind::Sleep,
        TechniqueKind::Hibernate,
        TechniqueKind::ProactiveHibernate,
        TechniqueKind::Migration,
        TechniqueKind::ProactiveMigration,
        TechniqueKind::MigrationSleep,
        TechniqueKind::ThrottleSleep,
        TechniqueKind::ThrottleHibernate,
        TechniqueKind::GeoFailover,
        TechniqueKind::Adaptive,
    };
    for (const TechniqueKind k : kinds)
        if (name == techniqueKindName(k))
            return k;
    return std::nullopt;
}

std::optional<WhatIfRequest>
parseWhatIfRequest(const JsonValue &body, std::string *error,
                   const WhatIfLimits &limits)
{
    if (body.kind() != JsonValue::Kind::Object) {
        setError(error, "request body must be a JSON object");
        return std::nullopt;
    }

    WhatIfRequest req;
    req.spec.profile = specJbbProfile();
    req.spec.nServers = 8;
    req.opts.maxTrials = 200;
    req.opts.seed = 2014;
    // Early stop off by default: a deterministic fixed-budget run is
    // the cache-friendly default; clients opt into the CI rule.
    req.opts.minTrials = 64;
    req.opts.ciRelTol = 0.0;
    req.opts.ciAbsTolMin = 0.0;

    const JsonValue *config = body.find("config");
    if (config == nullptr) {
        setError(error, "missing required field \"config\"");
        return std::nullopt;
    }
    if (!parseConfig(*config, req.spec.config, error))
        return std::nullopt;

    if (const JsonValue *t = body.find("technique")) {
        if (!parseTechnique(*t, req.spec.technique, error))
            return std::nullopt;
    }

    if (!readInt(body, "servers", req.spec.nServers, error) ||
        !readUint(body, "trials", req.opts.maxTrials, error) ||
        !readUint(body, "seed", req.opts.seed, error) ||
        !readUint(body, "min_trials", req.opts.minTrials, error) ||
        !readNumber(body, "ci_rel_tol", req.opts.ciRelTol, error) ||
        !readNumber(body, "ci_abs_tol_min", req.opts.ciAbsTolMin, error))
        return std::nullopt;

    if (req.spec.nServers < 1 || req.spec.nServers > limits.maxServers) {
        setError(error, formatString("servers must be in [1, %d]",
                                     limits.maxServers));
        return std::nullopt;
    }
    if (req.opts.maxTrials < 1 ||
        req.opts.maxTrials > limits.maxTrials) {
        setError(error,
                 formatString("trials must be in [1, %llu]",
                              static_cast<unsigned long long>(
                                  limits.maxTrials)));
        return std::nullopt;
    }
    if (req.opts.ciRelTol < 0 || req.opts.ciAbsTolMin < 0) {
        setError(error, "early-stop tolerances must be non-negative");
        return std::nullopt;
    }
    return req;
}

namespace
{

/** Shared body of canonicalCacheKey()/canonicalBaseKey(): the trial
 *  budget is the only field the two spell differently. */
std::string
canonicalKeyWithTrials(const WhatIfRequest &req, const std::string &trials)
{
    // Fixed field order, %.17g doubles (the same print precision the
    // JSON layer round-trips), '|' separators. Any field that can
    // change the result must appear here; buildId last so a rebuilt
    // binary never serves a stale entry.
    const BackupConfigSpec &c = req.spec.config;
    const TechniqueSpec &t = req.spec.technique;
    std::ostringstream os;
    os << "whatif.v1|profile=specjbb|config=" << c.name << '|'
       << c.hasDg << '|';
    char buf[32];
    const auto num = [&os, &buf](double v) {
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os << buf << '|';
    };
    num(c.dgPowerFrac);
    os << c.hasUps << '|';
    num(c.upsPowerFrac);
    num(c.upsRuntimeSec);
    os << "tech=" << techniqueKindName(t.kind) << '|' << t.pstate << '|'
       << t.tstate << '|' << t.serveFor << '|' << t.lowPower << '|'
       << t.hostPState << '|';
    num(t.remotePerf);
    num(t.risk);
    os << "servers=" << req.spec.nServers << '|'
       << "trials=" << trials << '|'
       << "seed=" << req.opts.seed << '|'
       << "min_trials=" << req.opts.minTrials << '|';
    os << "ci=";
    num(req.opts.ciRelTol);
    num(req.opts.ciAbsTolMin);
    num(req.opts.ciZ);
    os << "build=" << buildId();
    return os.str();
}

} // namespace

std::string
canonicalCacheKey(const WhatIfRequest &req)
{
    return canonicalKeyWithTrials(
        req, std::to_string(req.opts.maxTrials));
}

std::string
canonicalBaseKey(const WhatIfRequest &req)
{
    return canonicalKeyWithTrials(req, "*");
}

std::string
runWhatIf(const WhatIfRequest &req)
{
    return executeWhatIf(req).body;
}

WhatIfExecution
executeWhatIf(const WhatIfRequest &req, const CampaignCheckpoint *from,
              obs::Context *obs)
{
    // A checkpoint only seeds the run when resuming from it is
    // guaranteed bit-identical to running fresh: same seed (the RNG
    // stream family), a trial count within this request's budget, and
    // the same binary. Anything else is silently ignored — resume is
    // an accelerator, never a behavior change.
    const bool compatible = from != nullptr &&
                            from->spec.seed == req.opts.seed &&
                            from->trials >= 1 &&
                            from->trials <= req.opts.maxTrials &&
                            from->build == buildId();

    WhatIfExecution out;
    out.resumed = compatible;
    out.startTrial = compatible ? from->trials : 0;
    AnnualCampaignOptions opts = req.opts;
    opts.obs = obs;
    const ResumableOutcome run =
        runResumableCampaign(req.spec, opts, compatible ? from : nullptr);
    out.executedTrials = run.executedTrials;
    out.checkpoint = run.checkpoint;
    std::ostringstream os;
    CampaignJsonOptions jopts;
    jopts.includeTiming = false;
    writeCampaignJson(os, run.summary, jopts);
    out.body = os.str();
    return out;
}

} // namespace service
} // namespace bpsim
