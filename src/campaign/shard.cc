#include "campaign/shard.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "campaign/json.hh"
#include "sim/logging.hh"

namespace bpsim
{

namespace
{

/** Set @p error (when wired) and return false: validation helper. */
bool
fail(std::string *error, std::string why)
{
    if (error)
        *error = std::move(why);
    return false;
}

std::string
rangeName(const ShardSpec &s)
{
    return formatString("[%llu, %llu)",
                        static_cast<unsigned long long>(s.lo),
                        static_cast<unsigned long long>(s.hi));
}

/** Emit the obs members, each omitted when empty. */
void
writeObsDeltas(JsonWriter &w, const obs::ObsDeltas &d)
{
    if (!d.counters.empty()) {
        w.key("counters").beginObject();
        for (const auto &[name, v] : d.counters)
            w.field(name, v);
        w.endObject();
    }
    if (!d.histograms.empty()) {
        w.key("histograms").beginObject();
        for (const auto &[name, h] : d.histograms) {
            w.key(name).beginObject();
            w.key("buckets").beginObject();
            for (const auto &[i, c] : h.buckets)
                w.field(std::to_string(i), c);
            w.endObject();
            w.endObject();
        }
        w.endObject();
    }
    if (!d.incidents.empty()) {
        w.key("incidents");
        d.incidents.writeJson(w);
    }
}

/** Digits-only bucket-index parse (no exceptions, no sign, no 0x). */
bool
parseBucketIndex(const std::string &s, std::uint32_t &out)
{
    if (s.empty() || s.size() > 9)
        return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** Structural pre-check for IncidentAggregate::fromJson (which
 *  asserts): every member it dereferences must exist with the right
 *  shape before it runs on untrusted bytes. */
bool
validIncidentJson(const JsonValue &v)
{
    if (v.kind() != JsonValue::Kind::Object)
        return false;
    for (const char *key :
         {"trials", "incidents", "truncated", "loss_incidents"}) {
        if (!jsonUint(v.find(key)))
            return false;
    }
    const JsonValue *reported = v.find("reported_min");
    if (!reported || !ExactSum::validJson(*reported))
        return false;
    const JsonValue *causes = v.find("by_cause");
    if (!causes || causes->kind() != JsonValue::Kind::Object)
        return false;
    for (std::size_t c = 0; c < obs::kRootCauseCount; ++c) {
        const JsonValue *e = causes->find(
            obs::rootCauseName(static_cast<obs::RootCause>(c)));
        if (!e || e->kind() != JsonValue::Kind::Object ||
            !jsonUint(e->find("primary")))
            return false;
        const JsonValue *min = e->find("min");
        if (!min || !ExactSum::validJson(*min))
            return false;
    }
    return true;
}

/** Read the optional obs members of @p doc into @p out. */
bool
readObsDeltas(const JsonValue &doc, obs::ObsDeltas &out,
              std::string *error)
{
    if (const JsonValue *cs = doc.find("counters")) {
        if (cs->kind() != JsonValue::Kind::Object)
            return fail(error, "malformed counters");
        for (std::size_t i = 0; i < cs->size(); ++i) {
            const auto &[name, v] = cs->member(i);
            const auto n = jsonUint(&v);
            if (!n)
                return fail(error, "malformed counter " + name);
            out.counters[name] = *n;
        }
    }
    if (const JsonValue *hs = doc.find("histograms")) {
        if (hs->kind() != JsonValue::Kind::Object)
            return fail(error, "malformed histograms");
        for (std::size_t i = 0; i < hs->size(); ++i) {
            const auto &[name, h] = hs->member(i);
            const JsonValue *buckets =
                h.kind() == JsonValue::Kind::Object ? h.find("buckets")
                                                    : nullptr;
            if (!buckets || buckets->kind() != JsonValue::Kind::Object)
                return fail(error, "malformed histogram " + name);
            obs::HistogramSnapshot snap;
            for (std::size_t j = 0; j < buckets->size(); ++j) {
                const auto &[idx, cnt] = buckets->member(j);
                std::uint32_t bucket = 0;
                const auto n = jsonUint(&cnt);
                if (!parseBucketIndex(idx, bucket) || !n)
                    return fail(error, "malformed histogram " + name);
                snap.buckets[bucket] = *n;
            }
            out.histograms[name] = std::move(snap);
        }
    }
    if (const JsonValue *inc = doc.find("incidents")) {
        if (!validIncidentJson(*inc))
            return fail(error, "malformed incident aggregate");
        out.incidents = obs::IncidentAggregate::fromJson(*inc);
    }
    return true;
}

/** Parse and cross-check everything but the schema stamp. */
bool
readShardBody(const JsonValue &doc, ShardResult &out, std::string *error)
{
    ShardSpec &spec = out.spec;
    for (const auto &[key, into] :
         {std::pair<const char *, std::uint64_t *>{"seed", &spec.seed},
          {"campaign_trials", &spec.campaignTrials},
          {"trial_lo", &spec.lo},
          {"trial_hi", &spec.hi},
          {"shard_index", &spec.shardIndex},
          {"shard_count", &spec.shardCount},
          {"trials", &out.trials},
          {"loss_free_trials", &out.lossFreeTrials}}) {
        const auto v = jsonUint(doc.find(key));
        if (!v)
            return fail(error, std::string("missing or malformed ") + key);
        *into = *v;
    }
    const JsonValue *build = doc.find("build");
    if (!build || build->kind() != JsonValue::Kind::String)
        return fail(error, "missing build identifier");
    out.build = build->asString();
    if (spec.lo >= spec.hi || spec.hi > spec.campaignTrials ||
        spec.shardIndex >= spec.shardCount ||
        out.trials != spec.width() || out.lossFreeTrials > out.trials)
        return fail(error, "inconsistent trial range " + rangeName(spec));

    const JsonValue *metrics = doc.find("metrics");
    if (!metrics || metrics->kind() != JsonValue::Kind::Object)
        return fail(error, "missing metrics object");
    for (const auto &[name, field] : CampaignAggregate::kMetrics) {
        const JsonValue *m = metrics->find(name);
        auto metric = m ? MergingMetric::fromJson(*m) : std::nullopt;
        if (!metric || metric->count() != out.trials)
            return fail(error, std::string("malformed metric ") + name);
        out.*field = std::move(*metric);
    }

    const JsonValue *cps = doc.find("checkpoints");
    if (!cps || cps->kind() != JsonValue::Kind::Array)
        return fail(error, "missing checkpoints array");
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < cps->size(); ++i) {
        const JsonValue &c = cps->item(i);
        const auto trials = c.kind() == JsonValue::Kind::Object
                                ? jsonUint(c.find("trials"))
                                : std::nullopt;
        const JsonValue *sum = trials ? c.find("sum") : nullptr;
        const JsonValue *sq = trials ? c.find("sum_sq") : nullptr;
        if (!sum || !ExactSum::validJson(*sum) || !sq ||
            !ExactSum::validJson(*sq) || *trials <= prev ||
            *trials >= out.trials)
            return fail(error, "malformed checkpoint prefix");
        out.checkpoints.push_back({*trials, ExactSum::fromJson(*sum),
                                   ExactSum::fromJson(*sq)});
        prev = *trials;
    }
    return readObsDeltas(doc, out, error);
}

} // namespace

ShardSpec
shardOf(std::uint64_t seed, std::uint64_t trials, std::uint64_t index,
        std::uint64_t count)
{
    BPSIM_ASSERT(count >= 1 && index < count,
                 "shard %llu of %llu is not a valid partition slot",
                 static_cast<unsigned long long>(index),
                 static_cast<unsigned long long>(count));
    BPSIM_ASSERT(trials >= 1, "cannot shard an empty campaign");
    const std::uint64_t base = trials / count;
    const std::uint64_t extra = trials % count;
    ShardSpec spec;
    spec.seed = seed;
    spec.campaignTrials = trials;
    spec.shardIndex = index;
    spec.shardCount = count;
    // The first `extra` shards take base+1 trials.
    spec.lo = index * base + std::min(index, extra);
    spec.hi = spec.lo + base + (index < extra ? 1 : 0);
    return spec;
}

namespace
{

ShardResult
runShard(const TrialSource &source, const ShardSpec &spec,
         const ShardOptions &opts)
{
    BPSIM_ASSERT(spec.hi > spec.lo && spec.hi <= spec.campaignTrials,
                 "shard range %s invalid for a %llu-trial campaign",
                 rangeName(spec).c_str(),
                 static_cast<unsigned long long>(spec.campaignTrials));
    const auto t0 = std::chrono::steady_clock::now();
    ShardResult out;
    out.spec = spec;
    out.build = buildId();
    foldTrials(out, source, spec.lo, spec.hi, opts.threads, opts.obs,
               [&](std::uint64_t id) {
                   if (opts.checkpointEvery != 0 && id + 1 < spec.hi &&
                       out.trials % opts.checkpointEvery == 0)
                       out.checkpoints.push_back(
                           {out.trials, out.downtimeMin.sum(),
                            out.downtimeMin.sumSq()});
                   return true; // shards never stop early
               });
    if (opts.obs)
        static_cast<obs::ObsDeltas &>(out) = opts.obs->deltas();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    out.wallSeconds = wall.count();
    return out;
}

} // namespace

ShardResult
runAnnualShard(const AnnualTrialFn &trial, const ShardSpec &spec,
               const ShardOptions &opts)
{
    return runShard(TrialSource(trial, spec.seed), spec, opts);
}

ShardResult
runAnnualShard(const AnnualCampaignSpec &scenario, const ShardSpec &spec,
               const ShardOptions &opts)
{
    return runShard(TrialSource(scenario, spec.seed, opts.batch), spec,
                    opts);
}

void
writeShardJson(std::ostream &os, const ShardResult &shard)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kShardSchemaName);
    w.field("schema_version", kShardSchemaVersion);
    w.field("seed", shard.spec.seed);
    w.field("campaign_trials", shard.spec.campaignTrials);
    w.field("trial_lo", shard.spec.lo);
    w.field("trial_hi", shard.spec.hi);
    w.field("shard_index", shard.spec.shardIndex);
    w.field("shard_count", shard.spec.shardCount);
    w.field("build", shard.build);
    w.field("trials", shard.trials);
    w.field("loss_free_trials", shard.lossFreeTrials);
    w.key("metrics").beginObject();
    for (const auto &[name, field] : CampaignAggregate::kMetrics) {
        w.key(name);
        (shard.*field).writeJson(w);
    }
    w.endObject();
    w.key("checkpoints").beginArray();
    for (const auto &c : shard.checkpoints) {
        w.beginObject();
        w.field("trials", c.trials);
        w.key("sum");
        c.sum.writeJson(w);
        w.key("sum_sq");
        c.sumSq.writeJson(w);
        w.endObject();
    }
    w.endArray();
    writeObsDeltas(w, shard);
    w.endObject();
    os << '\n';
}

std::optional<ShardResult>
readShardJson(const std::string &text, std::string *error)
{
    const auto doc = parseJson(text, error);
    if (!doc)
        return std::nullopt;
    if (doc->kind() != JsonValue::Kind::Object) {
        fail(error, "not a campaign shard file (not an object)");
        return std::nullopt;
    }
    const JsonValue *schema = doc->find("schema");
    if (!schema || schema->kind() != JsonValue::Kind::String ||
        schema->asString() != kShardSchemaName) {
        fail(error, "not a campaign shard file (schema mismatch)");
        return std::nullopt;
    }
    const auto version = jsonUint(doc->find("schema_version"));
    if (!version || *version != kShardSchemaVersion) {
        fail(error, formatString("unsupported shard schema version "
                                 "(want %d)",
                                 kShardSchemaVersion));
        return std::nullopt;
    }
    ShardResult out;
    if (!readShardBody(*doc, out, error))
        return std::nullopt;
    return out;
}

std::optional<ShardResult>
readShardFile(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        fail(error, "cannot open " + path);
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    std::string err;
    auto out = readShardJson(ss.str(), &err);
    if (!out)
        fail(error, path + ": " + err);
    return out;
}

EarlyStopDecision
evaluateEarlyStop(const std::vector<ShardResult> &shards,
                  const EarlyStopRule &rule)
{
    // Exact running prefix over fully merged earlier shards.
    std::uint64_t prefix_n = 0;
    ExactSum prefix_sum, prefix_sq;
    const auto at = [&](std::uint64_t n, const ExactSum &sum,
                        const ExactSum &sq) {
        ExactSum s = prefix_sum;
        s.merge(sum);
        ExactSum q = prefix_sq;
        q.merge(sq);
        return evaluateStopRule(rule, prefix_n + n, s, q);
    };
    for (const auto &s : shards) {
        for (const auto &c : s.checkpoints)
            if (const auto d = at(c.trials, c.sum, c.sumSq); d.fired)
                return d;
        if (const auto d =
                at(s.trials, s.downtimeMin.sum(), s.downtimeMin.sumSq());
            d.fired)
            return d;
        prefix_n += s.trials;
        prefix_sum.merge(s.downtimeMin.sum());
        prefix_sq.merge(s.downtimeMin.sumSq());
    }
    return {};
}

std::optional<MergedCampaign>
mergeShards(std::vector<ShardResult> shards, const EarlyStopRule *rule,
            std::string *error)
{
    if (shards.empty()) {
        fail(error, "no shards to merge");
        return std::nullopt;
    }
    std::sort(shards.begin(), shards.end(),
              [](const ShardResult &a, const ShardResult &b) {
                  return a.spec.lo < b.spec.lo;
              });

    const std::uint64_t seed = shards.front().spec.seed;
    const std::uint64_t total = shards.front().spec.campaignTrials;
    std::uint64_t next = 0;
    for (const auto &s : shards) {
        std::string why;
        if (s.spec.seed != seed)
            why = formatString("seed mismatch: shard %s has seed %llu, "
                               "expected %llu",
                               rangeName(s.spec).c_str(),
                               static_cast<unsigned long long>(
                                   s.spec.seed),
                               static_cast<unsigned long long>(seed));
        else if (s.spec.campaignTrials != total)
            why = "campaign size mismatch between shards";
        else if (s.spec.lo != next || s.spec.hi <= s.spec.lo)
            why = formatString("shard ranges are not contiguous at "
                               "trial %llu (next shard covers %s)",
                               static_cast<unsigned long long>(next),
                               rangeName(s.spec).c_str());
        else if (s.trials != s.spec.width() ||
                 s.downtimeMin.count() != s.trials)
            why = "shard " + rangeName(s.spec) + " is incomplete";
        if (!why.empty()) {
            fail(error, why);
            return std::nullopt;
        }
        next = s.spec.hi;
    }
    if (next != total) {
        fail(error,
             formatString("shards cover only [0, %llu) of a "
                          "%llu-trial campaign",
                          static_cast<unsigned long long>(next),
                          static_cast<unsigned long long>(total)));
        return std::nullopt;
    }

    MergedCampaign m;
    m.seed = seed;
    m.shardCount = shards.size();
    for (const auto &s : shards) {
        m.CampaignAggregate::merge(s);
        m.obs::ObsDeltas::merge(s);
    }
    m.lossFree = wilsonInterval(m.lossFreeTrials, m.trials,
                                rule ? rule->ciZ : 1.96);
    if (rule)
        m.earlyStop = evaluateEarlyStop(shards, *rule);
    return m;
}

void
writeMergedJson(std::ostream &os, const MergedCampaign &m)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "bpsim.campaign.merged");
    w.field("schema_version", kShardSchemaVersion);
    w.field("build", buildId());
    w.field("seed", m.seed);
    w.field("trials", m.trials);
    w.field("shard_count", m.shardCount);
    for (const auto &[name, field] : CampaignAggregate::kMetrics)
        writeMetricJson(w, name, m.*field);
    w.key("loss_free").beginObject();
    w.field("trials", m.lossFreeTrials);
    w.field("fraction", m.lossFree.fraction);
    w.field("ci_lo", m.lossFree.lo);
    w.field("ci_hi", m.lossFree.hi);
    w.endObject();
    writeObsDeltas(w, m);
    w.key("early_stop").beginObject();
    w.field("fired", m.earlyStop.fired);
    w.field("stop_trial", m.earlyStop.stopTrial);
    w.field("half_width", m.earlyStop.halfWidth);
    w.field("mean", m.earlyStop.mean);
    w.endObject();
    w.endObject();
    os << '\n';
}

} // namespace bpsim
