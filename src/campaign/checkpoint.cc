#include "campaign/checkpoint.hh"

#include "campaign/json.hh"
#include "obs/context.hh"
#include "sim/logging.hh"

namespace bpsim
{

std::optional<CampaignCheckpoint>
readCheckpointJson(const std::string &text, std::string *error)
{
    auto out = readShardJson(text, error);
    if (out && out->spec.lo != 0) {
        if (error)
            *error = "not a checkpoint: the shard does not start at trial 0";
        return std::nullopt;
    }
    return out;
}

ResumableOutcome
runResumableCampaign(const AnnualCampaignSpec &spec,
                     const AnnualCampaignOptions &opts,
                     const CampaignCheckpoint *from)
{
    BPSIM_ASSERT(!from || (from->spec.lo == 0 &&
                           from->spec.seed == opts.seed),
                 "checkpoint does not match campaign seed %llu",
                 static_cast<unsigned long long>(opts.seed));
    ResumableOutcome out;
    CampaignCheckpoint &ck = out.checkpoint;
    if (from)
        ck = *from;
    out.summary = resumeAnnualCampaign(spec, opts, ck);
    if (opts.obs)
        static_cast<obs::ObsDeltas &>(ck).merge(opts.obs->deltas());
    out.executedTrials = out.summary.trials - ck.trials;
    static_cast<CampaignAggregate &>(ck) = out.summary;
    ck.spec = shardOf(opts.seed, ck.trials, 0, 1);
    ck.build = buildId();
    return out;
}

} // namespace bpsim
