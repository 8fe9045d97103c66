/**
 * @file
 * Campaign checkpoints for incremental trial reuse.
 *
 * A checkpoint is the shard file of a campaign's trials [0, K): the
 * exact in-order aggregate of those trials (ExactSum moments, t-digest
 * state written unflushed) plus the obs deltas they recorded (counters,
 * histogram buckets, incident aggregate). Resuming from it and running
 * trials [K, M) yields a summary — and a checkpoint — bit-identical to
 * a fresh M-trial run, for any batch size and thread count on either
 * side of the boundary. That invariant is what lets the what-if server
 * answer an M-trial query by extending a cached K-trial campaign
 * instead of recomputing it from scratch (see docs/SERVICE.md
 * "Incremental trial reuse"), and what lets a checkpoint merge with a
 * shard [K, N) like any other shard.
 *
 * The budget and the early-stop outcome are not part of a checkpoint:
 * resume re-derives the stop from the aggregate at the boundary.
 *
 * Checkpoints are read back from disk caches that may be truncated,
 * bit-flipped, or written by another build, so readCheckpointJson() is
 * the defensive shard reader plus the [0, K) check. A checkpoint also
 * embeds the producing buildId(); loaders treat a foreign build as a
 * miss, since floating-point trajectories are only promised bit-stable
 * within one binary.
 */

#ifndef BPSIM_CAMPAIGN_CHECKPOINT_HH
#define BPSIM_CAMPAIGN_CHECKPOINT_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "campaign/shard.hh"

namespace bpsim
{

/** A checkpoint: the shard [0, trials) of its own trials-trial campaign. */
using CampaignCheckpoint = ShardResult;

/** What one resumable campaign execution produced. */
struct ResumableOutcome
{
    /** The full campaign aggregate (identical to a fresh run). */
    AnnualCampaignSummary summary;
    /** State at the new boundary, ready to extend again or persist. */
    CampaignCheckpoint checkpoint;
    /** Trials actually simulated by this call (0 on a pure replay). */
    std::uint64_t executedTrials = 0;
};

/**
 * Run the scenario campaign — fresh when @p from is null, otherwise
 * extending the checkpointed state through trials
 * [from->trials, opts.maxTrials). When opts.obs records the run, the
 * returned checkpoint carries the obs deltas of the whole logical
 * campaign (this run's folded trials merged with @p from's). @p from
 * must come from the same (spec, seed, stop rule) with
 * from->trials <= opts.maxTrials.
 */
ResumableOutcome runResumableCampaign(const AnnualCampaignSpec &spec,
                                      const AnnualCampaignOptions &opts,
                                      const CampaignCheckpoint *from = nullptr);

/** Emit one checkpoint: its shard file. */
inline void
writeCheckpointJson(std::ostream &os, const CampaignCheckpoint &c)
{
    writeShardJson(os, c);
}

/**
 * Parse a checkpoint: readShardJson, and the shard must start at
 * trial 0. Returns nullopt — with a reason in @p error when wired — on
 * anything malformed. Never asserts on untrusted input.
 */
std::optional<CampaignCheckpoint>
readCheckpointJson(const std::string &text, std::string *error = nullptr);

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_CHECKPOINT_HH
