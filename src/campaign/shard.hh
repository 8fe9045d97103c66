/**
 * @file
 * Distributed campaign sharding: split one annual campaign's trial
 * range [0, N) into contiguous shards, run each shard independently
 * (on separate machines — `Rng::stream(seed, id)` needs no
 * cross-shard coordination), export a self-describing per-shard
 * aggregate file, and merge the shard files back into campaign
 * aggregates. A campaign checkpoint is the shard file of its trials
 * [0, K) (campaign/checkpoint.hh).
 *
 * The merge invariant (asserted by the `shard`-labeled ctests):
 * count, mean, min/max, variance-derived CI half-widths and the
 * Wilson loss-free interval of the merged campaign are bit-identical
 * for ANY shard count and merge order — counts are integers, sums are
 * ExactSum superaccumulators, and everything else is a deterministic
 * function of those. Quantiles come from merged t-digests and are
 * rank-accurate (≈0.5–1% of rank at δ=100) rather than bitwise.
 *
 * Early stop across shards: a campaign early-stop rule needs the
 * in-order trial prefix, which no single shard owns. Shards therefore
 * record cumulative prefixes of the downtime sums at a configurable
 * cadence; `evaluateEarlyStop` replays the merged in-order prefix at
 * those boundaries and at each shard's end, and reports where a
 * single-machine coordinator would have stopped. See docs/CAMPAIGN.md
 * "Sharding".
 */

#ifndef BPSIM_CAMPAIGN_SHARD_HH
#define BPSIM_CAMPAIGN_SHARD_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/exact_sum.hh"
#include "obs/context.hh"

namespace bpsim
{

/** Version stamped into every shard file; bump on format changes. */
constexpr int kShardSchemaVersion = 2;
/** Schema identifier stamped into every shard file. */
constexpr const char *kShardSchemaName = "bpsim.campaign.shard";

/** Identity of one shard within a larger campaign. */
struct ShardSpec
{
    /** Campaign seed; trial t draws from Rng::stream(seed, t). */
    std::uint64_t seed = 1;
    /** Total campaign size N (the union of all shards). */
    std::uint64_t campaignTrials = 0;
    /** This shard's global trial range [lo, hi). */
    std::uint64_t lo = 0, hi = 0;
    /** Position within the partition (informational). */
    std::uint64_t shardIndex = 0, shardCount = 1;

    std::uint64_t width() const { return hi - lo; }
};

/**
 * The @p index-th of @p count balanced contiguous shards of a
 * @p trials-trial campaign (the first `trials % count` shards get one
 * extra trial).
 */
ShardSpec shardOf(std::uint64_t seed, std::uint64_t trials,
                  std::uint64_t index, std::uint64_t count);

/**
 * Cumulative prefix snapshot of the early-stop metric (downtime
 * min/yr) after the first @p trials trials *of this shard*.
 */
struct ShardCheckpoint
{
    std::uint64_t trials = 0;
    ExactSum sum, sumSq;
};

/** Aggregates of one executed shard (or checkpoint). */
struct ShardResult : CampaignAggregate, obs::ObsDeltas
{
    ShardSpec spec;

    /**
     * Early-stop bookkeeping: cumulative downtime prefixes at the
     * checkpointEvery cadence. The shard end is implicit (its prefix
     * is the downtimeMin aggregate itself), so a cadence point never
     * lands on it.
     */
    std::vector<ShardCheckpoint> checkpoints;

    /** Build id of the producing binary (git describe). */
    std::string build;
    /** Wall-clock time (informational; not written to the file). */
    double wallSeconds = 0.0;
};

/** Execution knobs for one shard run. */
struct ShardOptions
{
    /** Worker threads (0 = shared hardware-sized pool). */
    int threads = 0;
    /**
     * Record a prefix every this many trials (0 = shard end only).
     * Cadence 1 reproduces the single-machine early-stop rule
     * exactly; coarser cadences trade file size for stop granularity.
     */
    std::uint64_t checkpointEvery = 0;
    /**
     * Trials per batched-kernel lane batch (0 = scalar per-trial
     * path). Routes the scenario overload through
     * campaign/batch_kernel; shard files stay byte-identical for any
     * batch size. Ignored by the custom-trial-body overload.
     */
    std::uint64_t batch = 0;
    /**
     * Record the shard's trials into this context (null = record
     * nothing); its deltas become the shard file's obs members.
     */
    obs::Context *obs = nullptr;
};

/**
 * Run one shard of a campaign with a custom trial body. The body sees
 * GLOBAL trial ids (spec.lo .. spec.hi-1) and the same
 * Rng::stream(seed, id) streams as an unsharded run; results are
 * folded in trial order, so the shard aggregates are bit-identical
 * for any thread count. Shards never stop early — the stop rule is
 * the merging coordinator's call.
 */
ShardResult runAnnualShard(const AnnualTrialFn &trial,
                           const ShardSpec &spec,
                           const ShardOptions &opts = {});

/** Run one shard of the standard scenario campaign. */
ShardResult runAnnualShard(const AnnualCampaignSpec &scenario,
                           const ShardSpec &spec,
                           const ShardOptions &opts = {});

/**
 * Write the self-describing shard file (schema v2): the exact state
 * of every metric — t-digests unflushed — so a file read back and
 * extended is bit-identical to a shard that never left memory.
 */
void writeShardJson(std::ostream &os, const ShardResult &shard);

/**
 * Parse a shard file. Returns nullopt (with a reason in @p error) on
 * a schema mismatch and on any malformed, truncated or inconsistent
 * input — never asserts — so a coordinator or a disk cache can reject
 * foreign and corrupt files gracefully.
 */
std::optional<ShardResult> readShardJson(const std::string &text,
                                         std::string *error = nullptr);

/** readShardJson over the contents of @p path. */
std::optional<ShardResult> readShardFile(const std::string &path,
                                         std::string *error = nullptr);

/**
 * Replay the early-stop rule over the merged in-order prefix of
 * @p shards (which must be sorted, contiguous from trial 0). The rule
 * is evaluated at every recorded prefix and at every shard end; with
 * checkpointEvery == 1 this is exactly the single-machine rule, and
 * the decision is bit-identical for any sharding of the same campaign
 * whose prefix boundaries align.
 */
EarlyStopDecision evaluateEarlyStop(const std::vector<ShardResult> &shards,
                                    const EarlyStopRule &rule);

/** Merged aggregates of a complete campaign. */
struct MergedCampaign : CampaignAggregate, obs::ObsDeltas
{
    std::uint64_t seed = 0;
    std::uint64_t shardCount = 0;

    /** Loss-free fraction with its Wilson interval. */
    BinomialCi lossFree;

    /** Stop-rule replay (all-zero when no rule was supplied). */
    EarlyStopDecision earlyStop;
};

/**
 * Merge shard results into campaign aggregates. Shards are sorted by
 * trial range and validated: same seed, same campaign size, and
 * exactly contiguous coverage of [0, campaignTrials) — gaps, overlaps
 * and foreign shards yield nullopt with a reason in @p error. When
 * @p rule is non-null, the early-stop replay runs over the merged
 * prefix (see evaluateEarlyStop).
 */
std::optional<MergedCampaign>
mergeShards(std::vector<ShardResult> shards,
            const EarlyStopRule *rule = nullptr,
            std::string *error = nullptr);

/** JSON export of the merged campaign (one object). */
void writeMergedJson(std::ostream &os, const MergedCampaign &m);

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_SHARD_HH
