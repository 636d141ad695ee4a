/**
 * @file
 * The array coordinator: one query plane over N SsdNodes.
 *
 * DeepStore's paper evaluates a single SSD; the coordinator scales
 * the same map-reduce idea one level up (ROADMAP scale-out item).
 * It owns the member nodes, stripes every feature database across
 * them at ingest (contiguous feature chunks, one shard per node,
 * with an optional replication factor R), and runs the scatter/merge
 * half of each query:
 *
 *     host/NoC fabric (BandwidthLink)
 *   ┌────────────┬────────────┬────────────┐
 *   │  node 0    │  node 1    │  node N-1  │
 *   │  shard 0   │  shard 1   │  shard N-1 │   scatter: sub-query
 *   │  (+replica)│  (+replica)│  (+replica)│   per shard, qfv bytes
 *   └────────────┴────────────┴────────────┘   over the fabric
 *          └─ per-node top-K ─┘                merge: k results per
 *                merge at the home node        remote node
 *
 * Every sub-query is a normal QuerySubmission on the owning node's
 * QueryScheduler; the coordinator's own work — remote dispatch and
 * candidate-set return — is billed on the shared host-fabric
 * BandwidthLink with the same deterministic FCFS accounting as every
 * other link in the simulator.
 *
 * Whole-drive failure generalizes the PR 3/PR 5 shard-recovery
 * machine: a killed node fails its in-flight sub-queries (honest
 * partial coverage), and the coordinator re-stripes each remainder
 * onto the shard's first alive replica with a fresh sub-query id.
 * Shards with no surviving replica are lost and the query completes
 * Degraded with a deterministic coverageFraction.
 *
 * Single-node arrays take a zero-overhead path by construction: one
 * shard, one sub-query whose id equals the engine's query id,
 * submitted synchronously with no fabric events — tick-identical to
 * the pre-array engine (pinned by tests/core/test_array.cc).
 */

#ifndef DEEPSTORE_CORE_ARRAY_COORDINATOR_H
#define DEEPSTORE_CORE_ARRAY_COORDINATOR_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "core/ssd_node.h"
#include "sim/bandwidth.h"

namespace deepstore::core {

/** Scheduled whole-drive failure (deterministic, like every fault). */
struct ArrayNodeDeath
{
    std::uint32_t node = 0;
    Tick atTick = 0;
};

/**
 * Background scrub: a deterministic, rate-limited scanner that walks
 * every bound shard placement page by page with verifying flash reads
 * (real FlashCommands on the per-channel buses, contending with
 * foreground scans), surfacing latent uncorrectable pages before a
 * query hits them. Disabled by default: a default config schedules
 * zero events and leaves every run tick-identical.
 */
struct ScrubConfig
{
    bool enabled = false;
    /** Rate cap: verifying reads issued per simulated second. */
    double pagesPerSecond = 2000.0;
    /** Delay before the first batch. */
    double startDelaySeconds = 1e-3;
    /** Full passes over the bound placements (0 = scrub forever).
     *  Bounded by default so simulations terminate. */
    std::uint32_t passes = 1;
};

/**
 * Repair engine: re-replicates under-replicated shards onto alive
 * nodes when a drive dies, and rewrites scrub-found bad pages from a
 * surviving replica. Repair traffic crosses the shared host fabric
 * behind a configurable bandwidth cap, so it contends honestly with
 * query scatter/merge legs. Disabled by default.
 */
struct RepairConfig
{
    bool enabled = false;
    /** Pacing cap on repair traffic entering the fabric, bytes/s. */
    double bandwidthBytesPerSecond = 1.6e9;
};

/** Typed result of a kill request (no UB on bad indices). */
enum class KillNodeResult
{
    Killed,      ///< the node was alive and is now dead
    AlreadyDead, ///< idempotent no-op
    InvalidNode, ///< index out of range; nothing happened
};

const char *toString(KillNodeResult r);

/** Array topology configuration. */
struct ArrayConfig
{
    /** Per-node flash geometries (heterogeneous allowed; each node's
     *  FlashParams carries its own fault schedule). Empty = a
     *  single node using the engine's top-level flash config — the
     *  pre-array behavior. */
    std::vector<ssd::FlashParams> nodes;

    /** Copies of every shard (1 = no replication). Effective factor
     *  is capped at the node count; replicas land on distinct
     *  nodes. */
    std::uint32_t replication = 1;

    /** Host/NoC fabric bandwidth between the coordinator and the
     *  nodes (scatter descriptors + merged candidate sets). */
    double hostFabricBandwidth = 12.8e9;

    /** Scheduled whole-drive failures. */
    std::vector<ArrayNodeDeath> nodeDeaths;

    /** Background media scrub (off by default). */
    ScrubConfig scrub;

    /** Self-healing re-replication (off by default). */
    RepairConfig repair;
};

/** One page run an ingest must write (per shard placement). */
struct IngestPart
{
    std::uint32_t shard = 0;
    std::uint32_t node = 0;
    std::uint64_t lpnStart = 0;
    std::uint64_t pages = 0;
    bool primary = true;
};

/** One page run a readDB must fetch. */
struct ReadSegment
{
    std::uint32_t node = 0;
    std::uint64_t lpnStart = 0;
    std::uint64_t pages = 0;
};

/** One per-node sub-query the scatter stage creates. */
struct SubTarget
{
    std::uint32_t shard = 0;
    std::uint32_t node = 0;
    /** Node-local view of the shard (startLpn/startPpn local to the
     *  placement; numFeatures = shard features). */
    DbMetadata localMd;
    /** Sub-range within the shard, in shard-local feature coords. */
    std::uint64_t localStart = 0;
    std::uint64_t localEnd = 0;
    /** True for the first sub-query (runs the QC probe, pays no
     *  fabric scatter). */
    bool home = false;
};

/** Aggregated execution metrics of one array query, handed to the
 *  engine's finalize. */
struct ArrayQueryStats
{
    QueryOutcome outcome = QueryOutcome::Success;
    double coverageFraction = 1.0;
    Tick submitTick = 0;
    Tick completeTick = 0;
    /** Summed over sub-queries. */
    QueryRunStats run;
    /** Channel-bus wait accrued on participating nodes while the
     *  query was in flight. */
    Tick nocWaitTicks = 0;
    /** Host-fabric wait + transfer of the merge legs. */
    Tick mergeTicks = 0;
    /** Bytes this query moved over the host fabric (scatter +
     *  merge + re-dispatch). */
    std::uint64_t interNodeBytes = 0;
    std::uint32_t nodesParticipating = 1;
    std::uint32_t redispatches = 0;
};

/** The scatter/merge query plane over N nodes (see file comment). */
class ArrayCoordinator
{
  public:
    /** Builds a QuerySubmission for one sub-target (no finalize —
     *  the coordinator owns completion). */
    using SubBuilder = std::function<QuerySubmission(
        const SubTarget &, std::uint64_t sub_id)>;
    using DoneFn = std::function<void(const ArrayQueryStats &)>;

    /** `base` supplies the shared recovery knobs; `base.flash` is
     *  the node geometry when `array.nodes` is empty. */
    ArrayCoordinator(sim::EventQueue &events, ArrayConfig array,
                     SsdNodeConfig base);

    ArrayCoordinator(const ArrayCoordinator &) = delete;
    ArrayCoordinator &operator=(const ArrayCoordinator &) = delete;

    // ---- topology ------------------------------------------------

    std::uint32_t nodeCount() const
    {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    std::uint32_t aliveCount() const;
    std::uint32_t replication() const { return config_.replication; }

    SsdNode &node(std::uint32_t i) { return *nodes_.at(i); }
    const SsdNode &node(std::uint32_t i) const
    {
        return *nodes_.at(i);
    }

    sim::BandwidthLink &fabric() { return fabric_; }

    // ---- ingest (striping + replication) -------------------------

    /** Allocate page runs for a new database: one contiguous feature
     *  chunk per alive node, each chunk placed on its primary plus
     *  R-1 replica nodes. */
    std::vector<IngestPart> stripeDb(std::uint64_t feature_bytes,
                                     std::uint64_t count);

    /** Register the shard map once the parts have been written
     *  (capturing each placement's write-time start PPN, like the
     *  single-SSD engine did). */
    void bindDb(std::uint64_t db_id, std::uint64_t feature_bytes,
                std::uint64_t count,
                const std::vector<IngestPart> &parts);

    /** Grow the database's last shard by `extra` features; returns
     *  the whole new pages to program (may be empty). fatal() when
     *  a placement is not at the top of its node's LPN space (same
     *  buffered-append contract as the single-SSD engine). */
    std::vector<IngestPart> growDb(std::uint64_t db_id,
                                   std::uint64_t extra);

    /** Page runs covering features [start, start+num), read from
     *  each shard's first alive placement. */
    std::vector<ReadSegment> readSegments(std::uint64_t db_id,
                                          std::uint64_t start,
                                          std::uint64_t num) const;

    std::uint32_t shardCount(std::uint64_t db_id) const;

    /** Node that runs the query's probe/merge work: first alive
     *  placement of the shard holding `db_start` (first alive node
     *  when that shard has no survivors). */
    std::uint32_t homeNodeFor(std::uint64_t db_id,
                              std::uint64_t db_start) const;

    /** The sub-target scatter() would make home for this range: the
     *  first overlapping shard with an alive placement (nullopt when
     *  every overlapping shard is lost). The cache-hit path uses it
     *  to build its one submission without scattering. */
    std::optional<SubTarget> homeTarget(std::uint64_t db_id,
                                        std::uint64_t db_start,
                                        std::uint64_t db_end) const;

    // ---- query plane ---------------------------------------------

    /**
     * Scatter a query over [db_start, db_end): one sub-query per
     * participating shard, built by `builder`. The home sub-query
     * submits synchronously; remote sub-queries pay `scatter_bytes`
     * on the fabric first, and their results pay `merge_bytes` back.
     * `done` runs exactly once, at the aggregate completion tick.
     */
    void scatter(std::uint64_t query_id, std::uint64_t db_id,
                 std::uint64_t db_start, std::uint64_t db_end,
                 std::uint64_t scatter_bytes,
                 std::uint64_t merge_bytes, const SubBuilder &builder,
                 DoneFn done);

    /** Single-node fast path (cache hits): submit `sub` on `node_i`
     *  with sub-id == query id and aggregate it alone. */
    void submitSingle(std::uint64_t query_id, std::uint32_t node_i,
                      QuerySubmission sub, DoneFn done);

    /** Cancel an in-flight array query (false for unknown or
     *  already-terminal ids). */
    bool cancel(std::uint64_t query_id);

    /** Aggregate state: the home sub-query's state while scanning,
     *  Reduce while merges are in flight, terminal after. */
    std::optional<QueryState> state(std::uint64_t query_id) const;

    std::size_t inFlight() const { return inFlight_; }

    // ---- durable shard map ---------------------------------------

    /**
     * Serialize the shard map (every db's shards, placements, and
     * each node's allocator high-water mark) for the replicated
     * superblock image. Round-trips exactly through
     * restoreShardMap().
     */
    std::vector<std::uint8_t> serializeShardMap() const;

    /**
     * Replace the shard map with a serialized image (power-loss
     * recovery). Node allocator marks restore monotonically
     * (max(current, stored)) so an older epoch never un-allocates
     * pages the device already handed out. fatal() on a malformed
     * blob — callers validate the superblock checksum first.
     */
    void restoreShardMap(const std::vector<std::uint8_t> &blob);

    // ---- scrub / repair ------------------------------------------

    std::uint64_t scrubPagesScanned() const
    {
        return scrubPagesScanned_;
    }
    std::uint64_t scrubUncorrectableFound() const
    {
        return scrubUncorrectableFound_;
    }
    std::uint64_t scrubLatentRepaired() const
    {
        return scrubLatentRepaired_;
    }
    std::uint64_t scrubPassesCompleted() const
    {
        return scrubPassesCompleted_;
    }
    std::uint64_t repairShardsRepaired() const
    {
        return repairShardsRepaired_;
    }
    std::uint64_t repairPagesCopied() const
    {
        return repairPagesCopied_;
    }
    std::uint64_t repairBytesOverFabric() const
    {
        return repairBytesOverFabric_;
    }
    /** True when no repair task is queued or copying. */
    bool repairIdle() const
    {
        return !repairActive_ && repairQueue_.empty();
    }
    /** Tick the array last returned to full replication (0 when
     *  repair never ran to completion). */
    Tick lastRepairCompleteTick() const
    {
        return lastRepairCompleteTick_;
    }
    /** Per-node ArrayInfo rows. */
    std::uint64_t scrubPagesScannedOn(std::uint32_t node_i) const
    {
        return scrubScannedPerNode_.at(node_i);
    }
    std::uint64_t repairPagesCopiedTo(std::uint32_t node_i) const
    {
        return repairPagesPerNode_.at(node_i);
    }

    /** Torn/corrupt superblock replicas seen during recovery. */
    std::uint64_t tornSuperblocks() const { return tornSuperblocks_; }
    void noteTornSuperblock();

    /** Scan for under-replicated shards and queue repair copies (a
     *  no-op unless the repair engine is enabled). Runs
     *  automatically on node death; recovery calls it again after a
     *  power loss interrupted active repairs. */
    void scheduleRepairScan();

    // ---- lifecycle -----------------------------------------------

    /** Whole-drive failure at the current tick. Idempotent
     *  (AlreadyDead) and range-checked (InvalidNode). */
    KillNodeResult killNode(std::uint32_t node_i);

    /** Whole-array power loss: fail every in-flight sub-query and
     *  pending merge at the current tick (aggregates finalize with
     *  outcome PowerLoss), then drop every node's volatile device
     *  state and reset the fabric. */
    void powerLoss();

    /** Array counters + fabric stats + per-node stat groups (node 0
     *  unprefixed for continuity with the single-SSD dump; node i>0
     *  prefixed `node<i>.`). */
    void dumpStats(std::ostream &os);

  private:
    /** One placement (copy) of a shard. */
    struct ShardPlacement
    {
        std::uint32_t node = 0;
        std::uint64_t lpnStart = 0;
        std::uint64_t startPpn = 0; ///< captured at write time
    };

    /** One contiguous feature chunk of a database. */
    struct DbShard
    {
        std::uint64_t startFeature = 0;
        std::uint64_t numFeatures = 0;
        std::vector<ShardPlacement> placements; ///< [0] = primary
    };

    struct DbInfo
    {
        std::uint64_t featureBytes = 0;
        std::vector<DbShard> shards;
    };

    /** Coordinator-side state of one sub-query. */
    struct SubState
    {
        std::uint32_t shard = 0;
        std::uint32_t node = 0;
        std::uint64_t subId = 0;
        std::uint64_t localStart = 0;
        std::uint64_t localEnd = 0;
        bool submitted = false;
        bool terminal = false;
        std::uint32_t retries = 0;
        std::vector<std::uint32_t> triedNodes;
    };

    /** One in-flight (or terminal) array query. */
    struct AggQuery
    {
        std::uint64_t queryId = 0;
        std::uint64_t dbId = 0;
        Tick submitTick = 0;
        Tick completeTick = 0;
        std::uint64_t totalFeatures = 0;
        std::uint64_t coveredFeatures = 0;
        std::uint64_t lostFeatures = 0;
        std::uint64_t scatterBytes = 0;
        std::uint64_t mergeBytes = 0;
        std::uint32_t homeNode = 0;
        SubBuilder builder;
        DoneFn done;
        std::vector<SubState> subs;
        std::size_t outstanding = 0;
        std::uint64_t nextSubSeq = 1;
        /** Bumped on power loss to invalidate pending fabric
         *  events. */
        std::uint64_t gen = 0;
        QueryRunStats run;
        Tick mergeTicks = 0;
        std::uint64_t interNodeBytes = 0;
        std::uint32_t redispatches = 0;
        /** Per participating node: nocWaitTicks at first use. */
        std::vector<std::pair<std::uint32_t, Tick>> nocBase;
        int worstRank = 0;
        bool finished = false;
        QueryOutcome terminalOutcome = QueryOutcome::Success;
    };

    /** One contiguous page run the scrub pass must verify. */
    struct ScrubRun
    {
        std::uint64_t dbId = 0;
        std::uint32_t shard = 0;
        std::uint32_t node = 0;
        std::uint64_t lpnStart = 0;
        std::uint64_t pages = 0;
    };

    /** One queued shard re-replication. */
    struct RepairTask
    {
        std::uint64_t dbId = 0;
        std::uint32_t shard = 0;
        std::uint32_t srcNode = 0;
        std::uint64_t srcLpnStart = 0;
        std::uint64_t srcPages = 0;
        std::uint32_t destNode = 0;
        std::uint64_t destLpnStart = 0;
        std::uint64_t destPages = 0;
        /** Next destination page to copy. */
        std::uint64_t next = 0;
    };

    // ---- scrub engine --------------------------------------------
    void startScrub();
    void scrubBatch();
    void buildScrubRuns();
    /** Scrub found an uncorrectable page: rewrite it from an alive
     *  replica when one exists. */
    void repairPage(const ScrubRun &run, std::uint64_t lpn);

    // ---- repair engine -------------------------------------------
    void repairScan();
    void repairBatch();
    void finishRepairTask();
    /** Pace `bytes` of repair traffic through the cap, then the
     *  shared fabric; returns the arrival tick. */
    Tick repairTransfer(Tick ready, std::uint64_t bytes);

    std::uint64_t composeSubId(std::uint64_t query_id,
                               std::uint64_t seq) const;
    void trackNode(AggQuery &agg, std::uint32_t node_i);
    void submitSub(AggQuery &agg, std::size_t idx,
                   QuerySubmission sub);
    /** Ship subs[idx]'s descriptor over the host fabric, then submit
     *  it on its node (or fail over if the node died meanwhile). */
    void dispatchRemote(AggQuery &agg, std::size_t idx,
                        QuerySubmission sub);
    void onSubTerminal(std::uint64_t query_id, std::size_t idx);
    /** Dead-node failover: true when a replacement sub-query was
     *  dispatched for subs[idx]'s remainder. */
    bool tryRedispatch(AggQuery &agg, std::size_t idx,
                       std::uint64_t covered);
    void subArrived(AggQuery &agg);
    void finalizeAgg(AggQuery &agg);

    const DbInfo &dbInfo(std::uint64_t db_id) const;
    /** First alive placement index of `shard`, excluding `tried`;
     *  -1 when none survives. */
    int alivePlacement(const DbShard &shard,
                       const std::vector<std::uint32_t> &tried) const;
    DbMetadata localMetadata(std::uint64_t db_id, const DbInfo &info,
                             const DbShard &shard,
                             const ShardPlacement &pl) const;

    sim::EventQueue &events_;
    ArrayConfig config_;
    std::vector<std::unique_ptr<SsdNode>> nodes_;
    sim::BandwidthLink fabric_;
    StatGroup arrayStats_;
    std::map<std::uint64_t, DbInfo> dbs_;
    std::map<std::uint64_t, AggQuery> aggs_;
    std::size_t inFlight_ = 0;
    bool inPowerLoss_ = false;

    // ---- scrub state ---------------------------------------------
    std::vector<ScrubRun> scrubRuns_;
    std::size_t scrubRunIdx_ = 0;
    std::uint64_t scrubPageIdx_ = 0;
    /** Bumped on power loss: stale scrub wakeups become no-ops and
     *  the restarted pass reschedules under the new generation. */
    std::uint64_t scrubGen_ = 0;
    std::uint64_t scrubPagesScanned_ = 0;
    std::uint64_t scrubUncorrectableFound_ = 0;
    std::uint64_t scrubLatentRepaired_ = 0;
    std::uint64_t scrubPassesCompleted_ = 0;
    std::vector<std::uint64_t> scrubScannedPerNode_;

    // ---- repair state --------------------------------------------
    std::vector<RepairTask> repairQueue_;
    /** (dbId, shard) pairs with a queued or active copy. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>>
        repairPending_;
    bool repairActive_ = false;
    std::uint64_t repairGen_ = 0;
    Tick repairCapFreeAt_ = 0;
    std::uint64_t repairShardsRepaired_ = 0;
    std::uint64_t repairPagesCopied_ = 0;
    std::uint64_t repairBytesOverFabric_ = 0;
    Tick lastRepairCompleteTick_ = 0;
    std::vector<std::uint64_t> repairPagesPerNode_;

    std::uint64_t tornSuperblocks_ = 0;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_ARRAY_COORDINATOR_H
