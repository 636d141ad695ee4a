/**
 * @file
 * The array coordinator: one query plane over N SsdNodes.
 *
 * DeepStore's paper evaluates a single SSD; the coordinator scales
 * the same map-reduce idea one level up (ROADMAP scale-out item).
 * It owns the member nodes and the host fabric, and runs the
 * scatter/merge half of each query over the ShardMap (contiguous
 * feature chunks, one shard per node, with an optional replication
 * factor R). Background scrub and repair live in ArrayMaintenance,
 * which the coordinator drives only at construction, node death and
 * power loss:
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

#include "core/array_maintenance.h"
#include "core/shard_map.h"
#include "core/ssd_node.h"
#include "sim/bandwidth.h"

namespace deepstore::core {

/** Scheduled whole-drive failure (deterministic, like every fault).
 *  `atTick` must be > 0; a death at construction is killNode(). */
struct ArrayNodeDeath
{
    std::uint32_t node = 0;
    Tick atTick = 0;
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

    std::uint32_t aliveCount() const { return map_.aliveCount(); }
    std::uint32_t replication() const { return map_.replication(); }

    /** Lowest-index alive node (0 when every node is dead). */
    std::uint32_t firstAliveNode() const
    {
        const auto alive = map_.aliveNodes();
        return alive.empty() ? 0 : alive.front();
    }

    SsdNode &node(std::uint32_t i) { return *nodes_.at(i); }
    const SsdNode &node(std::uint32_t i) const
    {
        return *nodes_.at(i);
    }

    /** Where every database's shards live (striping, append growth,
     *  overlap walk, durable form). */
    ShardMap &shardMap() { return map_; }
    const ShardMap &shardMap() const { return map_; }

    /** Background scrub and repair. */
    const ArrayMaintenance &maintenance() const { return maintenance_; }

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

    // ---- lifecycle -----------------------------------------------

    /** Torn/corrupt superblock replicas seen during recovery. */
    std::uint64_t tornSuperblocks() const { return tornSuperblocks_; }
    void noteTornSuperblock() { ++tornSuperblocks_; }

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
        std::uint64_t totalFeatures = 0;
        std::uint64_t coveredFeatures = 0;
        std::uint64_t lostFeatures = 0;
        std::uint64_t scatterBytes = 0;
        std::uint64_t mergeBytes = 0;
        SubBuilder builder;
        DoneFn done;
        std::vector<SubState> subs;
        std::size_t outstanding = 0;
        std::uint64_t nextSubSeq = 1;
        /** Bumped on power loss to invalidate pending fabric
         *  events. */
        std::uint64_t gen = 0;
        /** Accumulated as sub-queries run; completed and handed to
         *  `done` at finalize. */
        ArrayQueryStats stats;
        /** Per participating node: nocWaitTicks at first use. */
        std::vector<std::pair<std::uint32_t, Tick>> nocBase;
        /** Worst sub-query outcome so far (QueryOutcome is declared
         *  in precedence order). */
        QueryOutcome worst = QueryOutcome::Success;
        bool finished = false;
    };

    /** Register a new in-flight aggregate (fatal on a reused id). */
    AggQuery &openAgg(std::uint64_t query_id, DoneFn done);
    /** Append the state of a sub-query on `t` to agg.subs; returns
     *  its index. `tried` are the nodes earlier attempts used. */
    std::size_t openSub(AggQuery &agg, const SubTarget &t,
                        std::uint64_t sub_id, std::uint32_t retries,
                        std::vector<std::uint32_t> tried);
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

    sim::EventQueue &events_;
    ArrayConfig config_;
    ShardMap::Nodes nodes_;
    sim::BandwidthLink fabric_;
    StatGroup arrayStats_;
    ShardMap map_;
    ArrayMaintenance maintenance_;
    std::map<std::uint64_t, AggQuery> aggs_;
    std::size_t inFlight_ = 0;
    bool inPowerLoss_ = false;
    std::uint64_t tornSuperblocks_ = 0;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_ARRAY_COORDINATOR_H
