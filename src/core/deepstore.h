/**
 * @file
 * The DeepStore runtime system: the query engine that runs on the
 * SSD's embedded cores (§4.7.1) plus the host-facing programming API
 * (§4.7.2, Table 2).
 *
 * The engine owns the simulated SSD array (one or more SsdNodes
 * behind an ArrayCoordinator), the database metadata table, the
 * loaded SCN/QCN models, and the Query Cache. Queries execute
 * functionally (real similarity scores, real top-K) against the
 * database's feature extents, while latency comes from the
 * event-native datapath: flash pages stream through real FlashCommand
 * reads, compute replays the systolic slot schedule on per-unit
 * arbiters, weights/probes/reduces arbitrate on each node's DRAM
 * link, and multi-node scatter/merge legs on the shared host fabric.
 * The analytic steady-state model (DeepStoreModel) survives as the
 * cross-validator the parity tests hold the live path to.
 *
 * The query path is **asynchronous**: query() validates, probes the
 * Query Cache, hands the scheduler a timed submission, and returns a
 * query id immediately. Multiple queries stay in flight, time-sharing
 * the accelerator complex; completions surface through poll()/
 * onComplete()/drain(). querySync() is the blocking shim for callers
 * that want the old one-shot semantics. All simulated-time accounting
 * is owned by the TimeLedger (simulated time == event-queue tick).
 */

#ifndef DEEPSTORE_CORE_DEEPSTORE_H
#define DEEPSTORE_CORE_DEEPSTORE_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/array_coordinator.h"
#include "core/feature_source.h"
#include "core/metadata.h"
#include "core/placement.h"
#include "core/query_cache.h"
#include "core/query_model.h"
#include "core/query_scheduler.h"
#include "core/time_ledger.h"
#include "core/topk.h"
#include "nn/executor.h"
#include "nn/serialize.h"
#include "sim/event_queue.h"

namespace deepstore::core {

/** Construction-time configuration. */
struct DeepStoreConfig
{
    ssd::FlashParams flash;
    /** Default accelerator level for queries (channel level is the
     *  paper's recommended design). */
    Level defaultLevel = Level::ChannelLevel;

    // ---- fault tolerance -----------------------------------------
    // The flash fault schedule itself lives in flash.faults (every
    // fault decision is a pure function of its seed); these knobs
    // tune the recovery machinery layered on top.

    /** Per-accelerator shard residency (the interleaving degree of
     *  the async scheduler), shard watchdog and re-striping budget;
     *  every array node's scheduler runs with these. */
    ShardRecoveryConfig recovery;
    /** Bounded reissue budget for an uncorrectable page read. */
    std::uint32_t maxPageRetries = 2;

    // ---- array topology ------------------------------------------

    /** Multi-SSD array layout. The default (array.nodes empty) is a
     *  single node built from `flash` — behaviorally and
     *  tick-identical to the pre-array engine. Populating
     *  array.nodes stripes every database across the member drives
     *  and scatters every query into per-node sub-queries. */
    ArrayConfig array;
};

/** Completed query: results plus simulated execution metrics. */
struct QueryResult
{
    std::uint64_t queryId = 0;
    std::vector<ScoredResult> topK;
    /** Completion tick - submit tick (queueing included). */
    double latencySeconds = 0.0;
    bool cacheHit = false;
    std::uint64_t featuresScanned = 0;
    /** Scheduled Query Cache probe duration (0 without a cache). */
    double qcProbeSeconds = 0.0;
    /** Time this query's scan groups stalled compute (flash
     *  starvation + weight-stream waits). */
    double computeStallSeconds = 0.0;
    /** Time this query's DFV streams sat fully delivered, blocked
     *  on compute (bounded-queue backpressure). */
    double backpressureSeconds = 0.0;
    /** Channel-bus arbitration wait accrued device-wide while this
     *  query was in flight (shared NoC contention signal; overlaps
     *  with concurrent queries' waits). */
    double nocWaitSeconds = 0.0;
    /** Why the query terminated (Success on the happy path). */
    QueryOutcome outcome = QueryOutcome::Success;
    /** Features actually scanned / features requested, in [0, 1];
     *  1.0 for full-coverage completions. */
    double coverageFraction = 1.0;
    /** Host-fabric wait + transfer of the per-node top-K merge legs
     *  (0 on a single-node array). */
    double mergeSeconds = 0.0;
    /** Bytes this query moved over the array's host fabric (scatter
     *  descriptors + merge candidate sets + failover re-dispatch). */
    std::uint64_t interNodeBytes = 0;
    /** Array nodes that ran sub-queries for this query. */
    std::uint32_t nodesParticipating = 1;
    /** Whole-node failover re-dispatches this query absorbed. */
    std::uint32_t redispatches = 0;
};

/** Non-fatal getResults outcome (see DeepStore::tryGetResults). */
enum class FetchStatus
{
    Ready,    ///< terminal; `result` points at the QueryResult
    InFlight, ///< known but not yet terminal — retry later
    Unknown,  ///< no such query id
};

/** tryGetResults return value: a typed, retryable outcome mirroring
 *  the NVMe front end's InProgress semantics. */
struct FetchResult
{
    FetchStatus status = FetchStatus::Unknown;
    /** Valid only when status == Ready; owned by the engine. */
    const QueryResult *result = nullptr;
};

/** The DeepStore system (engine + API facade). */
class DeepStore
{
  public:
    explicit DeepStore(DeepStoreConfig config);

    // ---- Table 2 API ---------------------------------------------

    /**
     * writeDB: create a feature database from the given source
     * (stands in for "read num features from host memory at addr").
     * @return the new database's db_id.
     */
    std::uint64_t writeDB(std::shared_ptr<FeatureSource> source);

    /** appendDB: append the source's features to an existing db. */
    void appendDB(std::uint64_t db_id,
                  std::shared_ptr<FeatureSource> source);

    /** readDB: fetch `num` features starting at `start`. */
    std::vector<std::vector<float>> readDB(std::uint64_t db_id,
                                           std::uint64_t start,
                                           std::uint64_t num);

    /** readDB into a host buffer: the `num` features back to back. */
    void readDB(std::uint64_t db_id, std::uint64_t start,
                std::uint64_t num, std::vector<float> &out);

    /** loadModel: register a serialized model (ONNX-lite blob).
     *  @return the model_id. */
    std::uint64_t loadModel(const std::vector<std::uint8_t> &blob);

    /** loadModel overload for an already-parsed bundle. */
    std::uint64_t loadModel(nn::ModelBundle bundle);

    /**
     * setQC: configure the Query Cache with a loaded QCN model, an
     * error threshold, the QCN's published accuracy, and a capacity.
     */
    void setQC(std::uint64_t qcn_model_id, double threshold,
               double qcn_accuracy, std::size_t capacity);

    /**
     * query: **asynchronously submit** a query feature vector against
     * a database sub-range [db_start, db_end) with the given SCN
     * model and accelerator level. Validates and returns immediately;
     * the query executes in event-time, interleaved with other
     * in-flight queries.
     * @return a query_id for poll()/getResults().
     */
    std::uint64_t query(const std::vector<float> &qfv, std::size_t k,
                        std::uint64_t model_id, std::uint64_t db_id,
                        std::uint64_t db_start, std::uint64_t db_end,
                        std::optional<Level> level = std::nullopt,
                        double deadline_seconds = 0.0);

    /**
     * querySync: submit and block (in simulated time) until this
     * query completes — the pre-refactor one-query-at-a-time
     * behavior. @return the query_id (already Complete).
     */
    std::uint64_t
    querySync(const std::vector<float> &qfv, std::size_t k,
              std::uint64_t model_id, std::uint64_t db_id,
              std::uint64_t db_start, std::uint64_t db_end,
              std::optional<Level> level = std::nullopt);

    /** Current state of a query (nullopt for unknown ids). Does not
     *  advance simulated time. */
    std::optional<QueryState> poll(std::uint64_t query_id) const;

    /**
     * Cancel an in-flight query: it terminates immediately in the
     * Degraded state with outcome Aborted and partial coverage.
     * @return false for unknown or already-terminal queries.
     */
    bool cancel(std::uint64_t query_id);

    /** Run one simulator event. @return false when idle. */
    bool step();

    /** Advance simulated time until every in-flight query completes. */
    void drain();

    /** Advance simulated time until `query_id` completes. */
    void waitFor(std::uint64_t query_id);

    /** Queries submitted but not yet complete. */
    std::size_t inFlight() const { return array_->inFlight(); }

    /**
     * Register a completion callback for a query. Fires exactly once,
     * at the query's completion tick (immediately when it already
     * completed). Multiple callbacks per query are allowed and fire
     * in registration order.
     */
    void onComplete(std::uint64_t query_id,
                    std::function<void(const QueryResult &)> cb);

    /**
     * tryGetResults: non-blocking, non-fatal fetch. Returns Ready
     * with a pointer to the results once the query is terminal
     * (Complete *or* Degraded), InFlight while it is still running
     * (retry after advancing simulated time), and Unknown for ids
     * never submitted — consistent with the NVMe front end's
     * retryable InProgress status.
     */
    FetchResult tryGetResults(std::uint64_t query_id) const;

    /** getResults: retrieve (and keep) a terminal query's results.
     *  fatal() for unknown ids *and* for queries still in flight —
     *  use tryGetResults() for a non-fatal, retryable probe. */
    const QueryResult &getResults(std::uint64_t query_id) const;

    // ---- introspection -------------------------------------------

    const DbMetadata &databaseInfo(std::uint64_t db_id) const
    {
        return metadata_.lookup(db_id);
    }

    const DeepStoreModel &model() const { return model_; }
    sim::EventQueue &events() { return events_; }
    QueryCache *queryCache() { return queryCache_.get(); }

    /** The sharded multi-SSD array behind this engine (a 1-node
     *  array by default; there every query id is a node-0
     *  sub-query id). */
    ArrayCoordinator &array() { return *array_; }
    const ArrayCoordinator &array() const { return *array_; }

    /** Whole-drive failure of array node `i` at the current tick:
     *  its in-flight sub-queries fail over onto replicas and, with
     *  the repair engine enabled, its shards re-replicate onto
     *  survivors (see ArrayCoordinator::killNode). Idempotent
     *  (AlreadyDead) and range-checked (InvalidNode) — never UB. */
    KillNodeResult killNode(std::uint32_t node_i)
    {
        return array_->killNode(node_i);
    }

    // ---- host I/O passthroughs (NVMe front end) ------------------
    // Raw LPN reads/writes/trims against node 0, the array's
    // host-visible admin drive.

    void hostRead(std::uint64_t lpn_start, std::uint64_t count,
                  ssd::Completion on_complete);
    void hostWrite(std::uint64_t lpn_start, std::uint64_t count,
                   ssd::Completion on_complete);
    void hostTrim(std::uint64_t lpn_start, std::uint64_t count,
                  ssd::Completion on_complete);

    /** The simulated-time ledger (owner of all time accounting). */
    const TimeLedger &ledger() const { return ledger_; }

    /** Total simulated time so far — always the event-queue clock. */
    double simulatedSeconds() const { return ledger_.seconds(); }

    /** Dump engine counters and the SSD's statistics as text. */
    void dumpStats(std::ostream &os) const;

    /**
     * Persist the database metadata table into the reserved flash
     * block at the top of the LPN space (§4.4: "This metadata is
     * persisted in a reserved flash block, but will be cached in SSD
     * DRAM"). Since DESIGN.md §12 the persisted unit is a versioned,
     * checksummed superblock image — metadata table + the
     * coordinator's shard map under one epoch — replicated onto
     * *every* alive node through real per-page flash programs. A
     * power loss mid-flush leaves torn replicas (detected by
     * checksum on recovery) rather than a committed half-state.
     * @return pages written on node 0.
     */
    std::uint64_t persistMetadata();

    /**
     * Drop the DRAM-cached metadata table and reload it from the
     * reserved flash blocks (the power-loss recovery path): every
     * alive node's superblock replica is read back, torn or corrupt
     * copies are discarded by checksum, and the highest surviving
     * epoch wins — so recovery works from any surviving replica,
     * including after node-0 death. Restores both the metadata table
     * and the coordinator's shard map. Feature sources survive (they
     * model the flash contents themselves). fatal() if
     * persistMetadata() was never called, or when no intact replica
     * survives.
     */
    void reloadMetadata();

    /** Monotonic superblock epoch of the last persist (0 = never
     *  persisted). Recovery adopts the highest surviving epoch. */
    std::uint64_t metadataEpoch() const { return metadataEpoch_; }

    /**
     * Whole-device power loss at the current tick (also reachable by
     * schedule via `FaultConfig::powerLossAtTick`). In order:
     *
     *  1. every in-flight query terminates with outcome PowerLoss,
     *     its finalize running synchronously with honest partial
     *     coverage (the host's completion was never acknowledged, so
     *     partial results + DegradedSuccess on the wire are the
     *     truthful story);
     *  2. the SSD drops volatile state — background relocations
     *     abort crash-consistently, plane/bus reservations reset;
     *  3. the DRAM-cached metadata table is dropped and, when a
     *     persist exists, replayed from the reserved flash block
     *     (the first fault-path use of metadata persistence). With
     *     no persist the table is simply gone — exactly what the
     *     paper's reserved-block design exists to prevent.
     *
     * After recovery the engine accepts new work immediately.
     */
    void powerLoss();

  private:
    struct LoadedModel
    {
        nn::ModelBundle bundle;
        std::unique_ptr<nn::Executor> executor;
    };

    const LoadedModel &lookupModel(std::uint64_t model_id) const;

    /** Simulate writing `pages` pages on one array node and account
     *  the time on the ledger (event-driven below the page limit,
     *  closed-form above). */
    void writePagesTimedOn(SsdNode &node, std::uint64_t lpn_start,
                           std::uint64_t pages,
                           TimeComponent component);

    /** Run the event queue until `done` flips (a completion callback
     *  armed it); panic on a stalled simulation. */
    void stepUntil(const bool &done);

    /** Functional map-reduce scan: real scores, striped partial
     *  top-Ks, merged (§4.7.1). */
    std::vector<ScoredResult>
    scanTopK(const std::vector<float> &qfv, std::size_t k,
             const LoadedModel &m, const DbMetadata &db,
             std::uint64_t db_start, std::uint64_t db_end,
             std::uint32_t n_accel) const;

    /** Rows [start, start + n) into `out` via the extent table. */
    void fillRows(std::uint64_t db_id, std::uint64_t start,
                  std::uint64_t n, float *out) const;

    /** A terminal query's result with every field the coordinator's
     *  stats determine. Attributes the QC probe to QcLookup and the
     *  rest of the latency to `component` (CacheHit or Scan); the
     *  caller fills featuresScanned and topK. */
    QueryResult settledResult(std::uint64_t query_id,
                              const ArrayQueryStats &ast,
                              TimeComponent component);

    void finishQuery(std::uint64_t query_id, QueryResult res);

    DeepStoreConfig config_;
    sim::EventQueue events_;
    TimeLedger ledger_;
    /** Analytic model over the base flash geometry (validation + QC
     *  probe sizing); per-node scan lowering uses each node's own
     *  model. */
    DeepStoreModel model_;
    MetadataStore metadata_;
    /** The member drives + the scatter/merge query plane. Owns every
     *  SsdNode (SSD, FTL, DFV streams, scheduler) and the shard
     *  map. */
    std::unique_ptr<ArrayCoordinator> array_;

    /** One writeDB/appendDB source, holding rows from firstRow. */
    struct Extent
    {
        std::uint64_t firstRow;
        std::shared_ptr<FeatureSource> source;
    };
    /** A database's extents in row order. Appends only add rows past
     *  the end, so rows an in-flight query holds never move. */
    struct FeatureTable
    {
        std::int64_t dim = 0;
        std::uint64_t rows = 0;
        std::vector<Extent> extents;
    };
    std::map<std::uint64_t, FeatureTable> sources_;
    std::map<std::uint64_t, LoadedModel> models_;
    std::map<std::uint64_t, QueryResult> results_;
    std::map<std::uint64_t,
             std::vector<std::function<void(const QueryResult &)>>>
        completionCallbacks_;

    std::unique_ptr<QueryCache> queryCache_;
    std::uint64_t qcnModelId_ = 0;
    /** QFVs of previously seen queries (QC scoring inputs). */
    std::vector<std::vector<float>> seenQueries_;

    /** Epoch stamped into the last persisted superblock image. */
    std::uint64_t metadataEpoch_ = 0;
    /** Bumped by powerLoss(): metadata-flush page commits from the
     *  pre-loss epoch are abandoned, leaving torn replicas. */
    std::uint64_t metadataFlushGen_ = 0;
    std::uint64_t nextModelId_ = 1;
    std::uint64_t nextQueryId_ = 1;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_DEEPSTORE_H
