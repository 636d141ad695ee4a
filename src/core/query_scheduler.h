/**
 * @file
 * Asynchronous query scheduler: event-driven, multi-query-in-flight
 * execution of intelligent queries across the in-storage accelerator
 * complex.
 *
 * The paper's runtime schedules SCN work "map-reduce style" across
 * the accelerators and exposes an asynchronous query/getResults API
 * (§4.7, Table 2). This module supplies the engine side of that
 * contract: each submitted query runs a small state machine
 *
 *   Parsed -> CacheProbe -> Striped -> Scanning -> Reduce -> Complete
 *                 |                        |           ^        |
 *                 +-- hit: rescore top-K --|-----------+        |
 *                                          v                    v
 *                                       Degraded  <-------------+
 *                             (deadline / cancel / lost shards)
 *
 * driven entirely by sim::EventQueue events — the engine never blocks
 * on `events.run()`; callers advance the shared clock via
 * DeepStore::poll()/drain() (or any other timed engine operation).
 *
 * Accelerator instances are **countable resources**. Each placement
 * level owns one AcceleratorUnit per physical accelerator (1 at SSD
 * level, one per channel, one per chip). A query's Striped stage
 * places one shard per unit that physically holds part of its range
 * (the resolveScanPlan striping tables); a unit admits at most
 * `maxResidentScans` concurrent shards (others wait FIFO), so
 * concurrent queries genuinely queue for, share, and interleave on
 * the hardware.
 *
 * The Scanning stage is **entirely event-native**: every shard's
 * feature pages stream through a DfvStream issuing real FlashCommand
 * reads against the same per-channel FlashControllers that serve
 * hostRead/hostWrite — scans and host I/O observably contend for
 * planes and channel buses. Co-resident same-database shards with
 * identical plans share one stream (read-once-broadcast, NCAM-style
 * flash grouping): the controller reads each page once and
 * broadcasts it into every subscriber's FLASH_DFV queue. Compute is
 * not a closed-form quotient either: each shard carries the systolic
 * slot schedule (per-layer compute bursts per feature) replayed on
 * its unit's ComputeArbiter, non-resident weights re-stream over the
 * shared SSD DRAM link once per lockstep slot (WeightStream), the QC
 * probe fans out as compute bursts + DRAM reads across the channel
 * accelerators, and the final top-K reduce is a DRAM transfer of the
 * per-shard partials. All DRAM traffic — weights, probe reads, hit
 * rescores, reduce gathers, FTL relocation copies — arbitrates on
 * the one BandwidthLink the engine wires in via
 * QuerySchedulerConfig::dram.
 *
 * Fault tolerance (the shard-level recovery state machine): the
 * FaultConfig schedule can kill whole accelerator units at a tick;
 * a per-shard watchdog catches silently-slow shards. Each shard is
 * one scheduler-owned record from placement to its last re-dispatch
 * (query, level and unit, retries, remaining features and pages,
 * weight feed, stream signature). When its unit dies or its watchdog
 * fires, the same record becomes the remnant: its features are
 * credited and its plan is trimmed (DfvStream::subplan) to the pages
 * still unread, and it is re-striped onto an alive sibling unit at
 * the same level (falling back to the parent level when no sibling
 * is alive), with bounded retries and exponential backoff in
 * simulated time. A query whose shards exhaust their retry budget —
 * or that hits its deadline, or is cancelled — finishes in the
 * Degraded terminal state, reporting the fraction of its range that
 * was actually scanned. Every recovery decision is a deterministic
 * consequence of the (seeded) fault schedule, so degraded runs
 * replay bit-identically; with an empty schedule the datapath is
 * tick-identical to a fault-free build.
 *
 * Per-query latency is defined as completion tick - submit tick
 * (queueing included); runStats() exposes the per-query contention
 * decomposition (probe, compute stall, backpressure, reduce).
 */

#ifndef DEEPSTORE_CORE_QUERY_SCHEDULER_H
#define DEEPSTORE_CORE_QUERY_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/fault_injector.h"
#include "common/stats.h"
#include "core/placement.h"
#include "sim/bandwidth.h"
#include "sim/event_queue.h"
#include "ssd/dfv_stream.h"

namespace deepstore::core {

struct ScanGroupSnapshot;

/** Lifecycle states of an in-flight query (§4.7.1). */
enum class QueryState
{
    Parsed,     ///< validated, not yet probing the Query Cache
    CacheProbe, ///< QCN scoring against cached queries
    Striped,    ///< shards being placed onto accelerator units
    Scanning,   ///< shards resident/waiting on accelerator units
    Reduce,     ///< merging per-accelerator partial top-Ks
    Complete,   ///< full-coverage results available via getResults()
    Degraded,   ///< terminal with partial (possibly zero) coverage
};

const char *toString(QueryState s);

/** True for the two terminal states (Complete and Degraded). */
bool isTerminal(QueryState s);

/** Why a query reached its terminal state. */
/** Declared in precedence order: an array query's outcome is the
 *  max over its sub-queries'. */
enum class QueryOutcome
{
    Success,          ///< full coverage (state Complete)
    Degraded,         ///< shards lost coverage (retries exhausted)
    DeadlineExceeded, ///< deadline fired before the scan finished
    Aborted,          ///< cancelled via cancel()
    PowerLoss,        ///< the device lost power mid-query
};

const char *toString(QueryOutcome o);

/** Shard residency and recovery settings, declared once and shared
 *  by the engine, every array node and its scheduler (validated by
 *  the scheduler's constructor). */
struct ShardRecoveryConfig
{
    /**
     * Max concurrent scan shards resident on one accelerator unit;
     * additional shards wait FIFO. Bounds the interleaving degree
     * (and the FLASH_DFV buffering the controller must provide).
     */
    std::uint32_t maxResidentScans = 8;

    /** Per-shard watchdog: a shard (waiting or scanning) that has
     *  not finished within this many simulated seconds of placement
     *  is snatched and re-striped. 0 disables. */
    double shardWatchdogSeconds = 0.0;

    /** Re-striping budget per shard (across unit deaths and watchdog
     *  fires); an exhausted shard abandons its remainder and the
     *  query degrades. */
    std::uint32_t maxShardRetries = 2;
};

/** Scheduler tuning knobs. */
struct QuerySchedulerConfig
{
    ShardRecoveryConfig recovery;

    /** Fault schedule (accelerator-unit failures consult the
     *  AcceleratorUnit domain). Empty by default. */
    FaultConfig faults;

    /** Accelerator count per level (indexed by Level's underlying
     *  value): the node's geometry, which sizes every unit pool.
     *  Each count must be at least 1. */
    std::uint32_t unitsAtLevel[3] = {0, 0, 0};

    /** Shared SSD DRAM channel that weight streams, probe reads,
     *  hit rescores, and reduce gathers arbitrate on (the engine
     *  passes the Ssd's link so scans contend with FTL relocation
     *  copies). nullptr = infinite DRAM bandwidth. Must outlive the
     *  scheduler. */
    sim::BandwidthLink *dram = nullptr;
};

/** Everything the scheduler needs to time one query. The functional
 *  work (scoring, merging, cache insert) stays in the engine's
 *  `finalize` callback, invoked exactly once at completion time. */
struct QuerySubmission
{
    std::uint64_t queryId = 0;
    Level level = Level::ChannelLevel;

    /** The resolved scan (resolveScanPlan output): one shard per unit
     *  that holds features in the range, the delivered-pages ->
     *  ready-features step shape they share, and the plan signature
     *  a read-once-broadcast join requires. Shard plans move into the
     *  scheduler's shard records on striping. */
    ScanPlan plan;

    /** Per-feature compute bursts on the array, one per model layer
     *  (the systolic slot schedule lowered onto the unit's clock via
     *  layerBurstTicks()). The flash leg comes from the DFV stream;
     *  the weight leg from the shared DRAM link. */
    std::vector<Tick> layerBurstTicksPerFeature;

    /** Lockstep slot width in features (wsGroupSize on
     *  weight-stationary placements, 1 otherwise). */
    std::uint64_t featuresPerSlot = 1;

    /** Non-resident weight bytes re-streamed over the DRAM link per
     *  lockstep slot (0 = fully resident model). */
    std::uint64_t weightBytesPerSlot = 0;

    /** True when one DRAM weight transfer per slot is broadcast to
     *  every shard (shared L2 / WS lockstep); false when each shard
     *  pulls a private copy. */
    bool weightBroadcast = false;

    /** Flash-stream sharing group (database id): co-resident shards
     *  with equal keys *and* plan signatures share one DFV stream. */
    std::uint64_t dbKey = 0;

    /** Run the Query Cache probe: it fans out over every
     *  channel-level accelerator of the node (false = no cache, the
     *  probe is free). */
    bool probe = false;

    /** QCN compute burst per probe unit (its share of the cached
     *  entries, lowered onto the probe array's clock). */
    Tick probeComputeTicksPerUnit = 0;

    /** Cached-entry bytes each probe unit pulls over the DRAM link
     *  before scoring. */
    std::uint64_t probeDramBytesPerUnit = 0;

    /** Probe outcome decided at submit time. */
    bool cacheHit = false;

    /** SCN rescore burst over the cached top-K on one channel
     *  accelerator (hit path only). */
    Tick hitComputeTicks = 0;

    /** Cached-result feature bytes the hit rescore pulls over the
     *  DRAM link. */
    std::uint64_t hitDramBytes = 0;

    /** Bytes of per-shard partial top-K the reduce stage gathers
     *  over the DRAM link per shard (0 = free reduce). */
    std::uint64_t reduceBytesPerShard = 0;

    /** Optional deadline relative to submission; a query still in
     *  flight when it fires terminates Degraded with outcome
     *  DeadlineExceeded. 0 = no deadline. */
    double deadlineSeconds = 0.0;

    /** Runs at completion (state already terminal, clock at the
     *  completion tick). */
    std::function<void()> finalize;
};

/** Per-query timing decomposition accumulated by the event-native
 *  datapath (ticks; convert with ticksToSeconds). */
struct QueryRunStats
{
    /** Ticks the query's scan groups stalled compute: flash
     *  starvation plus weight-stream waits. */
    Tick computeStallTicks = 0;
    /** Ticks the query's streams sat fully delivered, blocked on
     *  compute (bounded FLASH_DFV backpressure). */
    Tick backpressureTicks = 0;
    /** Scheduled Query Cache probe duration (0 without a cache). */
    Tick probeTicks = 0;
    /** Scheduled top-K reduce duration (DRAM gather of the
     *  per-shard partials). */
    Tick reduceTicks = 0;
};

/** The asynchronous scheduler (see file comment). */
class QueryScheduler
{
  public:
    /**
     * @param dfv stream service over the flash controllers that also
     * serve host I/O (the unified datapath). Must outlive the
     * scheduler.
     * @param stats counter sink for the sched.* fault/recovery
     * counters (nullptr keeps a private group — counters still
     * accumulate but are not dumped with the SSD's).
     */
    QueryScheduler(sim::EventQueue &events,
                   QuerySchedulerConfig config,
                   ssd::DfvStreamService &dfv,
                   StatGroup *stats = nullptr);
    ~QueryScheduler();

    QueryScheduler(const QueryScheduler &) = delete;
    QueryScheduler &operator=(const QueryScheduler &) = delete;

    /** Accept a validated query; returns immediately after
     *  scheduling its state machine. */
    void submit(QuerySubmission submission);

    /**
     * Cancel an in-flight query: its shards are detached from their
     * units (in-flight flash drains harmlessly in the background)
     * and it terminates immediately in the Degraded state with
     * outcome Aborted. @return false for unknown or already-terminal
     * queries.
     */
    bool cancel(std::uint64_t query_id);

    /**
     * Whole-device failure: every non-terminal query terminates
     * *now* with the given outcome, crediting the features its
     * shards actually scanned (honest partial coverage — finalize
     * callbacks run synchronously, before volatile device state is
     * dropped). Queries already terminal are untouched. The array
     * coordinator uses PowerLoss on power loss and Degraded on node
     * death (before re-striping the remainder onto replicas).
     */
    void failAllInFlight(QueryOutcome outcome);

    /** State of a submitted query (nullopt when unknown). */
    std::optional<QueryState> state(std::uint64_t query_id) const;

    /** Terminal outcome of a query; only meaningful once the query
     *  reached a terminal state (fatal for unknown ids). */
    QueryOutcome outcome(std::uint64_t query_id) const;

    /** Features actually scanned / features requested, in [0, 1].
     *  1.0 for full-coverage (and cache-hit) completions. */
    double coverageFraction(std::uint64_t query_id) const;

    /** Exact features scanned from good pages (the coverage
     *  numerator) — the array coordinator sums these across
     *  per-node sub-queries without float round-trips. */
    std::uint64_t coveredFeatures(std::uint64_t query_id) const;

    /** Queries submitted but not yet terminal. */
    std::size_t inFlight() const { return inFlight_; }

    /** Total queries that reached a terminal state so far. */
    std::uint64_t completedCount() const { return completed_; }

    Tick submitTick(std::uint64_t query_id) const;
    Tick completeTick(std::uint64_t query_id) const;

    /** Contention decomposition of a submitted query (fatal for
     *  unknown ids; partial until the query is terminal). */
    QueryRunStats runStats(std::uint64_t query_id) const;

  private:
    struct QueryInfo;
    struct Shard;
    class AcceleratorUnit;
    using Pool = std::vector<std::unique_ptr<AcceleratorUnit>>;

    /** Submitted query `id` (fatal for unknown ids). */
    const QueryInfo &info(std::uint64_t id) const;
    /** Query `id` while it is still in flight, else nullptr. */
    QueryInfo *live(std::uint64_t id);
    /** Live query owning shard `seq`; nullptr (dropping a stale
     *  record) when the shard or its query is finished. */
    QueryInfo *ownerOf(std::uint64_t seq);

    void enterStriped(QueryInfo &q);
    void shardDone(std::uint64_t seq, std::uint64_t features_ok,
                   const ScanGroupSnapshot &snap);
    /** Shard `seq` left its unit unfinished (unit death, watchdog,
     *  or a join that lost the race with a death); its record is
     *  already trimmed to the remnant. */
    void shardFailed(std::uint64_t seq, std::uint64_t features_done);
    void finishShard(QueryInfo &q, std::uint64_t seq);
    void degradeQuery(QueryInfo &q, QueryOutcome outcome);
    void completeQuery(QueryInfo &q, QueryOutcome outcome);
    /** The level's unit pool, built on first use with the node's
     *  unitsAtLevel count. */
    Pool &pool(Level level);
    /** Alive sibling at the same level (the excluded unit itself
     *  only as a last resort), else the first alive unit walking up
     *  parent levels; nullopt when nothing is left. */
    std::optional<std::pair<Level, std::uint32_t>>
    chooseUnit(Level level, std::uint32_t exclude);

    sim::EventQueue &events_;
    QuerySchedulerConfig config_;
    ssd::DfvStreamService &dfv_;
    FaultInjector injector_;
    StatGroup ownStats_;
    StatGroup &stats_;
    std::map<std::uint64_t, QueryInfo> queries_;
    std::map<std::uint64_t, Shard> shards_;
    std::map<Level, Pool> pools_;
    std::size_t inFlight_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t nextShardSeq_ = 1;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_QUERY_SCHEDULER_H
