/**
 * @file
 * The array's maintenance unit: background scrub and self-healing
 * repair over the shard map (see ScrubConfig and RepairConfig). The
 * coordinator drives it only at construction, node death and power
 * loss.
 */

#ifndef DEEPSTORE_CORE_ARRAY_MAINTENANCE_H
#define DEEPSTORE_CORE_ARRAY_MAINTENANCE_H

#include <cstdint>
#include <functional>
#include <ostream>
#include <utility>
#include <vector>

#include "core/shard_map.h"
#include "sim/bandwidth.h"

namespace deepstore::core {

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

/** Scrub and repair counters (the array.scrub.* / array.repair.*
 *  stat rows, plus per-node attribution for ArrayInfo). */
struct MaintenanceStats
{
    std::uint64_t scrubPagesScanned = 0;
    std::uint64_t scrubUncorrectableFound = 0;
    std::uint64_t scrubLatentRepaired = 0;
    std::uint64_t scrubPassesCompleted = 0;
    std::uint64_t repairShardsRepaired = 0;
    std::uint64_t repairPagesCopied = 0;
    std::uint64_t repairBytesOverFabric = 0;
    /** Tick the array last returned to full replication (0 when
     *  repair never ran to completion). */
    Tick lastRepairCompleteTick = 0;
    /** Indexed by node. */
    std::vector<std::uint64_t> scrubPagesScannedOn;
    std::vector<std::uint64_t> repairPagesCopiedTo;
};

class ArrayMaintenance
{
  public:
    ArrayMaintenance(sim::EventQueue &events, const ShardMap::Nodes &nodes,
                     sim::BandwidthLink &fabric, ShardMap &map,
                     ScrubConfig scrub, RepairConfig repair);

    // Scheduled events capture `this`.
    ArrayMaintenance(const ArrayMaintenance &) = delete;
    ArrayMaintenance &operator=(const ArrayMaintenance &) = delete;

    /** Schedule the first scrub batch (construction). */
    void startScrub();

    /** Scan for under-replicated shards and queue repair copies, one
     *  event from now so a failover cascade settles first (node
     *  death). */
    void scheduleRepairScan();

    /** Queued copies and scrub wakeups die with the power: bump both
     *  generations, forget the queue and restart both engines. */
    void powerLoss();

    const MaintenanceStats &stats() const { return stats_; }

    /** True when no repair task is queued or copying. */
    bool repairIdle() const
    {
        return !repairActive_ && repairQueue_.empty();
    }

    /** The scrub/repair stat rows, printed only when the engine is
     *  in play so default dumps match the pre-scrub layout. */
    void dumpStats(std::ostream &os) const;

  private:
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
        /** Shard size the copy was planned for; an append that grows
         *  the shard makes the task stale. */
        std::uint64_t features = 0;
        std::uint32_t srcNode = 0;
        std::uint64_t srcLpnStart = 0;
        std::uint64_t srcPages = 0;
        std::uint32_t destNode = 0;
        std::uint64_t destLpnStart = 0;
        std::uint64_t destPages = 0;
        /** Next destination page to copy. */
        std::uint64_t next = 0;
    };

    void buildScrubRuns();
    void scrubBatch();
    /** Scrub found an uncorrectable page: rewrite it from an alive
     *  replica when one exists. */
    void repairPage(const ScrubRun &run, std::uint64_t lpn);

    void repairScan();
    void repairBatch();
    void finishRepairTask();
    /** The named shard; null once a restore dropped it. */
    const ShardMap::DbShard *shardOf(std::uint64_t db_id,
                                     std::uint32_t shard_i) const;

    /** The one page-copy leg: donor verifying read → transfer
     *  paced by the repair cap over the shared fabric → (destination
     *  still alive?) program. `done(true)` once the program
     *  completes, `done(false)` when the destination died in
     *  transit; nothing after a power loss. */
    void copyPage(std::uint32_t src_node, std::uint64_t src_lpn,
                  std::uint32_t dest_node, std::uint64_t dest_lpn,
                  std::function<void(bool)> done);

    sim::EventQueue &events_;
    const ShardMap::Nodes &nodes_;
    sim::BandwidthLink &fabric_;
    ShardMap &map_;
    ScrubConfig scrub_;
    RepairConfig repair_;
    MaintenanceStats stats_;

    std::vector<ScrubRun> scrubRuns_;
    std::size_t scrubRunIdx_ = 0;
    std::uint64_t scrubPageIdx_ = 0;
    /** Bumped on power loss: stale scrub wakeups become no-ops and
     *  the restarted pass reschedules under the new generation. */
    std::uint64_t scrubGen_ = 0;

    /** Queued copies; the front one is copying while
     *  repairActive_. */
    std::vector<RepairTask> repairQueue_;
    bool repairActive_ = false;
    std::uint64_t repairGen_ = 0;
    Tick repairCapFreeAt_ = 0;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_ARRAY_MAINTENANCE_H
