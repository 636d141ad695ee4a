#include "core/array_maintenance.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/units.h"

namespace deepstore::core {

namespace {

/** Pages read per scrub wakeup (bounds burstiness). */
constexpr std::uint32_t kScrubBatchPages = 8;

/** Pages copied per repair wakeup. */
constexpr std::uint32_t kRepairBatchPages = 8;

} // namespace

ArrayMaintenance::ArrayMaintenance(sim::EventQueue &events,
                                   const ShardMap::Nodes &nodes,
                                   sim::BandwidthLink &fabric,
                                   ShardMap &map, ScrubConfig scrub,
                                   RepairConfig repair)
    : events_(events), nodes_(nodes), fabric_(fabric), map_(map),
      scrub_(scrub), repair_(repair)
{
    stats_.scrubPagesScannedOn.assign(nodes_.size(), 0);
    stats_.repairPagesCopiedTo.assign(nodes_.size(), 0);
}

const ShardMap::DbShard *
ArrayMaintenance::shardOf(std::uint64_t db_id,
                          std::uint32_t shard_i) const
{
    auto it = map_.dbs().find(db_id);
    if (it == map_.dbs().end() || shard_i >= it->second.shards.size())
        return nullptr; // the map moved on (power-loss restore)
    return &it->second.shards[shard_i];
}

// ---- page-copy leg -----------------------------------------------

void
ArrayMaintenance::copyPage(std::uint32_t src_node, std::uint64_t src_lpn,
                           std::uint32_t dest_node, std::uint64_t dest_lpn,
                           std::function<void(bool)> done)
{
    // The source read is a verifying flash read on the donor's
    // channel buses; like GC relocation, repair takes the page as
    // the media returns it (no extra ECC heroics on this path).
    const std::uint64_t gen = repairGen_;
    const std::uint64_t page_bytes = nodes_[dest_node]->flash().pageBytes;
    nodes_[src_node]->scrubRead(
        src_lpn, [this, gen, dest_node, dest_lpn, page_bytes,
                  done = std::move(done)](Tick t, ssd::FlashStatus) {
            if (gen != repairGen_)
                return;
            // Token-bucket pacing against the configured cap, then
            // the real fabric: repair throughput is min(cap, fabric
            // share), and queries' scatter/merge legs queue behind
            // repair grants on the same link.
            const Tick start = std::max(t, repairCapFreeAt_);
            repairCapFreeAt_ =
                repair_.bandwidthBytesPerSecond > 0.0
                    ? start + secondsToTicks(
                                  static_cast<double>(page_bytes) /
                                  repair_.bandwidthBytesPerSecond)
                    : start;
            stats_.repairBytesOverFabric += page_bytes;
            const Tick arrive =
                fabric_.acquire(repairCapFreeAt_, page_bytes);
            events_.schedule(arrive, [this, gen, dest_node, dest_lpn,
                                      done] {
                if (gen != repairGen_)
                    return;
                if (!nodes_[dest_node]->alive()) {
                    done(false);
                    return;
                }
                // The program lands on a fresh physical page, so a
                // rewritten page's corruption draw re-rolls.
                nodes_[dest_node]->hostWrite(
                    dest_lpn, 1, [this, gen, done](Tick) {
                        if (gen == repairGen_)
                            done(true);
                    });
            });
        });
}

// ---- scrub engine ------------------------------------------------

void
ArrayMaintenance::startScrub()
{
    if (!scrub_.enabled)
        return;
    if (scrub_.pagesPerSecond <= 0.0)
        fatal("ScrubConfig::pagesPerSecond must be positive");
    if (scrub_.passes != 0 &&
        stats_.scrubPassesCompleted >= scrub_.passes)
        return; // the pass budget was spent before the restart
    const std::uint64_t gen = scrubGen_;
    events_.scheduleAfter(secondsToTicks(scrub_.startDelaySeconds),
                          [this, gen] {
                              if (gen != scrubGen_)
                                  return;
                              buildScrubRuns();
                              scrubBatch();
                          });
}

void
ArrayMaintenance::buildScrubRuns()
{
    // Deterministic order: the map is ordered by db id, placements
    // are in bind/repair order. The snapshot covers every placement
    // bound when the pass starts; databases written later join the
    // next pass.
    scrubRuns_.clear();
    scrubRunIdx_ = 0;
    scrubPageIdx_ = 0;
    for (const auto &[db_id, info] : map_.dbs()) {
        for (std::uint32_t si = 0; si < info.shards.size(); ++si) {
            const ShardMap::DbShard &shard = info.shards[si];
            for (const ShardMap::ShardPlacement &pl : shard.placements) {
                const std::uint64_t pages = map_.pagesOn(
                    pl.node, info.featureBytes, shard.numFeatures);
                if (pages == 0)
                    continue;
                scrubRuns_.push_back(ScrubRun{db_id, si, pl.node,
                                              pl.lpnStart, pages});
            }
        }
    }
}

void
ArrayMaintenance::scrubBatch()
{
    // Gather the next batch of pages, skipping dead nodes' runs.
    std::vector<std::pair<ScrubRun, std::uint64_t>> batch;
    while (batch.size() < kScrubBatchPages &&
           scrubRunIdx_ < scrubRuns_.size()) {
        const ScrubRun &run = scrubRuns_[scrubRunIdx_];
        if (!nodes_[run.node]->alive() ||
            scrubPageIdx_ >= run.pages) {
            ++scrubRunIdx_;
            scrubPageIdx_ = 0;
            continue;
        }
        batch.emplace_back(run, run.lpnStart + scrubPageIdx_);
        ++scrubPageIdx_;
    }
    const bool pass_done = scrubRunIdx_ >= scrubRuns_.size();
    const Tick issue = events_.now();
    // Rate cap: the next wakeup never comes sooner than the batch's
    // page budget allows (and never before its reads complete, so a
    // congested device self-throttles the scrubber further).
    const double budget_pages = static_cast<double>(
        batch.empty() ? kScrubBatchPages : batch.size());
    const Tick rate_next =
        issue + secondsToTicks(budget_pages / scrub_.pagesPerSecond);
    const std::uint64_t gen = scrubGen_;

    auto next_wakeup = [this, gen, pass_done](Tick at) {
        events_.schedule(at, [this, gen, pass_done] {
            if (gen != scrubGen_)
                return;
            if (pass_done) {
                ++stats_.scrubPassesCompleted;
                if (scrub_.passes != 0 &&
                    stats_.scrubPassesCompleted >= scrub_.passes)
                    return; // budget spent; the queue may drain
                buildScrubRuns();
            }
            scrubBatch();
        });
    };

    if (batch.empty()) {
        // Nothing scannable this pass (no databases bound, or every
        // holder is dead). passes == 0 keeps polling — note this
        // keeps the event queue non-empty forever by design.
        next_wakeup(rate_next);
        return;
    }

    auto remaining = std::make_shared<std::size_t>(batch.size());
    auto last = std::make_shared<Tick>(issue);
    for (const auto &[run, lpn] : batch) {
        nodes_[run.node]->scrubRead(
            lpn,
            [this, gen, run = run, lpn = lpn, remaining, last,
             rate_next, next_wakeup](Tick t, ssd::FlashStatus st) {
                if (gen != scrubGen_)
                    return;
                ++stats_.scrubPagesScanned;
                ++stats_.scrubPagesScannedOn[run.node];
                if (st == ssd::FlashStatus::Uncorrectable) {
                    ++stats_.scrubUncorrectableFound;
                    repairPage(run, lpn);
                }
                *last = std::max(*last, t);
                if (--*remaining == 0)
                    next_wakeup(std::max(*last, rate_next));
            });
    }
}

void
ArrayMaintenance::repairPage(const ScrubRun &run, std::uint64_t lpn)
{
    if (!repair_.enabled)
        return;
    const ShardMap::DbShard *shard = shardOf(run.dbId, run.shard);
    if (shard == nullptr)
        return;
    if (!nodes_[run.node]->alive())
        return; // node death repair handles the whole shard
    // Rewrite the page from an alive replica on another node.
    const ShardMap::ShardPlacement *src =
        map_.alivePlacement(*shard, {run.node});
    if (src == nullptr)
        return; // detected but unrepairable: no surviving replica
    const std::uint64_t src_pages =
        map_.pagesOn(src->node, map_.db(run.dbId).featureBytes,
                     shard->numFeatures);
    if (src_pages == 0)
        return;
    // Same-geometry arrays map page i <-> page i; heterogeneous page
    // sizes rescale the offset (the rewrite only needs a source page
    // carrying the affected features).
    std::uint64_t src_off = (lpn - run.lpnStart) * src_pages /
                            run.pages;
    src_off = std::min(src_off, src_pages - 1);
    copyPage(src->node, src->lpnStart + src_off, run.node, lpn,
             [this](bool written) {
                 if (written)
                     ++stats_.scrubLatentRepaired;
             });
}

// ---- repair engine -----------------------------------------------

void
ArrayMaintenance::scheduleRepairScan()
{
    if (!repair_.enabled)
        return;
    const std::uint64_t gen = repairGen_;
    events_.scheduleAfter(0, [this, gen] {
        if (gen == repairGen_)
            repairScan();
    });
}

void
ArrayMaintenance::repairScan()
{
    for (const auto &[db_id, info] : map_.dbs()) {
        for (std::uint32_t si = 0; si < info.shards.size(); ++si) {
            const ShardMap::DbShard &shard = info.shards[si];
            // Placements sit on distinct nodes, and dead nodes never
            // come back as destinations.
            std::vector<std::uint32_t> holders;
            for (const ShardMap::ShardPlacement &pl : shard.placements)
                if (nodes_[pl.node]->alive())
                    holders.push_back(pl.node);
            const std::uint32_t desired =
                std::min(map_.replication(), map_.aliveCount());
            if (holders.empty() || holders.size() >= desired)
                continue; // lost outright, or replicated enough
            if (std::any_of(repairQueue_.begin(), repairQueue_.end(),
                            [&](const RepairTask &t) {
                                return t.dbId == db_id && t.shard == si;
                            }))
                continue; // already queued or copying
            // Destination: lowest-index alive node without a copy.
            std::uint32_t dest = 0;
            while (dest < nodes_.size() &&
                   (!nodes_[dest]->alive() ||
                    std::find(holders.begin(), holders.end(), dest) !=
                        holders.end()))
                ++dest;
            if (dest == nodes_.size())
                continue;
            RepairTask task;
            task.destPages =
                map_.pagesOn(dest, info.featureBytes, shard.numFeatures);
            if (task.destPages == 0)
                continue;
            task.dbId = db_id;
            task.shard = si;
            task.features = shard.numFeatures;
            const ShardMap::ShardPlacement &src =
                *map_.alivePlacement(shard, {});
            task.srcNode = src.node;
            task.srcLpnStart = src.lpnStart;
            task.srcPages = map_.pagesOn(src.node, info.featureBytes,
                                         shard.numFeatures);
            task.destNode = dest;
            task.destLpnStart = nodes_[dest]->allocatePages(task.destPages);
            repairQueue_.push_back(task);
        }
    }
    if (!repairActive_ && !repairQueue_.empty()) {
        repairActive_ = true;
        repairBatch();
    }
}

void
ArrayMaintenance::repairBatch()
{
    DS_ASSERT(repairActive_);
    while (!repairQueue_.empty()) {
        const RepairTask &front = repairQueue_.front();
        const ShardMap::DbShard *shard = shardOf(front.dbId, front.shard);
        if (nodes_[front.srcNode]->alive() &&
            nodes_[front.destNode]->alive() &&
            (shard == nullptr || shard->numFeatures == front.features))
            break;
        // A participant died mid-copy, or an append grew the shard:
        // drop the task and rescan (a different source or
        // destination may still work; the abandoned destination
        // pages stay allocated — the append-only allocator never
        // reuses them).
        repairQueue_.erase(repairQueue_.begin());
        scheduleRepairScan();
    }
    if (repairQueue_.empty()) {
        repairActive_ = false;
        return;
    }
    // Copy the front task by value: completions below run after
    // repairScan may have grown (reallocated) the queue.
    const RepairTask task = repairQueue_.front();
    const std::uint64_t n = std::min<std::uint64_t>(
        kRepairBatchPages, task.destPages - task.next);
    DS_ASSERT(n > 0);
    auto left = std::make_shared<std::uint64_t>(n);
    auto batch_done = [this, n] {
        DS_ASSERT(!repairQueue_.empty());
        RepairTask &t = repairQueue_.front();
        t.next += n;
        if (t.next >= t.destPages)
            finishRepairTask();
        else
            repairBatch();
    };
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t di = task.next + i;
        const std::uint64_t si = std::min(
            di * task.srcPages / task.destPages, task.srcPages - 1);
        copyPage(task.srcNode, task.srcLpnStart + si, task.destNode,
                 task.destLpnStart + di,
                 [this, dest = task.destNode, left,
                  batch_done](bool written) {
                     if (written) {
                         ++stats_.repairPagesCopied;
                         ++stats_.repairPagesCopiedTo[dest];
                     }
                     // A dead destination aborts the task at the
                     // next repairBatch().
                     if (--*left == 0)
                         batch_done();
                 });
    }
}

void
ArrayMaintenance::finishRepairTask()
{
    DS_ASSERT(!repairQueue_.empty());
    const RepairTask task = repairQueue_.front();
    repairQueue_.erase(repairQueue_.begin());
    const ShardMap::DbShard *shard = shardOf(task.dbId, task.shard);
    if (shard != nullptr && shard->numFeatures == task.features &&
        nodes_[task.destNode]->alive()) {
        // The new copy goes live: queries, failover, and the next
        // scrub pass all see it through the normal placement list.
        map_.addPlacement(task.dbId, task.shard, task.destNode,
                          task.destLpnStart);
        ++stats_.repairShardsRepaired;
    }
    // Deaths or appends during the copy may have exposed more shards.
    repairScan();
    if (repairQueue_.empty()) {
        repairActive_ = false;
        stats_.lastRepairCompleteTick = events_.now();
    } else {
        repairBatch();
    }
}

// ---- lifecycle ---------------------------------------------------

void
ArrayMaintenance::powerLoss()
{
    // Scrub wakeups and in-flight repair copies died with the
    // capacitors: bump both generations so their stale events are
    // no-ops, forget queued tasks (half-copied destination pages
    // stay allocated; the append-only allocator never reuses them),
    // then restart both engines under the new generations. Disabled
    // engines schedule nothing, keeping default runs event-identical.
    ++scrubGen_;
    ++repairGen_;
    repairQueue_.clear();
    repairActive_ = false;
    repairCapFreeAt_ = 0;
    startScrub();
    scheduleRepairScan();
}

void
ArrayMaintenance::dumpStats(std::ostream &os) const
{
    if (scrub_.enabled || stats_.scrubPagesScanned > 0) {
        os << "array.scrub.pagesScanned = " << stats_.scrubPagesScanned
           << "\n";
        os << "array.scrub.uncorrectableFound = "
           << stats_.scrubUncorrectableFound << "\n";
        os << "array.scrub.latentRepaired = "
           << stats_.scrubLatentRepaired << "\n";
        os << "array.scrub.passes = " << stats_.scrubPassesCompleted
           << "\n";
    }
    if (repair_.enabled || stats_.repairPagesCopied > 0) {
        os << "array.repair.shardsRepaired = "
           << stats_.repairShardsRepaired << "\n";
        os << "array.repair.pagesCopied = " << stats_.repairPagesCopied
           << "\n";
        os << "array.repair.bytesOverFabric = "
           << stats_.repairBytesOverFabric << "\n";
        os << "array.repair.lastCompleteTick = "
           << stats_.lastRepairCompleteTick << "\n";
    }
}

} // namespace deepstore::core
