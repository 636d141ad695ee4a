/**
 * @file
 * DfvStreamService: the FLASH_DFV prefetch engine shared by every
 * in-storage accelerator scan (paper Fig. 5, §4.4).
 *
 * A DfvStream turns a *physical* scan plan — an ordered run of
 * PageAddress entries resolved through the FTL/striping tables — into
 * real FlashCommand reads against the per-channel FlashControllers,
 * i.e. the same controllers that serve regular host I/O. Scan traffic
 * and host traffic therefore contend for the same planes and channel
 * buses, which is the first-order cost of near-data search that the
 * old analytic-only scan path could not express.
 *
 * Queue model: the accelerator controller owns a bounded FLASH_DFV
 * queue of `queueDepthPages` page slots and refills it in bursts
 * (§4.4): a burst of up to `queueDepthPages` reads is issued, pages
 * are delivered as the controller completes them, and the next burst
 * is issued only once every outstanding page has been consumed by all
 * subscribers. Each burst therefore exposes one flash array-read
 * latency that pipelining cannot hide — exactly the
 * `readLatency * pages_per_feature / depth` residual the closed-form
 * DeepStoreModel charges (Fig. 9), which is what keeps the live scan
 * path within tolerance of the analytic prediction.
 *
 * Within a burst, reads that target the same controller are issued
 * `perChannelIssueInterval` ticks apart (the steady-state page
 * interval of that datapath) so plane-level pipelining matches the
 * closed-form channel rate; reads on different controllers issue in
 * parallel (the SSD-level accelerator streams from every channel at
 * once).
 *
 * Read-once-broadcast: one stream serves any number of co-resident
 * same-database scans. The owner reports the *group minimum* consumed
 * page via consumedThrough(); the controller reads each page exactly
 * once and broadcasts it into every subscriber's FLASH_DFV queue.
 */

#ifndef DEEPSTORE_SSD_DFV_STREAM_H
#define DEEPSTORE_SSD_DFV_STREAM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "sim/event_queue.h"
#include "ssd/flash_controller.h"

namespace deepstore::ssd {

/** Physical scan plan of one accelerator's database stripe. */
struct DfvPlan
{
    /** Page reads in scan order (resolved physical addresses; an
     *  address may repeat — the chip-level controller re-reads a page
     *  once per lockstep slot, §4.5). */
    std::vector<PageAddress> pages;

    /** Bytes moved over the channel bus per page (partial-page ONFI
     *  transfer of the useful payload). 0 means the accelerator
     *  consumes straight from the plane page buffer without touching
     *  the shared bus (the chip-level placement, Fig. 3). */
    std::uint64_t transferBytesPerPage = 0;

    /** FLASH_DFV queue capacity in page slots (burst size). */
    std::uint32_t queueDepthPages = 32;

    /** Stagger between two reads issued to the *same* controller
     *  within one burst (steady-state page interval). */
    Tick perChannelIssueInterval = 0;

    // ---- fault handling ------------------------------------------

    /** Reissues of an uncorrectable page before it is abandoned
     *  (each reissue re-rolls the deterministic fault decision with
     *  attempt+1, after an exponential backoff in simulated
     *  time). */
    std::uint32_t maxPageRetries = 2;
};

/**
 * One live FLASH_DFV page stream (see file comment). Obtained from a
 * DfvStreamService; the pointer stays valid until close().
 */
class DfvStream
{
  public:
    std::uint64_t pagesTotal() const { return plan_.pages.size(); }

    /** Contiguous prefix of the plan that has been delivered.
     *  Permanently failed pages count as delivered (the scan skips
     *  them; the loss is tracked separately), so a bad page can
     *  never stall the burst barrier. */
    std::uint64_t pagesDelivered() const { return deliveredPrefix_; }

    bool done() const { return deliveredPrefix_ == pagesTotal(); }

    /** Pages abandoned as uncorrectable after the retry budget. */
    std::uint64_t pagesFailed() const { return failedPages_.size(); }

    /** Failed pages among the first `pages` plan entries. */
    std::uint64_t failedThrough(std::uint64_t pages) const;

    /**
     * Copy of the plan slice [from, to) with the plan's scalar knobs
     * (transfer bytes, depth, interval, retry budget) — the remnant
     * plan the scheduler re-stripes onto a sibling unit when this
     * stream's accelerator dies mid-scan.
     */
    DfvPlan subplan(std::uint64_t from, std::uint64_t to) const;

    /**
     * Report that every subscriber has consumed the first `pages`
     * pages (monotonic; the owner passes the group minimum). Freeing
     * the whole outstanding burst unblocks the next one.
     */
    void consumedThrough(std::uint64_t pages);

    /** Invoked every time the delivered prefix advances. */
    void onDelivered(std::function<void()> cb)
    {
        onDelivered_ = std::move(cb);
    }

    /** FLASH_DFV queue capacity in page slots (burst size). The
     *  consumer sizes its staging FIFO to match. */
    std::uint32_t queueDepthPages() const
    {
        return plan_.queueDepthPages;
    }

    /**
     * Ticks the stream has spent fully delivered but blocked on
     * consumption: the whole outstanding burst sat in the FLASH_DFV
     * queue waiting for compute to drain it while more pages were
     * pending. This is the backpressure the bounded queue exerts on
     * flash delivery when compute (not flash) is the bottleneck.
     */
    Tick backpressureTicks() const { return backpressureTicks_; }

  private:
    friend class DfvStreamService;

    DfvStream(sim::EventQueue &events, DfvPlan plan,
              std::function<FlashController &(std::uint32_t)> route,
              StatGroup &stats);

    void maybeIssueBurst();
    void issuePage(std::uint64_t index, std::uint32_t attempt);
    void pageDelivered(std::uint64_t index, bool ok);
    void pageUncorrectable(std::uint64_t index, std::uint32_t attempt);

    sim::EventQueue &events_;
    DfvPlan plan_;
    std::function<FlashController &(std::uint32_t)> route_;
    StatGroup &stats_;

    std::uint64_t issued_ = 0;
    std::uint64_t deliveredPrefix_ = 0;
    std::uint64_t consumed_ = 0;
    std::vector<bool> delivered_;
    /** Plan indices abandoned as uncorrectable, kept sorted (tiny:
     *  failures are rare by construction). */
    std::vector<std::uint64_t> failedPages_;
    std::function<void()> onDelivered_;
    bool closed_ = false;

    /** Backpressure bookkeeping (see backpressureTicks()). */
    bool blocked_ = false;
    Tick blockedSince_ = 0;
    Tick backpressureTicks_ = 0;
};

/**
 * Factory/owner of DFV streams over a set of flash controllers — the
 * *same* controllers that serve hostRead/hostWrite, so scans and host
 * I/O observably contend.
 */
class DfvStreamService
{
  public:
    using Router = std::function<FlashController &(std::uint32_t)>;

    /**
     * @param route maps a channel id to its FlashController (the
     * SSD's controller array).
     */
    DfvStreamService(sim::EventQueue &events, Router route,
                     StatGroup &stats);

    /** Open a stream and issue its first burst. */
    DfvStream &open(DfvPlan plan);

    /** Close a finished (or abandoned) stream. */
    void close(DfvStream &stream);

    /** Streams currently open. */
    std::size_t active() const { return active_; }

  private:
    sim::EventQueue &events_;
    Router route_;
    StatGroup &stats_;
    std::vector<std::unique_ptr<DfvStream>> streams_;
    std::size_t active_ = 0;
};

} // namespace deepstore::ssd

#endif // DEEPSTORE_SSD_DFV_STREAM_H
