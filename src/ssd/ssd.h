/**
 * @file
 * Top-level SSD model: host interface, embedded-CPU command overhead,
 * per-channel flash controllers, FTL, and an optional sparse backing
 * store for page payloads (used by the functional API path; the pure
 * timing benches skip payloads entirely).
 */

#ifndef DEEPSTORE_SSD_SSD_H
#define DEEPSTORE_SSD_SSD_H

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "sim/bandwidth.h"
#include "sim/event_queue.h"
#include "ssd/flash_controller.h"
#include "ssd/ftl.h"
#include "ssd/geometry.h"

namespace deepstore::ssd {

/** Completion callback carrying the completion tick. */
using Completion = std::function<void(Tick)>;

/** An SSD instance bound to an event queue. */
class Ssd
{
  public:
    Ssd(sim::EventQueue &events, FlashParams params);

    const FlashParams &params() const { return params_; }
    const Geometry &geometry() const { return geometry_; }
    Ftl &ftl() { return ftl_; }
    StatGroup &stats() { return stats_; }
    sim::EventQueue &events() { return events_; }

    /**
     * Host-path write of `count` pages starting at LPN `lpn_start`
     * (full-page programs through the FTL). Completion fires when the
     * last program finishes.
     */
    void hostWrite(std::uint64_t lpn_start, std::uint64_t count,
                   Completion on_complete);

    /**
     * Host-path read of `count` pages starting at LPN `lpn_start`:
     * embedded-CPU command overhead, flash array reads and channel
     * transfers (parallel across channels), then the external
     * interface transfer, which serializes at the PCIe-class
     * bandwidth. Completion fires when the last byte reaches the
     * host.
     */
    void hostRead(std::uint64_t lpn_start, std::uint64_t count,
                  Completion on_complete);

    /**
     * Internal read used by in-storage accelerators: goes straight to
     * the channel controller with a partial-page transfer, bypassing
     * the external interface (paper Fig. 5).
     */
    void internalRead(std::uint64_t ppn, std::uint64_t bytes,
                      Completion on_complete);

    /** Completion carrying the tick *and* the ECC verdict (the scrub
     *  path needs to know whether the media gave the page back). */
    using StatusCompletion = std::function<void(Tick, FlashStatus)>;

    /**
     * Verifying read used by the background scrubber: a full-page
     * read straight on the channel controller (no external-interface
     * transfer), reporting the ECC status so the caller can detect
     * latent uncorrectable pages before a query does.
     */
    void scrubRead(std::uint64_t ppn, StatusCompletion on_complete);

    /**
     * Host-path trim of `count` pages starting at `lpn_start`.
     * Fully invalidated superblocks are erased on the affected
     * planes; completion fires when the last erase finishes (or
     * immediately after the command overhead when nothing needed
     * erasing).
     */
    void hostTrim(std::uint64_t lpn_start, std::uint64_t count,
                  Completion on_complete);

    /** Resolve an LPN to its physical page address. */
    PageAddress physicalAddress(std::uint64_t lpn) const;

    /** Attach payload bytes to an LPN (functional path). */
    void storePayload(std::uint64_t lpn,
                      std::vector<std::uint8_t> bytes);

    /** Fetch payload bytes (empty when none stored). */
    const std::vector<std::uint8_t> *payload(std::uint64_t lpn) const;

    /** Controller for a channel (exposed for accelerator wiring). */
    FlashController &controller(std::uint32_t channel);

    /**
     * The device's shared DRAM channel. Accelerator weight streams,
     * QC-probe reads, top-K reduce traffic, and GC relocation staging
     * all reserve time on it, so any two of them physically contend.
     */
    sim::BandwidthLink &dramLink() { return dram_; }

    /** Total channel-bus (NoC) arbitration wait across all channels. */
    Tick nocWaitTicks() const;

    /** Refresh the link-derived stats (noc / dram) before a dump. */
    void syncLinkStats();

    /**
     * Whole-device power loss at the current tick: every in-flight
     * background relocation is aborted (the FTL mapping never moved,
     * so the media stays crash-consistent), all plane/bus
     * reservations reset, and stale completion callbacks from the
     * pre-loss epoch are suppressed via a generation counter. The
     * caller (engine) is responsible for killing queries and
     * replaying metadata recovery.
     */
    void powerLoss();

  private:
    /** One in-flight background relocation (batched page copies). */
    struct RelocState
    {
        RelocationJob job;
        bool retireOld = false;
        /** Next index into job.validOffsets to copy. */
        std::uint64_t next = 0;
        /** Power generation the copy belongs to. */
        std::uint64_t gen = 0;
    };

    /** Read observer: lifecycle accounting + threshold checks. */
    void onFlashRead(const PageAddress &addr, FlashStatus status);
    /** Begin a background relocation of `phys` (dedupes itself). */
    void startRelocation(std::uint32_t phys, bool retire_old);
    /** Copy the next batch of valid pages via real flash commands. */
    void relocationBatch(const std::shared_ptr<RelocState> &st);
    /** Commit (or abandon) a finished copy. */
    void finishRelocation(const std::shared_ptr<RelocState> &st);
    sim::EventQueue &events_;
    FlashParams params_;
    Geometry geometry_;
    StatGroup stats_;
    Ftl ftl_;
    std::vector<std::unique_ptr<FlashController>> controllers_;
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>>
        payloads_;
    Tick externalBusyUntil_ = 0;
    /** Shared SSD DRAM channel (see dramLink()). */
    sim::BandwidthLink dram_;

    std::vector<std::shared_ptr<RelocState>> relocations_;
    /** Bumped by powerLoss(); callbacks from older generations are
     *  no-ops (the work they represent died with the capacitors). */
    std::uint64_t powerGen_ = 0;

    /** Dispatch tick for a host command issued now. */
    Tick hostDispatchTick() const;
};

} // namespace deepstore::ssd

#endif // DEEPSTORE_SSD_SSD_H
