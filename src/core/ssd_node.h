/**
 * @file
 * One member drive of a DeepStore array: the simulated SSD bundled
 * with its fault domain, its DfvStreamService (scan streams over the
 * node's own per-channel FlashControllers), its QueryScheduler (the
 * node's accelerator complex), its analytic DeepStoreModel, and a
 * per-node append-only LPN allocator.
 *
 * The node is the *only* layer of `src/core` allowed to touch `Ssd`
 * or `Ftl` members directly (lint rule D7 enforces this): everything
 * above — the engine, the array coordinator, the NVMe front end —
 * goes through the passthroughs below, so a node with a different
 * flash geometry, its own fault schedule, or a dead device is
 * indistinguishable from the outside. Nodes share the engine's one
 * sim::EventQueue; per-node time is the same global tick.
 */

#ifndef DEEPSTORE_CORE_SSD_NODE_H
#define DEEPSTORE_CORE_SSD_NODE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/metadata.h"
#include "core/placement.h"
#include "core/query_model.h"
#include "core/query_scheduler.h"
#include "ssd/dfv_stream.h"
#include "ssd/ssd.h"

namespace deepstore::core {

/** Per-node construction knobs (the recovery tuning is shared across
 *  the array; the flash geometry + fault schedule are per-node). */
struct SsdNodeConfig
{
    ssd::FlashParams flash;
    ShardRecoveryConfig recovery;
};

/** One array member: SSD + FTL + fault domain + scan station. */
class SsdNode
{
  public:
    SsdNode(sim::EventQueue &events, SsdNodeConfig config,
            std::uint32_t index);

    SsdNode(const SsdNode &) = delete;
    SsdNode &operator=(const SsdNode &) = delete;

    // ---- identity ------------------------------------------------

    std::uint32_t index() const { return index_; }

    /** False once the drive has been killed (whole-node failure);
     *  a dead node rejects new scan work and its in-flight
     *  sub-queries have already been failed over. */
    bool alive() const { return alive_; }

    const ssd::FlashParams &flash() const { return config_.flash; }

    /** Analytic model over *this node's* geometry (heterogeneous
     *  arrays evaluate placements per node). */
    const DeepStoreModel &model() const { return model_; }

    QueryScheduler &scheduler() { return *scheduler_; }
    const QueryScheduler &scheduler() const { return *scheduler_; }

    /** Raw device escape hatch for tests/benches and the node layer
     *  itself; direct member access from the rest of `src/core` is a
     *  lint D7 finding. */
    ssd::Ssd &device() { return *ssd_; }
    const ssd::Ssd &device() const { return *ssd_; }

    StatGroup &stats();

    // ---- LPN allocation ------------------------------------------

    /** Append-only page allocator for this node's database region.
     *  @return the run's starting LPN. */
    std::uint64_t allocatePages(std::uint64_t pages);

    std::uint64_t nextFreeLpn() const { return nextFreeLpn_; }

    /** Recovery-only: raise the allocator mark to a persisted value.
     *  Monotonic — an older superblock epoch never un-allocates
     *  pages the device already handed out. */
    void restoreNextFreeLpn(std::uint64_t mark)
    {
        if (mark > nextFreeLpn_)
            nextFreeLpn_ = mark;
    }

    // ---- host I/O passthroughs -----------------------------------

    void hostWrite(std::uint64_t lpn_start, std::uint64_t count,
                   ssd::Completion on_complete);
    void hostRead(std::uint64_t lpn_start, std::uint64_t count,
                  ssd::Completion on_complete);
    void hostTrim(std::uint64_t lpn_start, std::uint64_t count,
                  ssd::Completion on_complete);

    /** Verifying read of one logical page for the background
     *  scrubber: a real flash read on this node's channel buses that
     *  reports the ECC verdict. */
    void scrubRead(std::uint64_t lpn,
                   ssd::Ssd::StatusCompletion on_complete);

    // ---- FTL facade ----------------------------------------------

    std::uint64_t translate(std::uint64_t lpn);

    /** Register a host write in the mapping without simulating the
     *  program (the closed-form bulk-ingest fast path). */
    void registerWrite(std::uint64_t lpn);

    void trimPages(std::uint64_t lpn_start, std::uint64_t pages);

    std::uint64_t mappingEpoch() const;

    /** First LPN of the reserved metadata block at the top of this
     *  node's LPN space (§4.4). */
    std::uint64_t reservedMetadataLpn() const;

    // ---- page payloads (functional contents) ---------------------

    void storePayload(std::uint64_t lpn,
                      std::vector<std::uint8_t> bytes);
    const std::vector<std::uint8_t> *payload(std::uint64_t lpn) const;

    // ---- scan planning -------------------------------------------

    /** Resolve a node-local feature range of `local_md` to per-unit
     *  physical page runs via this node's FTL/striping tables. */
    ScanPlan resolvePlan(const Placement &placement,
                         const DbMetadata &local_md,
                         std::uint64_t local_start,
                         std::uint64_t local_end);

    // ---- telemetry -----------------------------------------------

    /** Cumulative channel-bus arbitration wait on this node. */
    Tick nocWaitTicks() const;

    void syncLinkStats();

    // ---- lifecycle -----------------------------------------------

    /** Kill every in-flight sub-query on this node's scheduler with
     *  the given outcome (honest partial coverage; finalizes run
     *  synchronously). */
    void failAllInFlight(QueryOutcome outcome);

    /** Drop the device's volatile state (relocations abort
     *  crash-consistently, plane/bus reservations reset). */
    void devicePowerLoss();

    /** Whole-node death: mark the drive dead, fail its in-flight
     *  sub-queries (outcome Degraded — the coordinator re-stripes
     *  onto replicas), and drop volatile device state. Idempotent. */
    void kill();

  private:
    SsdNodeConfig config_;
    std::uint32_t index_ = 0;
    bool alive_ = true;
    std::unique_ptr<ssd::Ssd> ssd_;
    DeepStoreModel model_;
    /** Declared before the scheduler, which references it. */
    std::unique_ptr<ssd::DfvStreamService> dfv_;
    std::unique_ptr<QueryScheduler> scheduler_;
    std::uint64_t nextFreeLpn_ = 0;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_SSD_NODE_H
