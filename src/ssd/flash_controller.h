/**
 * @file
 * Per-channel flash controller: schedules page reads/programs against
 * plane-level timing and channel-bus contention.
 *
 * The timing model is the standard one for NAND: a read occupies the
 * target plane for the array read latency (moving the page into the
 * plane's page buffer), then the data transfer occupies the shared
 * channel bus for bytes / bus-bandwidth. Planes on the same chip and
 * chips on the same channel overlap their array reads; only the bus
 * serializes. Partial-page transfers are supported (ONFI column
 * addressing), which matters for small feature vectors.
 */

#ifndef DEEPSTORE_SSD_FLASH_CONTROLLER_H
#define DEEPSTORE_SSD_FLASH_CONTROLLER_H

#include <functional>
#include <vector>

#include "common/fault_injector.h"
#include "common/stats.h"
#include "sim/bandwidth.h"
#include "sim/event_queue.h"
#include "ssd/geometry.h"

namespace deepstore::ssd {

/** Kind of flash operation. */
enum class FlashOp
{
    Read,
    Program,
    Erase,
};

/** How a flash command completed. */
enum class FlashStatus : std::uint8_t
{
    Ok,            ///< first-pass success
    RetriedOk,     ///< succeeded after the read-retry ladder
    Uncorrectable, ///< ECC failure even after the full ladder
};

const char *toString(FlashStatus s);

/**
 * Opaque 64-bit fault-injection key of a physical page (the entity
 * key the FaultInjector hashes). Also used for page blacklists in
 * fault schedules.
 */
std::uint64_t faultKey(const PageAddress &addr);

/** One flash command against a page (or block, for erase). */
struct FlashCommand
{
    FlashOp op = FlashOp::Read;
    PageAddress addr;
    /** Bytes to move over the bus (<= pageBytes; 0 for erase). */
    std::uint64_t transferBytes = 0;
    /** Read-retry attempt number (fault injection re-rolls its
     *  uncorrectable decision per attempt). */
    std::uint32_t attempt = 0;
    /** Completion callback (fires when data is on the bus-side),
     *  carrying the completion tick and the command's status. */
    std::function<void(Tick, FlashStatus)> onComplete;
};

/**
 * Controller for one flash channel. Uses time-stamped resource
 * reservation: per-plane busy-until timestamps plus a shared
 * BandwidthLink for the channel bus, with completions delivered
 * through the event queue.
 */
class FlashController
{
  public:
    FlashController(sim::EventQueue &events, const FlashParams &params,
                    std::uint32_t channel_id, StatGroup &stats);

    /** Issue a command now; completion arrives via the event queue. */
    void issue(FlashCommand cmd);

    /** The channel bus as a shared-bandwidth link (NoC leg of the
     *  accelerator complex); waitTicks() is the channel's NoC
     *  contention counter. */
    const sim::BandwidthLink &bus() const { return bus_; }

    const FaultInjector &injector() const { return injector_; }

    // ---- lifecycle hooks (wired by the Ssd when wear modeling is
    // enabled; both default to unset, costing one branch) ----------

    /** Returns the wear-model RBER of a page (the FTL computes it);
     *  consulted by issue() for every page read. */
    using WearProbe = std::function<double(const PageAddress &)>;
    /** Observes every issued page read's final status (read-disturb
     *  accounting + lifecycle threshold checks). */
    using ReadObserver =
        std::function<void(const PageAddress &, FlashStatus)>;

    void setWearProbe(WearProbe probe)
    {
        wearProbe_ = std::move(probe);
    }
    void setReadObserver(ReadObserver observer)
    {
        readObserver_ = std::move(observer);
    }

    /** Power loss: every in-flight plane/bus reservation dies with
     *  the capacitors. (Their completion events still fire but the
     *  issuing layers have dropped the callbacks' targets.) */
    void powerLoss();

  private:
    /**
     * Timing model of one page read: array latency (with the
     * legacy retry stretch and the injected plane stall) and bus-side
     * delay (injected channel stall), plus the resulting status.
     */
    struct ReadTiming
    {
        Tick arrayTicks = 0;   ///< plane occupancy (incl. stalls)
        Tick channelStall = 0; ///< bus stall before the transfer
        FlashStatus status = FlashStatus::Ok;
    };
    ReadTiming readTiming(const PageAddress &addr,
                          std::uint32_t attempt) const;

    Tick &planeBusyUntil(const PageAddress &addr);

    /** Deterministic failure-injection decision for a page. */
    bool needsRetry(const PageAddress &addr) const;

    sim::EventQueue &events_;
    FlashParams params_;
    std::uint32_t channelId_;
    StatGroup &stats_;
    FaultInjector injector_;

    WearProbe wearProbe_;
    ReadObserver readObserver_;

    /** busy-until per (chip, plane). */
    std::vector<Tick> planeBusy_;
    /** The shared channel bus; only it serializes transfers. */
    sim::BandwidthLink bus_;
};

} // namespace deepstore::ssd

#endif // DEEPSTORE_SSD_FLASH_CONTROLLER_H
