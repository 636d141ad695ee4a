#include "ssd/flash_controller.h"

#include <algorithm>

#include "common/logging.h"

namespace deepstore::ssd {

void
FlashParams::validate() const
{
    if (channels == 0 || chipsPerChannel == 0 || planesPerChip == 0 ||
        blocksPerPlane == 0 || pagesPerBlock == 0 || pageBytes == 0)
        fatal("flash geometry has a zero dimension");
    if (readLatency <= 0.0 || programLatency <= 0.0 ||
        eraseLatency <= 0.0)
        fatal("flash latencies must be positive");
    if (channelBandwidth <= 0.0 || externalBandwidth <= 0.0 ||
        dramBandwidth <= 0.0)
        fatal("bandwidths must be positive");
}

const char *
toString(FlashStatus s)
{
    switch (s) {
      case FlashStatus::Ok:
        return "Ok";
      case FlashStatus::RetriedOk:
        return "RetriedOk";
      case FlashStatus::Uncorrectable:
        return "Uncorrectable";
    }
    return "?";
}

std::uint64_t
faultKey(const PageAddress &addr)
{
    // Disjoint bit fields: page[0:16) block[16:32) plane[32:40)
    // chip[40:48) channel[48:64). Exact for any geometry the
    // validator accepts, so distinct pages never collide.
    return (static_cast<std::uint64_t>(addr.channel) << 48) |
           (static_cast<std::uint64_t>(addr.chip) << 40) |
           (static_cast<std::uint64_t>(addr.plane) << 32) |
           (static_cast<std::uint64_t>(addr.block) << 16) |
           static_cast<std::uint64_t>(addr.page);
}

FlashController::FlashController(sim::EventQueue &events,
                                 const FlashParams &params,
                                 std::uint32_t channel_id,
                                 StatGroup &stats)
    : events_(events), params_(params), channelId_(channel_id),
      stats_(stats), injector_(params.faults),
      planeBusy_(static_cast<std::size_t>(params.chipsPerChannel) *
                     params.planesPerChip,
                 0),
      bus_("flash.bus." + std::to_string(channel_id),
           params.channelBandwidth)
{
    params_.validate();
    if (channel_id >= params_.channels)
        fatal("channel id %u out of range", channel_id);
}

Tick &
FlashController::planeBusyUntil(const PageAddress &addr)
{
    DS_ASSERT(addr.chip < params_.chipsPerChannel);
    DS_ASSERT(addr.plane < params_.planesPerChip);
    return planeBusy_[static_cast<std::size_t>(addr.chip) *
                          params_.planesPerChip +
                      addr.plane];
}

FlashController::ReadTiming
FlashController::readTiming(const PageAddress &addr,
                            std::uint32_t attempt) const
{
    ReadTiming t;
    // Legacy deterministic read-retry ladder: the array read is
    // stretched by the full penalty but still succeeds.
    double latency = params_.readLatency;
    if (params_.readRetryProbability > 0.0 && needsRetry(addr)) {
        latency *= 1.0 + params_.readRetryPenalty;
        t.status = FlashStatus::RetriedOk;
    }
    t.arrayTicks = secondsToTicks(latency);

    // Collect the uncorrectable verdict from every fault source —
    // the flat schedule, correlated bursts, and the wear model —
    // before charging the ladder, so overlapping sources cost one
    // ladder walk, not several.
    bool uncorrectable = false;
    const std::uint64_t key = faultKey(addr);
    if (injector_.flashFaultsEnabled()) {
        uncorrectable = injector_.pageUncorrectable(key, attempt);
        if (!uncorrectable && injector_.anyBursts())
            uncorrectable = injector_.burstUncorrectable(
                key, attempt, addr.channel, addr.chip, addr.plane,
                events_.now());
        // Latent partial-page corruption: any bad sector defeats ECC
        // on every attempt (the cells themselves are damaged), so it
        // folds into the same single ladder charge.
        if (!uncorrectable)
            uncorrectable = injector_.pageHasCorruptedSector(key);
    }
    if (!uncorrectable && wearProbe_)
        uncorrectable = injector_.wearUncorrectable(
            key, attempt, wearProbe_(addr));
    if (uncorrectable) {
        // The controller walks the whole retry ladder before
        // giving up, so a failed read still costs the stretched
        // array latency.
        t.status = FlashStatus::Uncorrectable;
        t.arrayTicks = secondsToTicks(
            params_.readLatency * (1.0 + params_.readRetryPenalty));
    }
    if (injector_.flashFaultsEnabled()) {
        t.arrayTicks += injector_.planeStallTicks(key, attempt);
        t.channelStall = injector_.channelStallTicks(key, attempt);
    }
    return t;
}

void
FlashController::powerLoss()
{
    const Tick now = events_.now();
    for (Tick &p : planeBusy_)
        p = now;
    bus_.reset(now);
}

void
FlashController::issue(FlashCommand cmd)
{
    if (cmd.addr.channel != channelId_)
        panic("command for channel %u issued to controller %u",
              cmd.addr.channel, channelId_);
    if (cmd.transferBytes > params_.pageBytes)
        fatal("transfer of %llu bytes exceeds the %llu-byte page",
              static_cast<unsigned long long>(cmd.transferBytes),
              static_cast<unsigned long long>(params_.pageBytes));

    const Tick now = events_.now();
    Tick &plane = planeBusyUntil(cmd.addr);

    switch (cmd.op) {
      case FlashOp::Read: {
        const ReadTiming t = readTiming(cmd.addr, cmd.attempt);
        Tick read_start = std::max(now, plane);
        Tick read_done = read_start + t.arrayTicks;
        plane = read_done;
        stats_.get("flash.pageReads") += 1;
        if (t.status == FlashStatus::RetriedOk)
            stats_.get("flash.readRetries") += 1;
        if (t.channelStall > 0)
            stats_.get("flash.channelStalls") += 1;
        // Lifecycle accounting: the observer runs after this read's
        // timing is fixed, so it never counts itself.
        if (readObserver_)
            readObserver_(cmd.addr, t.status);
        if (t.status == FlashStatus::Uncorrectable) {
            // The controller gives up after the ladder and reports
            // the error without a data transfer.
            stats_.get("flash.uncorrectableReads") += 1;
            if (cmd.onComplete) {
                events_.schedule(
                    read_done, [cb = std::move(cmd.onComplete),
                                read_done] {
                        cb(read_done, FlashStatus::Uncorrectable);
                    });
            }
            break;
        }
        // Bus transfer after the page lands in the page buffer: a
        // FIFO reservation on the shared channel-bus link.
        Tick xfer_done = bus_.acquireTicks(
            read_done,
            t.channelStall +
                secondsToTicks(params_.channelTransferTime(
                    cmd.transferBytes)));
        stats_.get("flash.readBytes") +=
            static_cast<double>(cmd.transferBytes);
        if (cmd.onComplete) {
            events_.schedule(xfer_done,
                             [cb = std::move(cmd.onComplete),
                              xfer_done, st = t.status] {
                                 cb(xfer_done, st);
                             });
        }
        break;
      }
      case FlashOp::Program: {
        // Bus transfer into the page buffer, then the program pulse.
        Tick xfer_done = bus_.acquireTicks(
            now, secondsToTicks(params_.channelTransferTime(
                     cmd.transferBytes)));
        Tick prog_start = std::max(xfer_done, plane);
        Tick prog_done =
            prog_start + secondsToTicks(params_.programLatency);
        plane = prog_done;
        stats_.get("flash.pagePrograms") += 1;
        stats_.get("flash.writeBytes") +=
            static_cast<double>(cmd.transferBytes);
        if (cmd.onComplete) {
            events_.schedule(prog_done,
                             [cb = std::move(cmd.onComplete),
                              prog_done] {
                                 cb(prog_done, FlashStatus::Ok);
                             });
        }
        break;
      }
      case FlashOp::Erase: {
        Tick start = std::max(now, plane);
        Tick done = start + secondsToTicks(params_.eraseLatency);
        plane = done;
        stats_.get("flash.blockErases") += 1;
        if (cmd.onComplete) {
            events_.schedule(
                done, [cb = std::move(cmd.onComplete), done] {
                    cb(done, FlashStatus::Ok);
                });
        }
        break;
      }
    }
}

bool
FlashController::needsRetry(const PageAddress &addr) const
{
    // splitmix-style hash of the physical address -> uniform [0,1).
    std::uint64_t x = (static_cast<std::uint64_t>(addr.block) << 40) ^
                      (static_cast<std::uint64_t>(addr.page) << 24) ^
                      (static_cast<std::uint64_t>(addr.chip) << 16) ^
                      (static_cast<std::uint64_t>(addr.plane) << 8) ^
                      addr.channel ^ 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    return u < params_.readRetryProbability;
}

} // namespace deepstore::ssd
