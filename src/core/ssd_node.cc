#include "core/ssd_node.h"

#include "common/logging.h"

namespace deepstore::core {

SsdNode::SsdNode(sim::EventQueue &events, SsdNodeConfig config,
                 std::uint32_t index)
    : config_(std::move(config)), index_(index),
      ssd_(std::make_unique<ssd::Ssd>(events, config_.flash)),
      model_(config_.flash)
{
    // Scan streams issue real flash reads through the *same*
    // per-channel controllers that serve this node's hostRead/
    // hostWrite and metadata persistence, so query and host traffic
    // observably contend for planes and channel buses.
    dfv_ = std::make_unique<ssd::DfvStreamService>(
        events,
        [this](std::uint32_t channel) -> ssd::FlashController & {
            return ssd_->controller(channel);
        },
        ssd_->stats());
    QuerySchedulerConfig scfg;
    scfg.recovery = config_.recovery;
    // The node's accelerator-unit fault domain shares its flash
    // fault schedule's seed and unit-failure list.
    scfg.faults = config_.flash.faults;
    scfg.unitsAtLevel[static_cast<std::size_t>(Level::SsdLevel)] = 1;
    scfg.unitsAtLevel[static_cast<std::size_t>(Level::ChannelLevel)] =
        config_.flash.channels;
    scfg.unitsAtLevel[static_cast<std::size_t>(Level::ChipLevel)] =
        config_.flash.channels * config_.flash.chipsPerChannel;
    // Weight streams, QC probes, hit rescores, and top-K reduces all
    // arbitrate on this node's one DRAM link — the same link its FTL
    // relocation copies stage through.
    scfg.dram = &ssd_->dramLink();
    scheduler_ = std::make_unique<QueryScheduler>(events, scfg, *dfv_,
                                                  &ssd_->stats());
}

StatGroup &
SsdNode::stats()
{
    return ssd_->stats();
}

std::uint64_t
SsdNode::allocatePages(std::uint64_t pages)
{
    DS_ASSERT(pages > 0);
    const std::uint64_t start = nextFreeLpn_;
    nextFreeLpn_ += pages;
    if (nextFreeLpn_ > reservedMetadataLpn())
        fatal("node %u out of LPN space: %llu pages requested past "
              "the reserved metadata block",
              index_, static_cast<unsigned long long>(pages));
    return start;
}

void
SsdNode::hostWrite(std::uint64_t lpn_start, std::uint64_t count,
                   ssd::Completion on_complete)
{
    ssd_->hostWrite(lpn_start, count, std::move(on_complete));
}

void
SsdNode::hostRead(std::uint64_t lpn_start, std::uint64_t count,
                  ssd::Completion on_complete)
{
    ssd_->hostRead(lpn_start, count, std::move(on_complete));
}

void
SsdNode::hostTrim(std::uint64_t lpn_start, std::uint64_t count,
                  ssd::Completion on_complete)
{
    ssd_->hostTrim(lpn_start, count, std::move(on_complete));
}

void
SsdNode::scrubRead(std::uint64_t lpn,
                   ssd::Ssd::StatusCompletion on_complete)
{
    ssd_->scrubRead(ssd_->ftl().translate(lpn),
                    std::move(on_complete));
}

std::uint64_t
SsdNode::translate(std::uint64_t lpn)
{
    return ssd_->ftl().translate(lpn);
}

void
SsdNode::registerWrite(std::uint64_t lpn)
{
    ssd_->ftl().write(lpn);
}

void
SsdNode::trimPages(std::uint64_t lpn_start, std::uint64_t pages)
{
    ssd_->ftl().trim(lpn_start, pages);
}

std::uint64_t
SsdNode::mappingEpoch() const
{
    return ssd_->ftl().mappingEpoch();
}

std::uint64_t
SsdNode::reservedMetadataLpn() const
{
    return config_.flash.totalPages() - ssd_->ftl().superblockPages();
}

void
SsdNode::storePayload(std::uint64_t lpn,
                      std::vector<std::uint8_t> bytes)
{
    ssd_->storePayload(lpn, std::move(bytes));
}

const std::vector<std::uint8_t> *
SsdNode::payload(std::uint64_t lpn) const
{
    return ssd_->payload(lpn);
}

ScanPlan
SsdNode::resolvePlan(const Placement &placement,
                     const DbMetadata &local_md,
                     std::uint64_t local_start,
                     std::uint64_t local_end)
{
    return resolveScanPlan(
        placement, config_.flash, local_md, local_start, local_end,
        [this](std::uint64_t lpn) {
            return ssd_->ftl().translate(lpn);
        },
        ssd_->ftl().mappingEpoch());
}

Tick
SsdNode::nocWaitTicks() const
{
    return ssd_->nocWaitTicks();
}

void
SsdNode::syncLinkStats()
{
    ssd_->syncLinkStats();
}

void
SsdNode::failAllInFlight(QueryOutcome outcome)
{
    scheduler_->failAllInFlight(outcome);
}

void
SsdNode::devicePowerLoss()
{
    ssd_->powerLoss();
}

void
SsdNode::kill()
{
    if (!alive_)
        return;
    // Mark dead *first*: the failed sub-queries' finalizes run
    // synchronously and the coordinator keys its re-striping decision
    // off alive().
    alive_ = false;
    scheduler_->failAllInFlight(QueryOutcome::Degraded);
    ssd_->powerLoss();
}

} // namespace deepstore::core
