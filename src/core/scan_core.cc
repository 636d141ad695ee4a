#include "core/scan_core.h"

#include <algorithm>

#include "common/logging.h"

namespace deepstore::core {

Tick
WeightStream::fetch(std::uint64_t slot, Tick ready)
{
    if (!dram_ || bytesPerSlot_ == 0)
        return ready;
    auto it = done_.find(slot);
    if (it != done_.end())
        return it->second;
    const Tick done = dram_->acquire(ready, bytesPerSlot_);
    done_.emplace(slot, done);
    return done;
}

GroupScan::GroupScan(sim::EventQueue &events, ComputeArbiter &arbiter,
                     ssd::DfvStream *stream, ScanStepShape shape,
                     std::uint64_t features_per_slot)
    : events_(events), arbiter_(arbiter), stream_(stream),
      shape_(shape), featuresPerSlot_(features_per_slot)
{
    if (shape_.pageReadsPerStep == 0 || shape_.featuresPerStep == 0)
        fatal("scan step shape needs non-zero steps");
    if (featuresPerSlot_ == 0)
        fatal("a lockstep slot needs at least one feature");
}

void
GroupScan::addMember(ScanMember member)
{
    if (member.features == 0)
        fatal("a scan member needs at least one feature");
    if (!canAdmit())
        panic("scan group admission after the stream advanced "
              "(position %llu)",
              static_cast<unsigned long long>(position_));
    maxFeatures_ = std::max(maxFeatures_, member.features);
    members_.push_back(std::move(member));
    ++membersLeft_;
    if (started_)
        pump();
}

void
GroupScan::start()
{
    DS_ASSERT(!started_);
    if (members_.empty())
        fatal("scan group started with no members");
    started_ = true;
    idleSince_ = events_.now();
    if (stream_) {
        stream_->onDelivered([this] { pump(); });
    }
    pump();
}

std::uint64_t
GroupScan::readyFeatures() const
{
    if (!stream_)
        return maxFeatures_;
    std::uint64_t steps =
        stream_->pagesDelivered() / shape_.pageReadsPerStep;
    std::uint64_t ready = steps * shape_.featuresPerStep;
    return std::min(ready, maxFeatures_);
}

std::uint64_t
GroupScan::pagesForPosition(std::uint64_t pos) const
{
    if (!stream_)
        return 0;
    if (pos >= maxFeatures_)
        return stream_->pagesTotal();
    return (pos / shape_.featuresPerStep) * shape_.pageReadsPerStep;
}

std::uint64_t
GroupScan::lostFeatures(std::uint64_t f) const
{
    if (!stream_ || stream_->pagesFailed() == 0)
        return 0;
    const std::uint64_t failed =
        stream_->failedThrough(pagesForPosition(f));
    if (failed == 0)
        return 0;
    // Approximate, conservative mapping of failed pages to features:
    // packed features lose a whole page's worth; multi-page features
    // lose at least one feature per failed page.
    const std::uint64_t lost =
        (failed * shape_.featuresPerStep + shape_.pageReadsPerStep -
         1) /
        shape_.pageReadsPerStep;
    return std::min(lost, f);
}

std::uint64_t
GroupScan::completedFeatures(std::uint64_t id) const
{
    for (const auto &m : members_) {
        if (m.id != id)
            continue;
        const std::uint64_t done = std::min(position_, m.features);
        return done - lostFeatures(done);
    }
    fatal("completedFeatures: unknown member id %llu",
          static_cast<unsigned long long>(id));
}

std::uint64_t
GroupScan::removeMember(std::uint64_t id)
{
    const std::uint64_t done = completedFeatures(id);
    members_.erase(std::remove_if(members_.begin(), members_.end(),
                                  [id](const ScanMember &m) {
                                      return m.id == id;
                                  }),
                   members_.end());
    DS_ASSERT(membersLeft_ > 0);
    --membersLeft_;
    maxFeatures_ = position_;
    for (const auto &m : members_)
        maxFeatures_ = std::max(maxFeatures_, m.features);
    if (membersLeft_ == 0)
        abort();
    return done;
}

void
GroupScan::abort()
{
    if (aborted_)
        return;
    aborted_ = true;
    for (sim::EventId ev : runEvents_)
        events_.cancel(ev);
    runEvents_.clear();
    runActive_ = false;
    onMemberDone_ = nullptr;
    onGroupDone_ = nullptr;
}

std::uint64_t
GroupScan::stationSlots() const
{
    if (!stream_)
        return 1;
    const std::uint64_t capacity_features =
        static_cast<std::uint64_t>(stream_->queueDepthPages()) /
        shape_.pageReadsPerStep * shape_.featuresPerStep;
    return std::max<std::uint64_t>(1,
                                   capacity_features /
                                       featuresPerSlot_);
}

ScanGroupSnapshot
GroupScan::snapshot() const
{
    ScanGroupSnapshot s;
    s.starvedTicks = starvedTicks_;
    s.weightStallTicks = weightStallTicks_;
    s.backpressureTicks = stream_ ? stream_->backpressureTicks() : 0;
    return s;
}

void
GroupScan::pump()
{
    if (!started_ || aborted_ || runActive_ ||
        position_ >= maxFeatures_)
        return;
    const std::uint64_t ready = readyFeatures();
    if (ready <= position_)
        return; // starving; a delivery callback re-pumps
    const Tick now = events_.now();
    starvedTicks_ += now - idleSince_;

    // Run bounds: constant membership inside a run, so member
    // retirements land on exact run-completion ticks.
    std::uint64_t limit = maxFeatures_;
    for (const auto &m : members_) {
        if (m.features <= position_)
            continue;
        limit = std::min(limit, m.features);
    }
    DS_ASSERT(limit > position_);
    const std::uint64_t end = std::min(ready, limit);

    runActive_ = true;
    runEvents_.clear();

    // Slot-by-slot execution: weight tiles stream in (shared DRAM
    // link), then each member replays its per-layer compute bursts on
    // the array. A slot's FLASH_DFV entries free when the slot
    // *latches* into the station's bounded feature FIFO: immediately
    // on delivery while the FIFO has room, or — once one DFV queue's
    // worth of features is staged ahead of the array — only when the
    // oldest staged slot finishes computing. Flash-bound scans thus
    // keep the analytic burst cadence (entries free at delivery),
    // while compute- or weight-bound scans throttle the latch to
    // compute speed, hold the burst barrier, and exert real
    // backpressure on flash delivery.
    Tick cursor = now;
    std::uint64_t pos = position_;
    std::uint64_t marked_pages = pagesForPosition(position_);
    const std::uint64_t station_slots = stationSlots();
    while (pos < end) {
        const std::uint64_t slot = pos / featuresPerSlot_;
        const std::uint64_t take =
            std::min<std::uint64_t>(end,
                                    (slot + 1) * featuresPerSlot_) -
            pos;
        Tick admit = now;
        while (stationDone_.size() >= station_slots) {
            admit = std::max(admit, stationDone_.front());
            stationDone_.pop_front();
        }
        Tick ready_at = cursor;
        for (auto &m : members_) {
            if (m.features <= pos || !m.weights)
                continue;
            ready_at = std::max(ready_at,
                                m.weights->fetch(slot, cursor));
            // Double-buffer: start streaming the next slot's tiles
            // while this slot computes.
            if ((slot + 1) * featuresPerSlot_ < m.features)
                m.weights->fetch(slot + 1, cursor);
        }
        weightStallTicks_ += ready_at - cursor;
        Tick slot_done = ready_at;
        for (const auto &m : members_) {
            if (m.features <= pos)
                continue;
            Tick burst_done = ready_at;
            for (Tick lt : m.layerBurstTicks)
                burst_done = arbiter_.acquire(
                    burst_done, lt * static_cast<Tick>(take));
            slot_done = std::max(slot_done, burst_done);
        }
        stationDone_.push_back(slot_done);
        pos += take;
        const std::uint64_t pages = pagesForPosition(pos);
        if (stream_ && pages > marked_pages) {
            marked_pages = pages;
            runEvents_.push_back(
                events_.schedule(admit, [this, pages] {
                    if (stream_)
                        stream_->consumedThrough(pages);
                }));
        }
        cursor = slot_done;
    }
    runEvents_.push_back(events_.schedule(cursor, [this, end] {
        runComplete(end);
    }));
}

void
GroupScan::runComplete(std::uint64_t new_position)
{
    DS_ASSERT(runActive_);
    runActive_ = false;
    runEvents_.clear();
    const std::uint64_t old_position = position_;
    position_ = new_position;
    idleSince_ = events_.now();

    // Retire members whose last feature just completed, reporting
    // how many features each actually computed from good pages.
    for (const auto &m : members_) {
        if (m.features > old_position && m.features <= new_position) {
            DS_ASSERT(membersLeft_ > 0);
            --membersLeft_;
            if (onMemberDone_)
                onMemberDone_(m.id,
                              m.features - lostFeatures(m.features),
                              snapshot());
        }
    }
    if (membersLeft_ == 0) {
        if (onGroupDone_)
            onGroupDone_();
        return;
    }
    pump();
}

} // namespace deepstore::core
