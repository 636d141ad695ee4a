#include "ssd/ssd.h"

#include <algorithm>

#include "common/logging.h"

namespace deepstore::ssd {

Ssd::Ssd(sim::EventQueue &events, FlashParams params)
    : events_(events), params_(params), geometry_(params_),
      stats_("ssd"), ftl_(params_, stats_),
      dram_("ssd.dram", params_.dramBandwidth)
{
    params_.validate();
    controllers_.reserve(params_.channels);
    for (std::uint32_t c = 0; c < params_.channels; ++c) {
        controllers_.push_back(std::make_unique<FlashController>(
            events_, params_, c, stats_));
    }
    if (params_.wear.enabled) {
        // Couple the controllers to the FTL lifecycle: reads roll
        // their uncorrectable probability against the block's RBER
        // (identically for issue and estimate), and issued reads
        // feed the decay counters / threshold checks back.
        for (auto &c : controllers_) {
            c->setWearProbe([this](const PageAddress &a) {
                return ftl_.uncorrectableProbability(
                    geometry_.encode(a), events_.now());
            });
            c->setReadObserver(
                [this](const PageAddress &a, FlashStatus st) {
                    onFlashRead(a, st);
                });
        }
    }
}

FlashController &
Ssd::controller(std::uint32_t channel)
{
    if (channel >= controllers_.size())
        panic("channel %u out of range", channel);
    return *controllers_[channel];
}

Tick
Ssd::nocWaitTicks() const
{
    Tick total = 0;
    for (const auto &c : controllers_)
        total += c->bus().waitTicks();
    return total;
}

void
Ssd::syncLinkStats()
{
    stats_.get("noc.waitTicks")
        .set(static_cast<double>(nocWaitTicks()));
    stats_.get("dram.waitTicks")
        .set(static_cast<double>(dram_.waitTicks()));
    stats_.get("dram.busyTicks")
        .set(static_cast<double>(dram_.busyTicks()));
}

Tick
Ssd::hostDispatchTick() const
{
    return events_.now() + secondsToTicks(params_.commandOverhead);
}

void
Ssd::hostWrite(std::uint64_t lpn_start, std::uint64_t count,
               Completion on_complete)
{
    DS_ASSERT(count > 0);
    stats_.get("host.writeCommands") += 1;
    auto remaining = std::make_shared<std::uint64_t>(count);
    auto last = std::make_shared<Tick>(0);

    events_.schedule(hostDispatchTick(), [this, lpn_start, count,
                                          remaining, last,
                                          cb = std::move(
                                              on_complete)] {
        for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t lpn = lpn_start + i;
            WriteResult wr = ftl_.write(lpn, events_.now());
            PageAddress addr = geometry_.decode(wr.ppn);
            FlashCommand cmd;
            cmd.op = FlashOp::Program;
            cmd.addr = addr;
            cmd.transferBytes = params_.pageBytes;
            cmd.onComplete = [remaining, last, cb](Tick t,
                                                   FlashStatus) {
                *last = std::max(*last, t);
                if (--*remaining == 0 && cb)
                    cb(*last);
            };
            controllers_[addr.channel]->issue(std::move(cmd));
        }
    });
}

void
Ssd::hostRead(std::uint64_t lpn_start, std::uint64_t count,
              Completion on_complete)
{
    DS_ASSERT(count > 0);
    stats_.get("host.readCommands") += 1;
    auto remaining = std::make_shared<std::uint64_t>(count);
    auto last = std::make_shared<Tick>(0);

    events_.schedule(hostDispatchTick(), [this, lpn_start, count,
                                          remaining, last,
                                          cb = std::move(
                                              on_complete)] {
        for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t lpn = lpn_start + i;
            std::uint64_t ppn = ftl_.translate(lpn);
            PageAddress addr = geometry_.decode(ppn);
            FlashCommand cmd;
            cmd.op = FlashOp::Read;
            cmd.addr = addr;
            cmd.transferBytes = params_.pageBytes;
            cmd.onComplete = [this, remaining, last,
                              cb](Tick t, FlashStatus) {
                // External interface transfer serializes at the
                // PCIe-class bandwidth.
                Tick xfer_start = std::max(t, externalBusyUntil_);
                Tick xfer_done =
                    xfer_start +
                    secondsToTicks(
                        static_cast<double>(params_.pageBytes) /
                        params_.externalBandwidth);
                externalBusyUntil_ = xfer_done;
                stats_.get("host.readBytes") +=
                    static_cast<double>(params_.pageBytes);
                events_.schedule(xfer_done,
                                 [remaining, last, cb, xfer_done] {
                    *last = std::max(*last, xfer_done);
                    if (--*remaining == 0 && cb)
                        cb(*last);
                });
            };
            controllers_[addr.channel]->issue(std::move(cmd));
        }
    });
}

void
Ssd::hostTrim(std::uint64_t lpn_start, std::uint64_t count,
              Completion on_complete)
{
    DS_ASSERT(count > 0);
    stats_.get("host.trimCommands") += 1;
    events_.schedule(hostDispatchTick(), [this, lpn_start, count,
                                          cb = std::move(
                                              on_complete)] {
        auto erased = ftl_.trim(lpn_start, count);
        if (erased.empty()) {
            if (cb)
                cb(events_.now());
            return;
        }
        // Erase the superblock on every plane it spans.
        auto remaining = std::make_shared<std::uint64_t>(
            static_cast<std::uint64_t>(erased.size()) *
            params_.channels * params_.chipsPerChannel *
            params_.planesPerChip);
        auto last = std::make_shared<Tick>(0);
        for (std::uint32_t sb : erased) {
            for (std::uint32_t ch = 0; ch < params_.channels; ++ch) {
                for (std::uint32_t chip = 0;
                     chip < params_.chipsPerChannel; ++chip) {
                    for (std::uint32_t plane = 0;
                         plane < params_.planesPerChip; ++plane) {
                        FlashCommand cmd;
                        cmd.op = FlashOp::Erase;
                        cmd.addr = PageAddress{ch, chip, plane, sb, 0};
                        cmd.onComplete = [remaining, last,
                                          cb](Tick t, FlashStatus) {
                            *last = std::max(*last, t);
                            if (--*remaining == 0 && cb)
                                cb(*last);
                        };
                        controllers_[ch]->issue(std::move(cmd));
                    }
                }
            }
        }
    });
}

void
Ssd::internalRead(std::uint64_t ppn, std::uint64_t bytes,
                  Completion on_complete)
{
    PageAddress addr = geometry_.decode(ppn);
    FlashCommand cmd;
    cmd.op = FlashOp::Read;
    cmd.addr = addr;
    cmd.transferBytes = std::min(bytes, params_.pageBytes);
    cmd.onComplete = [cb = std::move(on_complete)](Tick t,
                                                   FlashStatus) {
        if (cb)
            cb(t);
    };
    stats_.get("internal.reads") += 1;
    controllers_[addr.channel]->issue(std::move(cmd));
}

void
Ssd::scrubRead(std::uint64_t ppn, StatusCompletion on_complete)
{
    PageAddress addr = geometry_.decode(ppn);
    FlashCommand cmd;
    cmd.op = FlashOp::Read;
    cmd.addr = addr;
    cmd.transferBytes = params_.pageBytes;
    cmd.onComplete = [cb = std::move(on_complete)](Tick t,
                                                   FlashStatus st) {
        if (cb)
            cb(t, st);
    };
    stats_.get("scrub.reads") += 1;
    controllers_[addr.channel]->issue(std::move(cmd));
}

PageAddress
Ssd::physicalAddress(std::uint64_t lpn) const
{
    return geometry_.decode(ftl_.translate(lpn));
}

void
Ssd::storePayload(std::uint64_t lpn, std::vector<std::uint8_t> bytes)
{
    if (bytes.size() > params_.pageBytes)
        fatal("payload of %zu bytes exceeds page size", bytes.size());
    payloads_[lpn] = std::move(bytes);
}

const std::vector<std::uint8_t> *
Ssd::payload(std::uint64_t lpn) const
{
    auto it = payloads_.find(lpn);
    return it == payloads_.end() ? nullptr : &it->second;
}

// ---- flash lifecycle (wear -> relocation -> retirement) ---------

void
Ssd::onFlashRead(const PageAddress &addr, FlashStatus status)
{
    std::uint64_t ppn = geometry_.encode(addr);
    ftl_.noteRead(ppn);
    if (status == FlashStatus::RetriedOk)
        ftl_.noteRetried(ppn);
    else if (status == FlashStatus::Uncorrectable)
        ftl_.noteUncorrectable(ppn);

    std::uint32_t phys =
        static_cast<std::uint32_t>(ppn / ftl_.superblockPages());
    LifecycleAction act = ftl_.lifecycleAction(phys, events_.now());
    if (act == LifecycleAction::None)
        return;
    // We are inside a controller's issue(); start the copy on a
    // fresh event. beginRelocation() dedupes concurrent triggers
    // from the same tick batch; the generation guard drops triggers
    // that straddle a power loss.
    const bool retire = act == LifecycleAction::Retire;
    const std::uint64_t gen = powerGen_;
    events_.scheduleAfter(0, [this, phys, retire, gen] {
        if (gen != powerGen_)
            return;
        startRelocation(phys, retire);
    });
}

void
Ssd::startRelocation(std::uint32_t phys, bool retire_old)
{
    auto job = ftl_.beginRelocation(phys);
    if (!job)
        return; // already relocating, retired, unmapped, or full
    auto st = std::make_shared<RelocState>();
    st->job = std::move(*job);
    st->retireOld = retire_old;
    st->gen = powerGen_;
    relocations_.push_back(st);
    relocationBatch(st);
}

void
Ssd::relocationBatch(const std::shared_ptr<RelocState> &st)
{
    if (st->gen != powerGen_)
        return; // power loss aborted this copy
    const std::uint64_t total = st->job.validOffsets.size();
    if (st->next >= total) {
        finishRelocation(st);
        return;
    }
    std::uint64_t batch = std::min<std::uint64_t>(
        std::max<std::uint32_t>(params_.wear.relocationBatchPages, 1),
        total - st->next);
    auto remaining = std::make_shared<std::uint64_t>(batch);
    const std::uint64_t gen = st->gen;
    const std::uint64_t sp = ftl_.superblockPages();
    for (std::uint64_t i = 0; i < batch; ++i) {
        std::uint64_t off = st->job.validOffsets[st->next + i];
        PageAddress src = geometry_.decode(
            static_cast<std::uint64_t>(st->job.oldPhys) * sp + off);
        PageAddress dst = geometry_.decode(
            static_cast<std::uint64_t>(st->job.newPhys) * sp + off);
        // Read the valid page off the decaying block, then program
        // it into the copy — real commands on the shared per-channel
        // controllers, contending with scans and host I/O. (Payloads
        // are keyed by LPN, so the copy is timing-only; a read that
        // comes back Uncorrectable is still copied — ECC heroics on
        // the GC path are not modeled.)
        FlashCommand rd;
        rd.op = FlashOp::Read;
        rd.addr = src;
        rd.transferBytes = params_.pageBytes;
        rd.onComplete = [this, st, remaining, dst,
                         gen](Tick t, FlashStatus) {
            if (gen != powerGen_)
                return;
            // The valid page stages through SSD DRAM on its way to
            // the new block, drawing on the same DRAM channel as
            // accelerator weight streams and QC traffic.
            const Tick staged = dram_.acquire(t, params_.pageBytes);
            events_.schedule(staged, [this, st, remaining, dst, gen] {
                if (gen != powerGen_)
                    return;
                FlashCommand wr;
                wr.op = FlashOp::Program;
                wr.addr = dst;
                wr.transferBytes = params_.pageBytes;
                wr.onComplete = [this, st, remaining,
                                 gen](Tick, FlashStatus) {
                    if (gen != powerGen_)
                        return;
                    if (--*remaining == 0)
                        relocationBatch(st); // next batch (or finish)
                };
                controller(wr.addr.channel).issue(std::move(wr));
            });
        };
        controller(src.channel).issue(std::move(rd));
    }
    st->next += batch;
}

void
Ssd::finishRelocation(const std::shared_ptr<RelocState> &st)
{
    relocations_.erase(
        std::remove(relocations_.begin(), relocations_.end(), st),
        relocations_.end());
    bool committed =
        ftl_.finishRelocation(st->job, st->retireOld, events_.now());
    if (!committed || st->retireOld)
        return; // abandoned, or the source left service for good
    // The source rejoined the free pool: pay the physical erase on
    // every plane it spans (fire-and-forget; the FTL already counted
    // the superblock erase).
    for (std::uint32_t ch = 0; ch < params_.channels; ++ch) {
        for (std::uint32_t chip = 0; chip < params_.chipsPerChannel;
             ++chip) {
            for (std::uint32_t plane = 0;
                 plane < params_.planesPerChip; ++plane) {
                FlashCommand cmd;
                cmd.op = FlashOp::Erase;
                cmd.addr = PageAddress{ch, chip, plane,
                                       st->job.oldPhys, 0};
                controllers_[ch]->issue(std::move(cmd));
            }
        }
    }
}

void
Ssd::powerLoss()
{
    stats_.get("powerLosses") += 1;
    ++powerGen_;
    for (auto &st : relocations_)
        ftl_.abortRelocation(st->job);
    relocations_.clear();
    for (auto &c : controllers_)
        c->powerLoss();
    dram_.reset(events_.now());
    externalBusyUntil_ = events_.now();
}

} // namespace deepstore::ssd
