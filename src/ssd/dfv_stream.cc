#include "ssd/dfv_stream.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace deepstore::ssd {

namespace {

/** Backoff before the first reissue of an uncorrectable page;
 *  doubles per attempt. */
constexpr double kPageRetryBackoffSeconds = 20e-6;

} // namespace

DfvStream::DfvStream(
    sim::EventQueue &events, DfvPlan plan,
    std::function<FlashController &(std::uint32_t)> route,
    StatGroup &stats)
    : events_(events), plan_(std::move(plan)),
      route_(std::move(route)), stats_(stats),
      delivered_(plan_.pages.size(), false)
{
    if (plan_.pages.empty())
        fatal("a DFV stream needs at least one page");
    if (plan_.queueDepthPages == 0)
        fatal("FLASH_DFV queue depth must be at least 1");
}

void
DfvStream::maybeIssueBurst()
{
    if (closed_ || issued_ == pagesTotal())
        return;
    // Burst barrier (§4.4): the bounded FLASH_DFV queue refills only
    // once every outstanding slot has been drained by the consumers.
    if (consumed_ < issued_)
        return;
    const std::uint64_t n = std::min<std::uint64_t>(
        plan_.queueDepthPages, pagesTotal() - issued_);
    stats_.get("dfv.bursts") += 1;
    // Stagger same-controller reads at the steady-state page
    // interval; different controllers issue in parallel.
    std::map<std::uint32_t, std::uint64_t> perChannel;
    for (std::uint64_t j = 0; j < n; ++j) {
        const std::uint64_t index = issued_ + j;
        const PageAddress &addr = plan_.pages[index];
        const Tick delay =
            perChannel[addr.channel]++ * plan_.perChannelIssueInterval;
        events_.scheduleAfter(delay, [this, index] {
            issuePage(index, 0);
        });
    }
    issued_ += n;
}

void
DfvStream::issuePage(std::uint64_t index, std::uint32_t attempt)
{
    if (closed_)
        return;
    const PageAddress &a = plan_.pages[index];
    FlashCommand cmd;
    cmd.op = FlashOp::Read;
    cmd.addr = a;
    cmd.transferBytes = plan_.transferBytesPerPage;
    cmd.attempt = attempt;
    cmd.onComplete = [this, index, attempt](Tick, FlashStatus st) {
        if (closed_)
            return;
        if (st == FlashStatus::Uncorrectable)
            pageUncorrectable(index, attempt);
        else
            pageDelivered(index, true);
    };
    route_(a.channel).issue(std::move(cmd));
}

void
DfvStream::pageUncorrectable(std::uint64_t index,
                             std::uint32_t attempt)
{
    if (attempt < plan_.maxPageRetries) {
        // Bounded reissue with exponential backoff in simulated
        // time; the injector re-rolls its decision per attempt.
        stats_.get("dfv.pageRetries") += 1;
        const Tick backoff =
            secondsToTicks(kPageRetryBackoffSeconds *
                           static_cast<double>(1ULL << attempt));
        events_.scheduleAfter(backoff, [this, index, attempt] {
            if (closed_)
                return;
            issuePage(index, attempt + 1);
        });
        return;
    }
    // Abandon: record the loss, but count the page as delivered so
    // the prefix (and the burst barrier) keeps advancing — a bad
    // page degrades coverage, it never deadlocks the scan.
    stats_.get("dfv.pagesFailed") += 1;
    auto it = std::lower_bound(failedPages_.begin(),
                               failedPages_.end(), index);
    failedPages_.insert(it, index);
    pageDelivered(index, false);
}

void
DfvStream::pageDelivered(std::uint64_t index, bool ok)
{
    if (closed_)
        return;
    DS_ASSERT(index < delivered_.size());
    DS_ASSERT(!delivered_[index]);
    delivered_[index] = true;
    if (ok) {
        stats_.get("dfv.pagesStreamed") += 1;
        stats_.get("dfv.bytesStreamed") +=
            static_cast<double>(plan_.transferBytesPerPage);
    }
    const std::uint64_t before = deliveredPrefix_;
    while (deliveredPrefix_ < delivered_.size() &&
           delivered_[deliveredPrefix_])
        ++deliveredPrefix_;
    if (deliveredPrefix_ != before && onDelivered_)
        onDelivered_();
    // The whole outstanding burst is delivered, the consumer has not
    // drained it, and more pages are waiting behind the barrier: the
    // stream is now blocked on compute, not flash. (The final burst
    // is exempt — after it there is nothing left to hold back.)
    if (!blocked_ && deliveredPrefix_ == issued_ &&
        consumed_ < issued_ && issued_ < pagesTotal()) {
        blocked_ = true;
        blockedSince_ = events_.now();
    }
}

void
DfvStream::consumedThrough(std::uint64_t pages)
{
    if (closed_)
        return;
    if (pages <= consumed_)
        return;
    DS_ASSERT(pages <= issued_);
    consumed_ = pages;
    if (blocked_ && consumed_ >= issued_) {
        const Tick stalled = events_.now() - blockedSince_;
        backpressureTicks_ += stalled;
        stats_.get("dfv.backpressureTicks") +=
            static_cast<double>(stalled);
        blocked_ = false;
    }
    maybeIssueBurst();
}

std::uint64_t
DfvStream::failedThrough(std::uint64_t pages) const
{
    return static_cast<std::uint64_t>(
        std::lower_bound(failedPages_.begin(), failedPages_.end(),
                         pages) -
        failedPages_.begin());
}

DfvPlan
DfvStream::subplan(std::uint64_t from, std::uint64_t to) const
{
    DS_ASSERT(from <= to);
    DS_ASSERT(to <= plan_.pages.size());
    DfvPlan p = plan_; // copies the scalar knobs
    p.pages.assign(plan_.pages.begin() + static_cast<long>(from),
                   plan_.pages.begin() + static_cast<long>(to));
    return p;
}

DfvStreamService::DfvStreamService(sim::EventQueue &events,
                                   Router route, StatGroup &stats)
    : events_(events), route_(std::move(route)), stats_(stats)
{
    DS_ASSERT(route_);
}

DfvStream &
DfvStreamService::open(DfvPlan plan)
{
    streams_.push_back(std::unique_ptr<DfvStream>(
        new DfvStream(events_, std::move(plan), route_, stats_)));
    ++active_;
    stats_.get("dfv.streamsOpened") += 1;
    DfvStream &s = *streams_.back();
    s.maybeIssueBurst();
    return s;
}

void
DfvStreamService::close(DfvStream &stream)
{
    for (auto &owned : streams_) {
        if (owned.get() != &stream)
            continue;
        if (owned->closed_)
            fatal("DFV stream closed twice");
        owned->closed_ = true;
        owned->onDelivered_ = nullptr;
        // Keep the object alive (in-flight completion callbacks may
        // still land and check closed_) but release the bulk memory.
        owned->plan_.pages.clear();
        owned->plan_.pages.shrink_to_fit();
        owned->delivered_.clear();
        owned->delivered_.shrink_to_fit();
        owned->failedPages_.clear();
        owned->failedPages_.shrink_to_fit();
        DS_ASSERT(active_ > 0);
        --active_;
        return;
    }
    fatal("close() on a stream this service does not own");
}

} // namespace deepstore::ssd
