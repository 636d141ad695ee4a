/**
 * @file
 * Shared scan-execution core: the lockstep consumer that turns a
 * DFV page stream into computed features.
 *
 * One GroupScan models the read-once-broadcast scan group of §4.4:
 * every co-resident same-database scan on one accelerator subscribes
 * to the same DfvStream; the accelerator computes the SCN over each
 * delivered feature once per member (compute and weight streaming are
 * paid per member, the flash stream once per group). The group's
 * stream position advances in *runs* bounded by what the stream has
 * delivered and by the nearest member retirement point, so member
 * completions land on exact ticks without floating-point progress
 * accounting.
 *
 * Inside a run the group executes slot by slot (a lockstep slot is
 * the weight-stationary group of features sharing one weight
 * residency window): each slot first waits for its weight tiles to
 * stream over the shared DRAM link (WeightStream — the first
 * requester pays the transfer, broadcast co-subscribers ride it),
 * then replays each member's per-layer compute bursts on the
 * ComputeArbiter. Nothing is a closed-form quotient: compute is the
 * systolic slot schedule, weights are DRAM-link reservations, and the
 * flash leg is the physical DfvStream.
 *
 * The compute station drains the FLASH_DFV through a *bounded
 * feature FIFO* sized to one queue's worth of features: a delivered
 * feature latches into the FIFO (freeing its FLASH_DFV page slots)
 * as soon as the FIFO has room, and the latch of feature i waits for
 * the compute completion of feature i - depth otherwise. When flash
 * is the bottleneck the FIFO never fills, entries free at delivery,
 * and the burst cadence stays equal to the analytic
 * `readLatency + depth / page_rate` — which keeps the live path
 * inside the parity tolerance of the closed-form DeepStoreModel.
 * When compute (or the weight stream) is the bottleneck the FIFO
 * fills, the latch — and with it consumedThrough() — trails compute,
 * the burst barrier holds, and the DfvStream records real
 * backpressure on flash delivery.
 *
 * The live query scheduler runs one GroupScan per co-resident
 * same-database scan group per accelerator unit; a lone scan is a
 * single-member group, which is how the queue-depth ablation and the
 * pipeline tests drive it.
 */

#ifndef DEEPSTORE_CORE_SCAN_CORE_H
#define DEEPSTORE_CORE_SCAN_CORE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/bandwidth.h"
#include "sim/event_queue.h"
#include "ssd/dfv_stream.h"

namespace deepstore::core {

/**
 * The accelerator's systolic array as a serially reusable resource:
 * compute bursts from every scan group resident on one accelerator
 * acquire it in arrival order. Distinct groups' *flash* streams
 * proceed in parallel (separate DfvStreams on the shared
 * controllers); only the compute serializes.
 */
class ComputeArbiter
{
  public:
    /**
     * Reserve the array for `cost` ticks starting no earlier than
     * `now`; returns the completion tick.
     */
    Tick
    acquire(Tick now, Tick cost)
    {
        Tick start = freeAt_ > now ? freeAt_ : now;
        freeAt_ = start + cost;
        return freeAt_;
    }

  private:
    Tick freeAt_ = 0;
};

/**
 * The per-slot weight feed of one scan member: non-resident weight
 * tiles re-stream over the shared DRAM link once per lockstep slot.
 * The first member to request a slot's tiles reserves the link and
 * pays the transfer; co-subscribers sharing the stream (broadcast via
 * the channel level's shared L2, or WS-lockstep chips) get the
 * memoized completion tick for free. A null link or zero bytes means
 * the model is fully resident and every fetch completes instantly.
 *
 * Completion ticks are memoized per slot for the stream's lifetime
 * (the tile stays cached for drifted co-subscribers); a scan of F
 * features holds F/groupSize entries, which is fine at simulation
 * scale.
 */
class WeightStream
{
  public:
    WeightStream(sim::BandwidthLink *dram, std::uint64_t bytes_per_slot)
        : dram_(dram), bytesPerSlot_(bytes_per_slot)
    {
    }

    /**
     * Tick at which slot `slot`'s tiles are fully resident,
     * requesting the DRAM transfer at `ready` if nobody has yet.
     */
    Tick fetch(std::uint64_t slot, Tick ready);

  private:
    sim::BandwidthLink *dram_;
    std::uint64_t bytesPerSlot_;
    std::map<std::uint64_t, Tick> done_;
};

/** How delivered pages map to computable features for one scan plan
 *  (uniform steps; range-boundary partial pages round optimistically
 *  by at most one step). */
struct ScanStepShape
{
    /** Plan pages consumed per step. */
    std::uint64_t pageReadsPerStep = 1;
    /** Features made ready per step. */
    std::uint64_t featuresPerStep = 1;
};

/** One subscriber of a scan group. */
struct ScanMember
{
    /** Caller-chosen id reported back through onMemberDone. */
    std::uint64_t id = 0;
    /** Stream positions (features) this member consumes. */
    std::uint64_t features = 0;
    /** Per-feature compute bursts on the array, one per model layer
     *  (the systolic slot schedule lowered onto the unit's clock).
     *  The flash and weight legs are *not* analytic here — they are
     *  the physical stream and the WeightStream. */
    std::vector<Tick> layerBurstTicks;
    /** Weight feed for non-resident models (nullptr = resident). */
    std::shared_ptr<WeightStream> weights;
};

/** Contention counters of a group at a member retirement point. */
struct ScanGroupSnapshot
{
    /** Ticks the group waited on flash with the array willing. */
    Tick starvedTicks = 0;
    /** Ticks compute waited on the slot weight feed. */
    Tick weightStallTicks = 0;
    /** Ticks the group's stream sat blocked on compute (see
     *  DfvStream::backpressureTicks). */
    Tick backpressureTicks = 0;
};

/** One read-once-broadcast scan group (see file comment). */
class GroupScan
{
  public:
    /**
     * @param stream the group's DFV page stream, or nullptr for a
     *   degenerate plan with no pages (everything immediately ready).
     *   The caller owns the stream and closes it after onGroupDone.
     * @param features_per_slot lockstep slot width in features
     *   (wsGroupSize on weight-stationary placements, 1 otherwise).
     */
    GroupScan(sim::EventQueue &events, ComputeArbiter &arbiter,
              ssd::DfvStream *stream, ScanStepShape shape,
              std::uint64_t features_per_slot = 1);

    GroupScan(const GroupScan &) = delete;
    GroupScan &operator=(const GroupScan &) = delete;

    /** Fired (from a run-completion event) when a member's last
     *  feature completes, carrying the member id, the features
     *  actually computed from good pages (== the member's feature
     *  count minus features lost to uncorrectable pages), and a
     *  snapshot of the group's contention counters. */
    void onMemberDone(
        std::function<void(std::uint64_t, std::uint64_t,
                           const ScanGroupSnapshot &)>
            cb)
    {
        onMemberDone_ = std::move(cb);
    }

    /** Fired after the last member retires. The stream may still be
     *  open; the caller closes it. Destroying this GroupScan from
     *  inside the callback is not allowed (defer via a 0-tick
     *  event). */
    void onGroupDone(std::function<void()> cb)
    {
        onGroupDone_ = std::move(cb);
    }

    /**
     * Add a subscriber. Only legal while the group is still at
     * stream position 0 with no run latched (canAdmit()): a later
     * joiner would have missed broadcast pages.
     */
    void addMember(ScanMember member);

    /** Begin consuming: hooks the stream's delivery callback and
     *  latches the first run once data is ready. */
    void start();

    bool canAdmit() const { return position_ == 0 && !runActive_; }

    /** Features fully computed (group stream position). */
    std::uint64_t position() const { return position_; }

    bool done() const { return membersLeft_ == 0 && started_; }

    std::size_t members() const { return members_.size(); }

    /** Live subscribers (recovery introspection). */
    const std::vector<ScanMember> &memberList() const
    {
        return members_;
    }

    /** Features of member `id` computed from good pages so far
     *  (min(position, member features) minus the failed-page loss).
     *  fatal() for unknown ids. */
    std::uint64_t completedFeatures(std::uint64_t id) const;

    /** Plan pages fully consumed once `pos` features are latched
     *  (public: the recovery path slices remnant plans with it). */
    std::uint64_t pagesForPosition(std::uint64_t pos) const;

    /**
     * Remove a live member without retiring it (cancellation /
     * watchdog snatch / unit death). Returns the member's completed
     * good features. When the last member is removed the pending
     * run events (if any) are cancelled and no further callbacks
     * fire — the caller then treats the group as finished and closes
     * its stream.
     */
    std::uint64_t removeMember(std::uint64_t id);

    /**
     * Hard-stop the group: cancel the pending run events and drop
     * both callbacks. Safe to call at any time; idempotent. The
     * caller still owns/closes the stream.
     */
    void abort();

    /** Current contention counters (also handed to onMemberDone). */
    ScanGroupSnapshot snapshot() const;

  private:
    /** Latch the next run if data is ready and no run is out. */
    void pump();

    /** Station feature-FIFO capacity in lockstep slots (one DFV
     *  queue's worth of features). */
    std::uint64_t stationSlots() const;

    /** Features currently computable from the stream. */
    std::uint64_t readyFeatures() const;

    /** Features lost to failed pages within the first `f` features
     *  of the plan (approximate step rounding, capped at f). */
    std::uint64_t lostFeatures(std::uint64_t f) const;

    void runComplete(std::uint64_t new_position);

    sim::EventQueue &events_;
    ComputeArbiter &arbiter_;
    ssd::DfvStream *stream_;
    ScanStepShape shape_;
    std::uint64_t featuresPerSlot_;

    std::vector<ScanMember> members_;
    std::function<void(std::uint64_t, std::uint64_t,
                       const ScanGroupSnapshot &)>
        onMemberDone_;
    std::function<void()> onGroupDone_;

    std::uint64_t maxFeatures_ = 0;
    std::uint64_t position_ = 0;
    std::size_t membersLeft_ = 0;
    bool runActive_ = false;
    bool started_ = false;
    bool aborted_ = false;
    /** Consume-marks + completion of the latched run. */
    std::vector<sim::EventId> runEvents_;
    /** Compute-completion ticks of the slots currently staged in the
     *  bounded feature FIFO (see file comment): the latch of a new
     *  slot waits for front() once the FIFO is full. */
    std::deque<Tick> stationDone_;

    Tick idleSince_ = 0;
    Tick starvedTicks_ = 0;
    Tick weightStallTicks_ = 0;
};

} // namespace deepstore::core

#endif // DEEPSTORE_CORE_SCAN_CORE_H
