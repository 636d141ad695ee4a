#include "core/query_scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "core/scan_core.h"

namespace deepstore::core {

const char *
toString(QueryState s)
{
    switch (s) {
      case QueryState::Parsed: return "Parsed";
      case QueryState::CacheProbe: return "CacheProbe";
      case QueryState::Striped: return "Striped";
      case QueryState::Scanning: return "Scanning";
      case QueryState::Reduce: return "Reduce";
      case QueryState::Complete: return "Complete";
      case QueryState::Degraded: return "Degraded";
    }
    return "unknown";
}

bool
isTerminal(QueryState s)
{
    return s == QueryState::Complete || s == QueryState::Degraded;
}

const char *
toString(QueryOutcome o)
{
    switch (o) {
      case QueryOutcome::Success: return "Success";
      case QueryOutcome::Degraded: return "Degraded";
      case QueryOutcome::DeadlineExceeded: return "DeadlineExceeded";
      case QueryOutcome::Aborted: return "Aborted";
      case QueryOutcome::PowerLoss: return "PowerLoss";
    }
    return "unknown";
}

namespace {

/** Backoff before the first shard re-dispatch; doubles per retry. */
constexpr double kShardRetryBackoffSeconds = 100e-6;

/** Parent placement level for re-striping fallback. */
std::optional<Level>
parentLevel(Level l)
{
    switch (l) {
      case Level::ChipLevel:
        return Level::ChannelLevel;
      case Level::ChannelLevel:
        return Level::SsdLevel;
      case Level::SsdLevel:
        return std::nullopt;
    }
    return std::nullopt;
}

/** Unique per-incarnation stream signature: a re-striped remnant's
 *  page list differs from any original per-unit plan, so it must
 *  never join an in-flight broadcast group. */
std::uint64_t
remnantSignature(std::uint64_t base, std::uint64_t seq,
                 std::uint32_t retries)
{
    std::uint64_t x =
        base ^ (seq * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(retries) + 1);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    return x ^ (x >> 31);
}

} // namespace

/** Per-query bookkeeping. */
struct QueryScheduler::QueryInfo
{
    QuerySubmission sub;
    QueryState state = QueryState::Parsed;
    QueryOutcome outcome = QueryOutcome::Success;
    Tick submitTick = 0;
    Tick completeTick = 0;
    std::uint32_t outstandingShards = 0;
    /** Features in the query's full range (sum over shards). */
    std::uint64_t totalFeatures = 0;
    /** Features scanned from good pages across all shard
     *  incarnations. */
    std::uint64_t coveredFeatures = 0;
    /** Shard seqs ever created for this query (filter against the
     *  scheduler's live shard map). */
    std::vector<std::uint64_t> shardSeqs;
    /** Contention decomposition accumulated as shards retire. */
    QueryRunStats run;
    sim::EventId deadlineEvent = 0;
    bool deadlineArmed = false;
};

/** What survives of a shard when its unit dies, its watchdog fires,
 *  or its query is torn down: credited progress plus the remnant
 *  plan that re-striping dispatches elsewhere. */
struct QueryScheduler::ShardRemnant
{
    std::uint64_t seq = 0;
    std::uint64_t featuresDone = 0;
    std::uint64_t featuresLeft = 0;
    ssd::DfvPlan plan; ///< pages still to scan (may be empty)
    std::vector<Tick> layerTicks;
    std::uint64_t featuresPerSlot = 1;
    std::shared_ptr<WeightStream> weights;
    std::uint64_t dbKey = 0;
    std::uint64_t signature = 0; ///< base (query-level) signature
    ScanStepShape shape;
};

/**
 * One countable accelerator instance. Holds up to `maxResident`
 * concurrently scanning shards plus a FIFO queue of waiting shards.
 * Shards are grouped by (dbKey, plan signature) into GroupScans; each
 * group owns one DfvStream of real flash reads (read-once-broadcast)
 * and the groups of one unit serialize their compute batches on the
 * unit's ComputeArbiter. All progress happens through stream-delivery
 * and batch-completion events.
 *
 * The unit is also the failure boundary: fail() (scheduled by the
 * fault schedule) snatches every shard — waiting or mid-scan — into
 * ShardRemnants and hands them back to the scheduler for
 * re-striping; detachShard() does the same for a single shard
 * (watchdog fires, deadlines, cancellation).
 */
class QueryScheduler::AcceleratorUnit
{
  public:
    /** A shard placement request. */
    struct ShardReq
    {
        std::uint64_t seq = 0;
        std::uint64_t features = 0;
        /** Per-feature compute bursts (systolic slot schedule). */
        std::vector<Tick> layerTicks;
        std::uint64_t featuresPerSlot = 1;
        /** Weight feed (shared for broadcast placements). */
        std::shared_ptr<WeightStream> weights;
        std::uint64_t dbKey = 0;
        /** Base (query-level) plan signature, reported in
         *  remnants. */
        std::uint64_t baseSignature = 0;
        /** Stream-sharing signature (== baseSignature for original
         *  shards; unique for re-striped remnants). */
        std::uint64_t signature = 0;
        ScanStepShape shape;
        ssd::DfvPlan plan;
    };

    AcceleratorUnit(sim::EventQueue &events, QueryScheduler &sched,
                    ssd::DfvStreamService &dfv,
                    std::uint32_t max_resident, Tick watchdog_ticks,
                    StatGroup &stats)
        : events_(events), sched_(sched), dfv_(dfv),
          maxResident_(max_resident),
          watchdogTicks_(watchdog_ticks), stats_(stats)
    {
        DS_ASSERT(maxResident_ > 0);
    }

    ~AcceleratorUnit()
    {
        // Streams of still-open groups belong to the service; close
        // them so active() stays truthful on teardown.
        for (auto &g : groups_)
            if (g->stream)
                dfv_.close(*g->stream);
    }

    void
    join(ShardReq req)
    {
        DS_ASSERT(req.features > 0);
        if (dead_) {
            // Lost a race with this unit's death; bounce the shard
            // straight back for re-striping.
            sched_.shardFailed(remnantOf(req));
            return;
        }
        armWatchdog(req.seq);
        if (residents_ < maxResident_)
            admit(std::move(req));
        else
            waiting_.push_back(std::move(req));
    }

    /**
     * Scheduled unit death: every shard (waiting or scanning) is
     * snatched into a remnant and handed back to the scheduler; the
     * unit refuses all future work. In-flight flash completions
     * drain harmlessly (their streams are closed, callbacks
     * guarded). Idempotent.
     */
    void
    fail()
    {
        if (dead_)
            return;
        dead_ = true;
        stats_.get("sched.unitFailures") += 1;
        std::vector<ShardRemnant> remnants;
        for (auto &g : groups_) {
            if (g->finished)
                continue;
            const std::uint64_t pos = g->scan->position();
            for (const auto &m : g->scan->memberList()) {
                if (m.features <= pos)
                    continue; // already retired
                remnants.push_back(remnantOfMember(*g, m));
            }
            g->scan->abort();
            if (g->stream) {
                dfv_.close(*g->stream);
                g->stream = nullptr;
            }
            g->finished = true;
        }
        for (auto &req : waiting_)
            remnants.push_back(remnantOf(req));
        waiting_.clear();
        residents_ = 0;
        for (auto &[seq, ev] : watchdogs_)
            events_.cancel(ev);
        watchdogs_.clear();
        scheduleCleanup();
        for (auto &r : remnants)
            sched_.shardFailed(std::move(r));
    }

    bool alive() const { return !dead_; }

    /**
     * Remove one shard without retiring it (watchdog / deadline /
     * cancellation). Returns the remnant, or nullopt when the shard
     * is not on this unit (already finished or in re-dispatch
     * transit).
     */
    std::optional<ShardRemnant>
    detachShard(std::uint64_t seq)
    {
        disarmWatchdog(seq);
        for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
            if (it->seq != seq)
                continue;
            ShardRemnant r = remnantOf(*it);
            waiting_.erase(it);
            return r;
        }
        for (auto &g : groups_) {
            if (g->finished)
                continue;
            const auto &members = g->scan->memberList();
            auto mit = std::find_if(members.begin(), members.end(),
                                    [seq](const ScanMember &m) {
                                        return m.id == seq;
                                    });
            if (mit == members.end() ||
                mit->features <= g->scan->position())
                continue;
            ShardRemnant r = remnantOfMember(*g, *mit);
            g->scan->removeMember(seq);
            DS_ASSERT(residents_ > 0);
            --residents_;
            if (g->scan->done()) {
                if (g->stream) {
                    dfv_.close(*g->stream);
                    g->stream = nullptr;
                }
                g->finished = true;
            }
            scheduleCleanup();
            return r;
        }
        return std::nullopt;
    }

    std::size_t residents() const { return residents_; }
    std::size_t waiting() const { return waiting_.size(); }

    /**
     * Schedule an auxiliary work item (QC probe share, cache-hit
     * rescore) on this unit: pull `dram_bytes` over the shared DRAM
     * link, then run `compute_ticks` on the array behind whatever
     * scan bursts already hold it. Returns the completion tick (now
     * for a dead unit — the caller treats that unit's share as
     * lost).
     */
    Tick
    auxWork(Tick compute_ticks, std::uint64_t dram_bytes,
            sim::BandwidthLink *dram)
    {
        const Tick now = events_.now();
        if (dead_)
            return now;
        const Tick ready = dram && dram_bytes > 0
                               ? dram->acquire(now, dram_bytes)
                               : now;
        return arbiter_.acquire(ready, compute_ticks);
    }

  private:
    struct Group
    {
        std::uint64_t dbKey = 0;
        std::uint64_t signature = 0;
        std::uint64_t baseSignature = 0;
        ScanStepShape shape;
        std::uint64_t featuresPerSlot = 1;
        ssd::DfvStream *stream = nullptr;
        std::unique_ptr<GroupScan> scan;
        bool finished = false;
    };

    ShardRemnant
    remnantOf(const ShardReq &req) const
    {
        ShardRemnant r;
        r.seq = req.seq;
        r.featuresDone = 0;
        r.featuresLeft = req.features;
        r.plan = req.plan;
        r.layerTicks = req.layerTicks;
        r.featuresPerSlot = req.featuresPerSlot;
        r.weights = req.weights;
        r.dbKey = req.dbKey;
        r.signature = req.baseSignature;
        r.shape = req.shape;
        return r;
    }

    ShardRemnant
    remnantOfMember(const Group &g, const ScanMember &m) const
    {
        const std::uint64_t pos =
            std::min(g.scan->position(), m.features);
        ShardRemnant r;
        r.seq = m.id;
        r.featuresDone = g.scan->completedFeatures(m.id);
        r.featuresLeft = m.features - pos;
        if (g.stream && r.featuresLeft > 0) {
            const std::uint64_t from = g.scan->pagesForPosition(pos);
            // Round the member's end up to a whole step so a partial
            // last page is re-read rather than dropped.
            const std::uint64_t end_steps =
                (m.features + g.shape.featuresPerStep - 1) /
                g.shape.featuresPerStep;
            const std::uint64_t to =
                std::min(g.stream->pagesTotal(),
                         end_steps * g.shape.pageReadsPerStep);
            if (to > from)
                r.plan = g.stream->subplan(from, to);
        }
        r.layerTicks = m.layerBurstTicks;
        r.featuresPerSlot = g.featuresPerSlot;
        r.weights = m.weights;
        r.dbKey = g.dbKey;
        r.signature = g.baseSignature;
        r.shape = g.shape;
        return r;
    }

    void
    armWatchdog(std::uint64_t seq)
    {
        if (watchdogTicks_ == 0)
            return;
        watchdogs_[seq] =
            events_.scheduleAfter(watchdogTicks_, [this, seq] {
                watchdogs_.erase(seq);
                auto r = detachShard(seq);
                if (!r)
                    return;
                stats_.get("sched.watchdogFires") += 1;
                sched_.shardFailed(std::move(*r));
            });
    }

    void
    disarmWatchdog(std::uint64_t seq)
    {
        auto it = watchdogs_.find(seq);
        if (it == watchdogs_.end())
            return;
        events_.cancel(it->second);
        watchdogs_.erase(it);
    }

    void
    admit(ShardReq &&req)
    {
        ++residents_;
        ScanMember member;
        member.id = req.seq;
        member.features = req.features;
        member.layerBurstTicks = req.layerTicks;
        member.weights = req.weights;
        // Read-once-broadcast: join an in-flight group with the same
        // database and plan, provided its stream has not advanced
        // (a later joiner would have missed broadcast pages).
        for (auto &g : groups_) {
            if (g->finished || g->dbKey != req.dbKey ||
                g->signature != req.signature ||
                !g->scan->canAdmit())
                continue;
            g->scan->addMember(std::move(member));
            return;
        }
        auto g = std::make_unique<Group>();
        Group *gp = g.get();
        gp->dbKey = req.dbKey;
        gp->signature = req.signature;
        gp->baseSignature = req.baseSignature;
        gp->shape = req.shape;
        gp->featuresPerSlot =
            req.featuresPerSlot > 0 ? req.featuresPerSlot : 1;
        if (!req.plan.pages.empty())
            gp->stream = &dfv_.open(std::move(req.plan));
        gp->scan = std::make_unique<GroupScan>(
            events_, arbiter_, gp->stream, req.shape,
            gp->featuresPerSlot);
        gp->scan->onMemberDone(
            [this](std::uint64_t seq, std::uint64_t features_ok,
                   const ScanGroupSnapshot &snap) {
                memberDone(seq, features_ok, snap);
            });
        gp->scan->onGroupDone([this, gp] {
            gp->finished = true;
            if (gp->stream) {
                dfv_.close(*gp->stream);
                gp->stream = nullptr;
            }
            scheduleCleanup();
        });
        groups_.push_back(std::move(g));
        gp->scan->addMember(std::move(member));
        gp->scan->start();
    }

    void
    memberDone(std::uint64_t seq, std::uint64_t features_ok,
               const ScanGroupSnapshot &snap)
    {
        DS_ASSERT(residents_ > 0);
        --residents_;
        disarmWatchdog(seq);
        sched_.shardDone(seq, features_ok, snap);
        scheduleCleanup();
    }

    /** Defer group destruction and waiting-shard admission out of
     *  the GroupScan callback context (same tick, later event). */
    void
    scheduleCleanup()
    {
        if (cleanupPending_)
            return;
        cleanupPending_ = true;
        events_.scheduleAfter(0, [this] {
            cleanupPending_ = false;
            groups_.erase(
                std::remove_if(groups_.begin(), groups_.end(),
                               [](const std::unique_ptr<Group> &g) {
                                   return g->finished;
                               }),
                groups_.end());
            while (!dead_ && !waiting_.empty() &&
                   residents_ < maxResident_) {
                ShardReq req = std::move(waiting_.front());
                waiting_.pop_front();
                admit(std::move(req));
            }
        });
    }

    sim::EventQueue &events_;
    QueryScheduler &sched_;
    ssd::DfvStreamService &dfv_;
    ComputeArbiter arbiter_;
    std::uint32_t maxResident_;
    Tick watchdogTicks_;
    StatGroup &stats_;
    std::vector<std::unique_ptr<Group>> groups_;
    std::deque<ShardReq> waiting_;
    std::map<std::uint64_t, sim::EventId> watchdogs_;
    std::size_t residents_ = 0;
    bool cleanupPending_ = false;
    bool dead_ = false;
};

QueryScheduler::QueryScheduler(sim::EventQueue &events,
                               QuerySchedulerConfig config,
                               ssd::DfvStreamService &dfv,
                               StatGroup *stats)
    : events_(events), config_(config), dfv_(dfv),
      injector_(config.faults),
      stats_(stats ? *stats : ownStats_)
{
    if (config_.maxResidentScans == 0)
        fatal("maxResidentScans must be at least 1");
    if (config_.shardWatchdogSeconds < 0.0)
        fatal("shardWatchdogSeconds must be non-negative");
}

QueryScheduler::~QueryScheduler() = default;

std::vector<std::unique_ptr<QueryScheduler::AcceleratorUnit>> &
QueryScheduler::pool(Level level, std::uint32_t count)
{
    auto &units = pools_[level];
    if (units.empty()) {
        const Tick watchdog =
            config_.shardWatchdogSeconds > 0.0
                ? secondsToTicks(config_.shardWatchdogSeconds)
                : 0;
        units.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
            units.push_back(std::make_unique<AcceleratorUnit>(
                events_, *this, dfv_, config_.maxResidentScans,
                watchdog, stats_));
            // Scheduled unit deaths from the fault schedule.
            if (auto at = injector_.unitFailureTick(
                    static_cast<std::uint32_t>(level), i)) {
                AcceleratorUnit *u = units.back().get();
                events_.schedule(std::max(*at, events_.now()),
                                 [u] { u->fail(); });
            }
        }
    }
    if (units.size() != count)
        panic("accelerator count changed for level %s: %zu vs %u",
              core::toString(level), units.size(), count);
    return units;
}

void
QueryScheduler::submit(QuerySubmission submission)
{
    DS_ASSERT(submission.queryId != 0);
    DS_ASSERT(submission.finalize);
    if (!submission.cacheHit) {
        DS_ASSERT(submission.numAccelerators > 0);
        DS_ASSERT(!submission.shards.empty());
        DS_ASSERT(submission.pageReadsPerStep > 0);
        DS_ASSERT(submission.featuresPerStep > 0);
        DS_ASSERT(!submission.layerBurstTicksPerFeature.empty());
        DS_ASSERT(submission.featuresPerSlot > 0);
    }
    auto [it, inserted] =
        queries_.emplace(submission.queryId, QueryInfo{});
    if (!inserted)
        fatal("duplicate query id %llu",
              static_cast<unsigned long long>(submission.queryId));
    QueryInfo &q = it->second;
    q.sub = std::move(submission);
    q.submitTick = events_.now();
    q.state = QueryState::Parsed;
    ++inFlight_;

    const std::uint64_t id = q.sub.queryId;
    if (q.sub.deadlineSeconds > 0.0) {
        q.deadlineArmed = true;
        q.deadlineEvent = events_.scheduleAfter(
            secondsToTicks(q.sub.deadlineSeconds), [this, id] {
                auto qit = queries_.find(id);
                if (qit == queries_.end() ||
                    isTerminal(qit->second.state))
                    return;
                qit->second.deadlineArmed = false;
                stats_.get("sched.deadlineExceeded") += 1;
                degradeQuery(qit->second,
                             QueryOutcome::DeadlineExceeded);
            });
    }
    // QC probe: each channel-level accelerator pulls its share of
    // the cached entries over the shared DRAM link and scores it on
    // its array, behind whatever scan bursts already hold those
    // resources; the probe completes when the slowest unit finishes.
    Tick probe_done = events_.now();
    if (q.sub.probeUnits > 0) {
        auto &probe_pool =
            pool(Level::ChannelLevel, q.sub.probeUnits);
        for (auto &unit : probe_pool)
            probe_done = std::max(
                probe_done,
                unit->auxWork(q.sub.probeComputeTicksPerUnit,
                              q.sub.probeDramBytesPerUnit,
                              config_.dram));
    }
    q.run.probeTicks = probe_done - events_.now();
    q.state = QueryState::CacheProbe;
    if (q.sub.cacheHit) {
        // CacheProbe -> Reduce (rescore cached top-K on a channel
        // accelerator) -> Complete. Every stage re-checks that the
        // query is still live (deadlines/cancel may have fired).
        events_.schedule(probe_done, [this, id] {
            auto qit = queries_.find(id);
            if (qit == queries_.end() ||
                isTerminal(qit->second.state))
                return;
            QueryInfo &qq = qit->second;
            qq.state = QueryState::Reduce;
            // Rescore the cached top-K on one channel accelerator:
            // pull the cached feature vectors over the DRAM link,
            // then run the SCN burst on that unit's array.
            Tick done;
            auto pit = pools_.find(Level::ChannelLevel);
            if (pit != pools_.end() && !pit->second.empty()) {
                auto &units = pit->second;
                done = units[id % units.size()]->auxWork(
                    qq.sub.hitComputeTicks, qq.sub.hitDramBytes,
                    config_.dram);
            } else {
                // Cache configured without probe units: rescore on
                // the DRAM link alone.
                const Tick now = events_.now();
                const Tick ready =
                    config_.dram && qq.sub.hitDramBytes > 0
                        ? config_.dram->acquire(
                              now, qq.sub.hitDramBytes)
                        : now;
                done = ready + qq.sub.hitComputeTicks;
            }
            events_.schedule(done, [this, id] {
                auto qit2 = queries_.find(id);
                if (qit2 == queries_.end() ||
                    isTerminal(qit2->second.state))
                    return;
                completeQuery(qit2->second, QueryOutcome::Success);
            });
        });
    } else {
        events_.schedule(probe_done, [this, id] {
            auto qit = queries_.find(id);
            if (qit == queries_.end() ||
                isTerminal(qit->second.state))
                return;
            enterStriped(qit->second);
        });
    }
}

void
QueryScheduler::enterStriped(QueryInfo &q)
{
    q.state = QueryState::Striped;
    auto &units = pool(q.sub.level, q.sub.numAccelerators);
    q.outstandingShards =
        static_cast<std::uint32_t>(q.sub.shards.size());
    // Broadcast placements stream each slot's weight tiles over the
    // DRAM link once for the whole stripe (shared L2 / WS lockstep);
    // otherwise every shard pulls a private copy.
    std::shared_ptr<WeightStream> broadcast_weights;
    if (q.sub.weightBytesPerSlot > 0 && q.sub.weightBroadcast)
        broadcast_weights = std::make_shared<WeightStream>(
            config_.dram, q.sub.weightBytesPerSlot);
    for (auto &shard : q.sub.shards) {
        DS_ASSERT(shard.unitIndex < units.size());
        const std::uint64_t seq = nextShardSeq_++;
        ShardState st;
        st.queryId = q.sub.queryId;
        st.features = shard.features;
        st.level = q.sub.level;
        st.unitIndex = shard.unitIndex;
        shards_.emplace(seq, st);
        q.shardSeqs.push_back(seq);
        q.totalFeatures += shard.features;

        AcceleratorUnit::ShardReq req;
        req.seq = seq;
        req.features = shard.features;
        req.layerTicks = q.sub.layerBurstTicksPerFeature;
        req.featuresPerSlot = q.sub.featuresPerSlot;
        if (q.sub.weightBytesPerSlot > 0)
            req.weights =
                broadcast_weights
                    ? broadcast_weights
                    : std::make_shared<WeightStream>(
                          config_.dram, q.sub.weightBytesPerSlot);
        req.dbKey = q.sub.dbKey;
        req.baseSignature = q.sub.planSignature;
        req.signature = q.sub.planSignature;
        req.shape = ScanStepShape{q.sub.pageReadsPerStep,
                                  q.sub.featuresPerStep};
        req.plan = std::move(shard.plan);
        units[shard.unitIndex]->join(std::move(req));
    }
    q.state = QueryState::Scanning;
}

void
QueryScheduler::shardDone(std::uint64_t seq,
                          std::uint64_t features_ok,
                          const ScanGroupSnapshot &snap)
{
    auto it = shards_.find(seq);
    if (it == shards_.end())
        return; // stale (query already degraded/cancelled)
    QueryInfo &q = queries_.at(it->second.queryId);
    if (isTerminal(q.state)) {
        shards_.erase(it);
        return;
    }
    q.coveredFeatures += features_ok;
    // Group counters at the retirement point: flash starvation and
    // weight stalls both held the array idle; backpressure is the
    // stream blocked on compute. A shared group's counters are
    // attributed to each retiring member (they all experienced the
    // contention).
    q.run.computeStallTicks +=
        snap.starvedTicks + snap.weightStallTicks;
    q.run.backpressureTicks += snap.backpressureTicks;
    finishShard(q, seq);
}

void
QueryScheduler::shardFailed(ShardRemnant r)
{
    auto it = shards_.find(r.seq);
    if (it == shards_.end())
        return; // stale
    ShardState &s = it->second;
    QueryInfo &q = queries_.at(s.queryId);
    if (isTerminal(q.state)) {
        shards_.erase(it);
        return;
    }
    q.coveredFeatures += r.featuresDone;
    stats_.get("sched.shardFailures") += 1;
    if (r.featuresLeft == 0) {
        finishShard(q, r.seq);
        return;
    }
    if (s.retries >= config_.maxShardRetries) {
        // Retry budget exhausted: abandon the remainder; the query
        // will finish Degraded with partial coverage.
        stats_.get("sched.shardsLost") += 1;
        finishShard(q, r.seq);
        return;
    }
    auto target = chooseUnit(s.level, s.unitIndex);
    if (!target) {
        stats_.get("sched.shardsLost") += 1;
        finishShard(q, r.seq);
        return;
    }
    s.retries += 1;
    s.features = r.featuresLeft;
    s.level = target->first;
    s.unitIndex = target->second;
    stats_.get("sched.shardReassignments") += 1;
    // Exponential backoff in simulated time before the re-dispatch.
    const Tick backoff = secondsToTicks(
        kShardRetryBackoffSeconds *
        static_cast<double>(1ULL << (s.retries - 1)));
    const std::uint64_t seq = r.seq;
    events_.scheduleAfter(
        backoff, [this, seq, r = std::move(r)]() mutable {
            auto sit = shards_.find(seq);
            if (sit == shards_.end())
                return; // finished/cancelled while in transit
            ShardState &st = sit->second;
            auto qit = queries_.find(st.queryId);
            if (qit == queries_.end() ||
                isTerminal(qit->second.state))
                return;
            AcceleratorUnit::ShardReq req;
            req.seq = seq;
            req.features = st.features;
            req.layerTicks = std::move(r.layerTicks);
            req.featuresPerSlot = r.featuresPerSlot;
            req.weights = std::move(r.weights);
            req.dbKey = r.dbKey;
            req.baseSignature = r.signature;
            req.signature =
                remnantSignature(r.signature, seq, st.retries);
            req.shape = r.shape;
            req.plan = std::move(r.plan);
            pools_.at(st.level)[st.unitIndex]->join(std::move(req));
        });
}

void
QueryScheduler::finishShard(QueryInfo &q, std::uint64_t seq)
{
    shards_.erase(seq);
    DS_ASSERT(q.outstandingShards > 0);
    if (--q.outstandingShards > 0)
        return;
    // All shards merged map-reduce style on the embedded cores: the
    // reduce gathers every shard's partial top-K over the shared
    // DRAM link (contending with weight streams and relocation
    // copies) before the query completes.
    q.state = QueryState::Reduce;
    const Tick now = events_.now();
    const std::uint64_t gather_bytes =
        q.sub.reduceBytesPerShard *
        static_cast<std::uint64_t>(q.shardSeqs.size());
    const Tick done = config_.dram && gather_bytes > 0
                          ? config_.dram->acquire(now, gather_bytes)
                          : now;
    q.run.reduceTicks += done - now;
    const std::uint64_t id = q.sub.queryId;
    events_.schedule(done, [this, id] {
        auto it = queries_.find(id);
        if (it == queries_.end() || isTerminal(it->second.state))
            return;
        QueryInfo &qq = it->second;
        completeQuery(qq,
                      qq.coveredFeatures >= qq.totalFeatures
                          ? QueryOutcome::Success
                          : QueryOutcome::Degraded);
    });
}

bool
QueryScheduler::cancel(std::uint64_t query_id)
{
    auto it = queries_.find(query_id);
    if (it == queries_.end() || isTerminal(it->second.state))
        return false;
    stats_.get("sched.queriesCancelled") += 1;
    degradeQuery(it->second, QueryOutcome::Aborted);
    return true;
}

void
QueryScheduler::powerLoss()
{
    failAllInFlight(QueryOutcome::PowerLoss);
}

void
QueryScheduler::failAllInFlight(QueryOutcome outcome)
{
    // Collect first: degradeQuery mutates queries_ state and runs
    // finalize callbacks which may inspect the scheduler. queries_
    // is an ordered map, so the kill order is deterministic.
    std::vector<std::uint64_t> live;
    for (const auto &[id, q] : queries_) {
        if (!isTerminal(q.state))
            live.push_back(id);
    }
    const char *counter = outcome == QueryOutcome::PowerLoss
                              ? "sched.powerLossKills"
                              : "sched.nodeDeathKills";
    for (std::uint64_t id : live) {
        auto it = queries_.find(id);
        if (it == queries_.end() || isTerminal(it->second.state))
            continue;
        stats_.get(counter) += 1;
        degradeQuery(it->second, outcome);
    }
}

void
QueryScheduler::degradeQuery(QueryInfo &q, QueryOutcome outcome)
{
    DS_ASSERT(!isTerminal(q.state));
    // Snatch every still-live shard off its unit, crediting whatever
    // it scanned. In-flight flash completions drain harmlessly in
    // the background (streams closed, callbacks guarded).
    for (std::uint64_t seq : q.shardSeqs) {
        auto sit = shards_.find(seq);
        if (sit == shards_.end())
            continue;
        const ShardState &s = sit->second;
        auto pit = pools_.find(s.level);
        if (pit != pools_.end() &&
            s.unitIndex < pit->second.size()) {
            if (auto r =
                    pit->second[s.unitIndex]->detachShard(seq))
                q.coveredFeatures += r->featuresDone;
        }
        shards_.erase(sit);
    }
    q.outstandingShards = 0;
    completeQuery(q, outcome);
}

void
QueryScheduler::completeQuery(QueryInfo &q, QueryOutcome outcome)
{
    if (q.deadlineArmed) {
        events_.cancel(q.deadlineEvent);
        q.deadlineArmed = false;
    }
    q.outcome = outcome;
    q.state = outcome == QueryOutcome::Success
                  ? QueryState::Complete
                  : QueryState::Degraded;
    q.completeTick = events_.now();
    if (outcome != QueryOutcome::Success)
        stats_.get("sched.queriesDegraded") += 1;
    DS_ASSERT(inFlight_ > 0);
    --inFlight_;
    ++completed_;
    if (q.sub.finalize)
        q.sub.finalize();
}

std::optional<std::pair<Level, std::uint32_t>>
QueryScheduler::chooseUnit(Level level, std::uint32_t exclude)
{
    auto pit = pools_.find(level);
    if (pit != pools_.end() && !pit->second.empty()) {
        auto &units = pit->second;
        const std::uint32_t n =
            static_cast<std::uint32_t>(units.size());
        // Prefer a sibling other than the failed/slow unit; fall
        // back to the excluded unit itself when it is the only
        // survivor (the watchdog case: slow but alive).
        for (std::uint32_t k = 1; k <= n; ++k) {
            const std::uint32_t idx = (exclude + k) % n;
            if (idx == exclude)
                continue;
            if (units[idx]->alive())
                return std::make_pair(level, idx);
        }
        if (exclude < n && units[exclude]->alive())
            return std::make_pair(level, exclude);
    }
    // No alive sibling: walk up to the parent level.
    for (auto up = parentLevel(level); up; up = parentLevel(*up)) {
        const auto lid = static_cast<std::size_t>(*up);
        std::uint32_t count = config_.unitsAtLevel[lid];
        auto existing = pools_.find(*up);
        if (existing != pools_.end() && !existing->second.empty())
            count = static_cast<std::uint32_t>(
                existing->second.size());
        if (count == 0)
            continue; // pool size unknown and not yet built
        auto &units = pool(*up, count);
        for (std::uint32_t i = 0; i < count; ++i)
            if (units[i]->alive())
                return std::make_pair(*up, i);
    }
    return std::nullopt;
}

std::optional<QueryState>
QueryScheduler::state(std::uint64_t query_id) const
{
    auto it = queries_.find(query_id);
    if (it == queries_.end())
        return std::nullopt;
    return it->second.state;
}

QueryOutcome
QueryScheduler::outcome(std::uint64_t query_id) const
{
    auto it = queries_.find(query_id);
    if (it == queries_.end())
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    return it->second.outcome;
}

double
QueryScheduler::coverageFraction(std::uint64_t query_id) const
{
    auto it = queries_.find(query_id);
    if (it == queries_.end())
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    const QueryInfo &q = it->second;
    if (q.totalFeatures == 0)
        return q.outcome == QueryOutcome::Success ? 1.0 : 0.0;
    double f = static_cast<double>(q.coveredFeatures) /
               static_cast<double>(q.totalFeatures);
    return f > 1.0 ? 1.0 : f;
}

std::uint64_t
QueryScheduler::coveredFeatures(std::uint64_t query_id) const
{
    auto it = queries_.find(query_id);
    if (it == queries_.end())
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    const QueryInfo &q = it->second;
    return std::min(q.coveredFeatures, q.totalFeatures);
}

std::uint64_t
QueryScheduler::totalFeatures(std::uint64_t query_id) const
{
    auto it = queries_.find(query_id);
    if (it == queries_.end())
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    return it->second.totalFeatures;
}

Tick
QueryScheduler::submitTick(std::uint64_t query_id) const
{
    auto it = queries_.find(query_id);
    if (it == queries_.end())
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    return it->second.submitTick;
}

Tick
QueryScheduler::completeTick(std::uint64_t query_id) const
{
    auto it = queries_.find(query_id);
    if (it == queries_.end())
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    if (!isTerminal(it->second.state))
        fatal("query %llu has not completed",
              static_cast<unsigned long long>(query_id));
    return it->second.completeTick;
}

QueryRunStats
QueryScheduler::runStats(std::uint64_t query_id) const
{
    auto it = queries_.find(query_id);
    if (it == queries_.end())
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    return it->second.run;
}

std::size_t
QueryScheduler::residentShards() const
{
    std::size_t n = 0;
    for (const auto &[level, units] : pools_)
        for (const auto &unit : units)
            n += unit->residents();
    return n;
}

std::size_t
QueryScheduler::waitingShards() const
{
    std::size_t n = 0;
    for (const auto &[level, units] : pools_)
        for (const auto &unit : units)
            n += unit->waiting();
    return n;
}

} // namespace deepstore::core
