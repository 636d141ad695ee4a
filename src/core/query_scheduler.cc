#include "core/query_scheduler.h"

#include <algorithm>
#include <deque>
#include <tuple>
#include <utility>

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

/** One scan shard, from placement through every re-dispatch. The
 *  per-query constants (layer bursts, slot width, step shape, db
 *  key, base signature) are read from the owning query's
 *  submission. */
struct QueryScheduler::Shard
{
    std::uint64_t queryId = 0;
    Level level = Level::ChannelLevel;
    std::uint32_t unit = 0;
    std::uint32_t retries = 0;
    /** Features this incarnation still has to scan. */
    std::uint64_t features = 0;
    /** Pages still to read: handed to the unit's stream on admission
     *  and re-sliced from it when the shard is snatched (empty once
     *  admitted, or when nothing is left to read). */
    ssd::DfvPlan plan;
    /** Weight feed (shared for broadcast placements; nullptr for a
     *  resident model). */
    std::shared_ptr<WeightStream> weights;
    /** Stream-sharing signature: the query's plan signature for an
     *  original shard, unique for a re-striped remnant. */
    std::uint64_t signature = 0;
};

/**
 * One countable accelerator instance. Holds up to `maxResidentScans`
 * concurrently scanning shards plus a FIFO queue of waiting shards.
 * Shards are grouped by (dbKey, stream signature) into GroupScans;
 * each group owns one DfvStream of real flash reads
 * (read-once-broadcast) and the groups of one unit serialize their
 * compute batches on the unit's ComputeArbiter. All progress happens
 * through stream-delivery and batch-completion events.
 *
 * The unit is also the failure boundary: fail() (scheduled by the
 * fault schedule) snatches every shard — waiting or mid-scan — and
 * hands it back to the scheduler for re-striping; detach() does the
 * same for a single shard (watchdog fires, deadlines, cancellation).
 * A snatched shard's record is trimmed in place to its remnant.
 */
class QueryScheduler::AcceleratorUnit
{
  public:
    explicit AcceleratorUnit(QueryScheduler &sched)
        : sched_(sched), events_(sched.events_), dfv_(sched.dfv_),
          watchdogTicks_(secondsToTicks(
              sched.config_.recovery.shardWatchdogSeconds))
    {
    }

    ~AcceleratorUnit()
    {
        // Streams of still-open groups belong to the service; close
        // them so active() stays truthful on teardown.
        for (auto &g : groups_)
            close(*g);
    }

    void
    join(std::uint64_t seq)
    {
        DS_ASSERT(sched_.shards_.at(seq).features > 0);
        if (dead_) {
            // Lost a race with this unit's death; bounce the shard
            // straight back for re-striping.
            sched_.shardFailed(seq, 0);
            return;
        }
        armWatchdog(seq);
        if (residents_ < sched_.config_.recovery.maxResidentScans)
            admit(seq);
        else
            waiting_.push_back(seq);
    }

    /**
     * Scheduled unit death: every shard (waiting or scanning) is
     * snatched and handed back to the scheduler; the unit refuses all
     * future work. In-flight flash completions drain harmlessly
     * (their streams are closed, callbacks guarded). Idempotent.
     */
    void
    fail()
    {
        if (dead_)
            return;
        dead_ = true;
        sched_.stats_.get("sched.unitFailures") += 1;
        // (seq, features done) of every snatched shard.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> snatched;
        for (auto &g : groups_) {
            if (g->finished)
                continue;
            const std::uint64_t pos = g->scan->position();
            for (const auto &m : g->scan->memberList()) {
                if (m.features <= pos)
                    continue; // already retired
                snatched.emplace_back(m.id, snatch(*g, m));
            }
            g->scan->abort();
            close(*g);
        }
        for (std::uint64_t seq : waiting_)
            snatched.emplace_back(seq, 0);
        waiting_.clear();
        residents_ = 0;
        for (auto &[seq, ev] : watchdogs_)
            events_.cancel(ev);
        watchdogs_.clear();
        scheduleCleanup();
        for (auto [seq, done] : snatched)
            sched_.shardFailed(seq, done);
    }

    bool alive() const { return !dead_; }

    /**
     * Remove one shard without retiring it (watchdog / deadline /
     * cancellation), trimming its record to the remnant. Returns the
     * features it completed, or nullopt when the shard is not on
     * this unit (already finished or in re-dispatch transit).
     */
    std::optional<std::uint64_t>
    detach(std::uint64_t seq)
    {
        disarmWatchdog(seq);
        auto wit = std::find(waiting_.begin(), waiting_.end(), seq);
        if (wit != waiting_.end()) {
            waiting_.erase(wit);
            return 0;
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
            const std::uint64_t done = snatch(*g, *mit);
            g->scan->removeMember(seq);
            DS_ASSERT(residents_ > 0);
            --residents_;
            if (g->scan->done())
                close(*g);
            scheduleCleanup();
            return done;
        }
        return std::nullopt;
    }

    /**
     * Schedule an auxiliary work item (QC probe share, cache-hit
     * rescore) on this unit: pull `dram_bytes` over the shared DRAM
     * link, then run `compute_ticks` on the array behind whatever
     * scan bursts already hold it. Returns the completion tick (now
     * for a dead unit — the caller treats that unit's share as
     * lost).
     */
    Tick
    auxWork(Tick compute_ticks, std::uint64_t dram_bytes)
    {
        const Tick now = events_.now();
        if (dead_)
            return now;
        sim::BandwidthLink *dram = sched_.config_.dram;
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
        ssd::DfvStream *stream = nullptr;
        std::unique_ptr<GroupScan> scan;
        bool finished = false;
    };

    void
    close(Group &g)
    {
        if (g.stream) {
            dfv_.close(*g.stream);
            g.stream = nullptr;
        }
        g.finished = true;
    }

    /** Trim member `m`'s shard record to its remnant — the features
     *  it has left and the pages still to read for them — and return
     *  the features it completed. */
    std::uint64_t
    snatch(const Group &g, const ScanMember &m)
    {
        Shard &s = sched_.shards_.at(m.id);
        const ScanPlan &plan = sched_.info(s.queryId).sub.plan;
        const std::uint64_t pos = std::min(g.scan->position(), m.features);
        s.features = m.features - pos;
        s.plan = {};
        if (g.stream && s.features > 0) {
            const std::uint64_t from = g.scan->pagesForPosition(pos);
            // Round the member's end up to a whole step so a partial
            // last page is re-read rather than dropped.
            const std::uint64_t end_steps =
                (m.features + plan.featuresPerStep - 1) /
                plan.featuresPerStep;
            const std::uint64_t to =
                std::min(g.stream->pagesTotal(),
                         end_steps * plan.pageReadsPerStep);
            if (to > from)
                s.plan = g.stream->subplan(from, to);
        }
        return g.scan->completedFeatures(m.id);
    }

    void
    armWatchdog(std::uint64_t seq)
    {
        if (watchdogTicks_ == 0)
            return;
        watchdogs_[seq] =
            events_.scheduleAfter(watchdogTicks_, [this, seq] {
                watchdogs_.erase(seq);
                auto done = detach(seq);
                if (!done)
                    return;
                sched_.stats_.get("sched.watchdogFires") += 1;
                sched_.shardFailed(seq, *done);
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
    admit(std::uint64_t seq)
    {
        ++residents_;
        Shard &s = sched_.shards_.at(seq);
        const QuerySubmission &sub = sched_.info(s.queryId).sub;
        ssd::DfvPlan plan = std::exchange(s.plan, {});
        ScanMember member{seq, s.features, sub.layerBurstTicksPerFeature,
                          s.weights};
        // Read-once-broadcast: join an in-flight group with the same
        // database and plan, provided its stream has not advanced
        // (a later joiner would have missed broadcast pages).
        for (auto &g : groups_) {
            if (g->finished || g->dbKey != sub.dbKey ||
                g->signature != s.signature || !g->scan->canAdmit())
                continue;
            g->scan->addMember(std::move(member));
            return;
        }
        auto g = std::make_unique<Group>();
        Group *gp = g.get();
        gp->dbKey = sub.dbKey;
        gp->signature = s.signature;
        if (!plan.pages.empty())
            gp->stream = &dfv_.open(std::move(plan));
        gp->scan = std::make_unique<GroupScan>(
            events_, arbiter_, gp->stream,
            ScanStepShape{sub.plan.pageReadsPerStep,
                          sub.plan.featuresPerStep},
            sub.featuresPerSlot);
        gp->scan->onMemberDone(
            [this](std::uint64_t id, std::uint64_t features_ok,
                   const ScanGroupSnapshot &snap) {
                memberDone(id, features_ok, snap);
            });
        gp->scan->onGroupDone([this, gp] {
            close(*gp);
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
                   residents_ <
                       sched_.config_.recovery.maxResidentScans) {
                const std::uint64_t seq = waiting_.front();
                waiting_.pop_front();
                admit(seq);
            }
        });
    }

    QueryScheduler &sched_;
    sim::EventQueue &events_;
    ssd::DfvStreamService &dfv_;
    ComputeArbiter arbiter_;
    Tick watchdogTicks_;
    std::vector<std::unique_ptr<Group>> groups_;
    std::deque<std::uint64_t> waiting_;
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
    if (config_.recovery.maxResidentScans == 0)
        fatal("maxResidentScans must be at least 1");
    if (config_.recovery.shardWatchdogSeconds < 0.0)
        fatal("shardWatchdogSeconds must be non-negative");
    for (std::uint32_t n : config_.unitsAtLevel)
        if (n == 0)
            fatal("unitsAtLevel must be at least 1 at every level");
}

QueryScheduler::~QueryScheduler() = default;

const QueryScheduler::QueryInfo &
QueryScheduler::info(std::uint64_t id) const
{
    auto it = queries_.find(id);
    if (it == queries_.end())
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(id));
    return it->second;
}

QueryScheduler::QueryInfo *
QueryScheduler::live(std::uint64_t id)
{
    auto it = queries_.find(id);
    if (it == queries_.end() || isTerminal(it->second.state))
        return nullptr;
    return &it->second;
}

QueryScheduler::QueryInfo *
QueryScheduler::ownerOf(std::uint64_t seq)
{
    auto it = shards_.find(seq);
    if (it == shards_.end())
        return nullptr;
    QueryInfo *q = live(it->second.queryId);
    if (!q)
        shards_.erase(it);
    return q;
}

QueryScheduler::Pool &
QueryScheduler::pool(Level level)
{
    Pool &units = pools_[level];
    if (!units.empty())
        return units;
    const std::uint32_t count =
        config_.unitsAtLevel[static_cast<std::size_t>(level)];
    units.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        units.push_back(std::make_unique<AcceleratorUnit>(*this));
        // Scheduled unit deaths from the fault schedule.
        if (auto at = injector_.unitFailureTick(
                static_cast<std::uint32_t>(level), i)) {
            AcceleratorUnit *u = units.back().get();
            events_.schedule(std::max(*at, events_.now()),
                             [u] { u->fail(); });
        }
    }
    return units;
}

void
QueryScheduler::submit(QuerySubmission submission)
{
    DS_ASSERT(submission.queryId != 0);
    DS_ASSERT(submission.finalize);
    if (!submission.cacheHit) {
        DS_ASSERT(!submission.plan.units.empty());
        DS_ASSERT(submission.plan.pageReadsPerStep > 0);
        DS_ASSERT(submission.plan.featuresPerStep > 0);
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
                QueryInfo *qq = live(id);
                if (!qq)
                    return;
                qq->deadlineArmed = false;
                stats_.get("sched.deadlineExceeded") += 1;
                degradeQuery(*qq, QueryOutcome::DeadlineExceeded);
            });
    }
    // QC probe: each channel-level accelerator pulls its share of
    // the cached entries over the shared DRAM link and scores it on
    // its array, behind whatever scan bursts already hold those
    // resources; the probe completes when the slowest unit finishes.
    // An empty cache still visits every unit at zero cost.
    Tick probe_done = events_.now();
    if (q.sub.probe)
        for (auto &unit : pool(Level::ChannelLevel))
            probe_done = std::max(
                probe_done,
                unit->auxWork(q.sub.probeComputeTicksPerUnit,
                              q.sub.probeDramBytesPerUnit));
    q.run.probeTicks = probe_done - events_.now();
    q.state = QueryState::CacheProbe;
    events_.schedule(probe_done, [this, id] {
        QueryInfo *qq = live(id);
        if (!qq)
            return;
        if (!qq->sub.cacheHit) {
            enterStriped(*qq);
            return;
        }
        // CacheProbe -> Reduce -> Complete: rescore the cached top-K
        // on one channel accelerator (pull the cached feature vectors
        // over the DRAM link, then run the SCN burst on its array).
        qq->state = QueryState::Reduce;
        Pool &units = pool(Level::ChannelLevel);
        const Tick done = units[id % units.size()]->auxWork(
            qq->sub.hitComputeTicks, qq->sub.hitDramBytes);
        events_.schedule(done, [this, id] {
            if (QueryInfo *q2 = live(id))
                completeQuery(*q2, QueryOutcome::Success);
        });
    });
}

void
QueryScheduler::enterStriped(QueryInfo &q)
{
    q.state = QueryState::Striped;
    Pool &units = pool(q.sub.level);
    q.outstandingShards =
        static_cast<std::uint32_t>(q.sub.plan.units.size());
    // Broadcast placements stream each slot's weight tiles over the
    // DRAM link once for the whole stripe (shared L2 / WS lockstep);
    // otherwise every shard pulls a private copy.
    std::shared_ptr<WeightStream> broadcast_weights;
    if (q.sub.weightBytesPerSlot > 0 && q.sub.weightBroadcast)
        broadcast_weights = std::make_shared<WeightStream>(
            config_.dram, q.sub.weightBytesPerSlot);
    for (UnitScan &u : q.sub.plan.units) {
        DS_ASSERT(u.unitIndex < units.size());
        const std::uint64_t seq = nextShardSeq_++;
        Shard s;
        s.queryId = q.sub.queryId;
        s.level = q.sub.level;
        s.unit = u.unitIndex;
        s.features = u.features;
        s.plan = std::move(u.plan);
        if (q.sub.weightBytesPerSlot > 0)
            s.weights = broadcast_weights
                            ? broadcast_weights
                            : std::make_shared<WeightStream>(
                                  config_.dram,
                                  q.sub.weightBytesPerSlot);
        s.signature = q.sub.plan.signature;
        shards_.emplace(seq, std::move(s));
        q.shardSeqs.push_back(seq);
        q.totalFeatures += u.features;
        units[u.unitIndex]->join(seq);
    }
    q.state = QueryState::Scanning;
}

void
QueryScheduler::shardDone(std::uint64_t seq,
                          std::uint64_t features_ok,
                          const ScanGroupSnapshot &snap)
{
    QueryInfo *q = ownerOf(seq);
    if (!q)
        return; // stale (query already degraded/cancelled)
    q->coveredFeatures += features_ok;
    // Group counters at the retirement point: flash starvation and
    // weight stalls both held the array idle; backpressure is the
    // stream blocked on compute. A shared group's counters are
    // attributed to each retiring member (they all experienced the
    // contention).
    q->run.computeStallTicks +=
        snap.starvedTicks + snap.weightStallTicks;
    q->run.backpressureTicks += snap.backpressureTicks;
    finishShard(*q, seq);
}

void
QueryScheduler::shardFailed(std::uint64_t seq,
                            std::uint64_t features_done)
{
    QueryInfo *q = ownerOf(seq);
    if (!q)
        return; // stale
    Shard &s = shards_.at(seq);
    q->coveredFeatures += features_done;
    stats_.get("sched.shardFailures") += 1;
    if (s.features == 0) {
        finishShard(*q, seq);
        return;
    }
    // Past the retry budget, or with no alive unit left, the
    // remainder is abandoned; the query will finish Degraded with
    // partial coverage.
    std::optional<std::pair<Level, std::uint32_t>> target;
    if (s.retries < config_.recovery.maxShardRetries)
        target = chooseUnit(s.level, s.unit);
    if (!target) {
        stats_.get("sched.shardsLost") += 1;
        finishShard(*q, seq);
        return;
    }
    s.retries += 1;
    std::tie(s.level, s.unit) = *target;
    // A remnant's page list differs from every original per-unit
    // plan, so it must never join an in-flight broadcast group.
    s.signature = remnantSignature(q->sub.plan.signature, seq, s.retries);
    stats_.get("sched.shardReassignments") += 1;
    // Exponential backoff in simulated time before the re-dispatch.
    const Tick backoff = secondsToTicks(
        kShardRetryBackoffSeconds *
        static_cast<double>(1ULL << (s.retries - 1)));
    events_.scheduleAfter(backoff, [this, seq] {
        if (!ownerOf(seq))
            return; // finished/cancelled while in transit
        const Shard &st = shards_.at(seq);
        pool(st.level)[st.unit]->join(seq);
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
        QueryInfo *qq = live(id);
        if (!qq)
            return;
        completeQuery(*qq, qq->coveredFeatures >= qq->totalFeatures
                               ? QueryOutcome::Success
                               : QueryOutcome::Degraded);
    });
}

bool
QueryScheduler::cancel(std::uint64_t query_id)
{
    QueryInfo *q = live(query_id);
    if (!q)
        return false;
    stats_.get("sched.queriesCancelled") += 1;
    degradeQuery(*q, QueryOutcome::Aborted);
    return true;
}

void
QueryScheduler::failAllInFlight(QueryOutcome outcome)
{
    // Collect first: degradeQuery mutates queries_ state and runs
    // finalize callbacks which may inspect the scheduler. queries_
    // is an ordered map, so the kill order is deterministic.
    std::vector<std::uint64_t> ids;
    for (const auto &[id, q] : queries_) {
        if (!isTerminal(q.state))
            ids.push_back(id);
    }
    const char *counter = outcome == QueryOutcome::PowerLoss
                              ? "sched.powerLossKills"
                              : "sched.nodeDeathKills";
    for (std::uint64_t id : ids) {
        QueryInfo *q = live(id);
        if (!q)
            continue;
        stats_.get(counter) += 1;
        degradeQuery(*q, outcome);
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
        const Shard &s = sit->second;
        if (auto done = pool(s.level)[s.unit]->detach(seq))
            q.coveredFeatures += *done;
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
    // Siblings first, in ring order after the failed/slow unit; the
    // unit itself comes last (the watchdog case: slow but alive).
    Pool &units = pool(level);
    const auto n = static_cast<std::uint32_t>(units.size());
    for (std::uint32_t k = 1; k <= n; ++k) {
        const std::uint32_t idx = (exclude + k) % n;
        if (units[idx]->alive())
            return std::make_pair(level, idx);
    }
    // No alive unit at this level: walk up to the parent level.
    for (auto up = parentLevel(level); up; up = parentLevel(*up)) {
        Pool &parent = pool(*up);
        for (std::uint32_t i = 0; i < parent.size(); ++i)
            if (parent[i]->alive())
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
    return info(query_id).outcome;
}

double
QueryScheduler::coverageFraction(std::uint64_t query_id) const
{
    const QueryInfo &q = info(query_id);
    if (q.totalFeatures == 0)
        return q.outcome == QueryOutcome::Success ? 1.0 : 0.0;
    double f = static_cast<double>(q.coveredFeatures) /
               static_cast<double>(q.totalFeatures);
    return f > 1.0 ? 1.0 : f;
}

std::uint64_t
QueryScheduler::coveredFeatures(std::uint64_t query_id) const
{
    const QueryInfo &q = info(query_id);
    return std::min(q.coveredFeatures, q.totalFeatures);
}

Tick
QueryScheduler::submitTick(std::uint64_t query_id) const
{
    return info(query_id).submitTick;
}

Tick
QueryScheduler::completeTick(std::uint64_t query_id) const
{
    const QueryInfo &q = info(query_id);
    if (!isTerminal(q.state))
        fatal("query %llu has not completed",
              static_cast<unsigned long long>(query_id));
    return q.completeTick;
}

QueryRunStats
QueryScheduler::runStats(std::uint64_t query_id) const
{
    return info(query_id).run;
}

} // namespace deepstore::core
