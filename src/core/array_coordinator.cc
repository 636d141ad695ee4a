#include "core/array_coordinator.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace deepstore::core {

namespace {

/** Re-dispatch budget per shard across node deaths. */
constexpr std::uint32_t kMaxNodeRetries = 2;

ArrayConfig
normalized(ArrayConfig array, const SsdNodeConfig &base)
{
    if (array.nodes.empty())
        array.nodes.push_back(base.flash);
    if (array.replication == 0)
        array.replication = 1;
    return array;
}

ShardMap::Nodes
makeNodes(sim::EventQueue &events, const ArrayConfig &array,
          const SsdNodeConfig &base)
{
    ShardMap::Nodes nodes;
    nodes.reserve(array.nodes.size());
    for (std::uint32_t i = 0; i < array.nodes.size(); ++i) {
        SsdNodeConfig ncfg = base;
        ncfg.flash = array.nodes[i];
        nodes.push_back(
            std::make_unique<SsdNode>(events, std::move(ncfg), i));
    }
    return nodes;
}

} // namespace

const char *
toString(KillNodeResult r)
{
    switch (r) {
      case KillNodeResult::Killed: return "Killed";
      case KillNodeResult::AlreadyDead: return "AlreadyDead";
      case KillNodeResult::InvalidNode: return "InvalidNode";
    }
    return "UnknownKillNodeResult";
}

ArrayCoordinator::ArrayCoordinator(sim::EventQueue &events,
                                   ArrayConfig array,
                                   SsdNodeConfig base)
    : events_(events), config_(normalized(std::move(array), base)),
      nodes_(makeNodes(events, config_, base)),
      fabric_("array.fabric", config_.hostFabricBandwidth),
      arrayStats_("array"), map_(nodes_, config_.replication),
      maintenance_(events_, nodes_, fabric_, map_, config_.scrub,
                   config_.repair)
{
    for (const auto &death : config_.nodeDeaths) {
        if (death.node >= nodes_.size())
            fatal("scheduled death of unknown node %u", death.node);
        if (death.atTick == 0)
            fatal("scheduled death of node %u at tick 0: kill a node "
                  "at construction with killNode()",
                  death.node);
        events_.schedule(death.atTick, [this, idx = death.node] {
            killNode(idx);
        });
    }
    // Disabled scrub schedules nothing: default configs stay
    // event-identical to the pre-scrub coordinator.
    maintenance_.startScrub();
}

// ---- query plane -------------------------------------------------

std::uint64_t
ArrayCoordinator::composeSubId(std::uint64_t query_id,
                               std::uint64_t seq) const
{
    // seq 0 (the home sub-query) keeps the engine's query id, so a
    // single-node array is id-identical to the pre-array scheduler.
    // Later sub-queries tag the high bits; each node's scheduler has
    // its own id space, so cross-node reuse of the base id is fine.
    if (seq == 0)
        return query_id;
    DS_ASSERT(query_id < (1ULL << 44));
    return query_id | (seq << 44);
}

void
ArrayCoordinator::trackNode(AggQuery &agg, std::uint32_t node_i)
{
    for (const auto &[n, base] : agg.nocBase)
        if (n == node_i)
            return;
    agg.nocBase.emplace_back(node_i,
                             nodes_[node_i]->nocWaitTicks());
}

ArrayCoordinator::AggQuery &
ArrayCoordinator::openAgg(std::uint64_t query_id, DoneFn done)
{
    auto [it, inserted] = aggs_.emplace(query_id, AggQuery{});
    if (!inserted)
        fatal("duplicate array query id %llu",
              static_cast<unsigned long long>(query_id));
    AggQuery &agg = it->second;
    agg.queryId = query_id;
    agg.stats.submitTick = events_.now();
    agg.done = std::move(done);
    ++inFlight_;
    return agg;
}

std::size_t
ArrayCoordinator::openSub(AggQuery &agg, const SubTarget &t,
                          std::uint64_t sub_id, std::uint32_t retries,
                          std::vector<std::uint32_t> tried)
{
    SubState ss;
    ss.shard = t.shard;
    ss.node = t.node;
    ss.subId = sub_id;
    ss.localStart = t.localStart;
    ss.localEnd = t.localEnd;
    ss.retries = retries;
    ss.triedNodes = std::move(tried);
    ss.triedNodes.push_back(t.node);
    agg.subs.push_back(std::move(ss));
    return agg.subs.size() - 1;
}

void
ArrayCoordinator::scatter(std::uint64_t query_id,
                          std::uint64_t db_id,
                          std::uint64_t db_start,
                          std::uint64_t db_end,
                          std::uint64_t scatter_bytes,
                          std::uint64_t merge_bytes,
                          const SubBuilder &builder, DoneFn done)
{
    // One sub-target per shard overlapping the range, from each
    // shard's first alive placement; shards with no survivor are
    // lost up front (deterministic Degraded coverage).
    const ShardOverlap ov = map_.overlap(db_id, db_start, db_end);
    AggQuery &agg = openAgg(query_id, std::move(done));
    agg.dbId = db_id;
    agg.totalFeatures = db_end - db_start;
    agg.scatterBytes = scatter_bytes;
    agg.mergeBytes = merge_bytes;
    agg.builder = builder;
    agg.lostFeatures = ov.lostFeatures;
    arrayStats_.get("array.queriesScattered") += 1;
    if (ov.lostShards > 0)
        arrayStats_.get("array.shardsLostNoReplica") += ov.lostShards;

    if (ov.targets.empty()) {
        // Every shard in range is gone: terminal immediately, zero
        // coverage, no fabric traffic.
        agg.worst = QueryOutcome::Degraded;
        finalizeAgg(agg);
        return;
    }
    for (const SubTarget &t : ov.targets)
        openSub(agg, t,
                composeSubId(query_id, t.home ? 0 : agg.nextSubSeq++),
                0, {});
    agg.outstanding = ov.targets.size();
    for (std::size_t i = 0; i < ov.targets.size(); ++i) {
        const SubTarget &t = ov.targets[i];
        const std::uint64_t sub_id = agg.subs[i].subId;
        trackNode(agg, t.node);
        QuerySubmission sub = agg.builder(t, sub_id);
        DS_ASSERT(sub.queryId == sub_id);
        if (t.home) {
            // The home sub-query submits synchronously — a
            // single-node array runs zero coordinator events.
            submitSub(agg, i, std::move(sub));
            continue;
        }
        arrayStats_.get("array.subQueriesRemote") += 1;
        dispatchRemote(agg, i, std::move(sub));
    }
}

void
ArrayCoordinator::submitSingle(std::uint64_t query_id,
                               std::uint32_t node_i,
                               QuerySubmission sub, DoneFn done)
{
    DS_ASSERT(sub.queryId == query_id);
    AggQuery &agg = openAgg(query_id, std::move(done));
    SubTarget home;
    home.node = node_i;
    openSub(agg, home, query_id, 0, {});
    agg.outstanding = 1;
    trackNode(agg, node_i);
    submitSub(agg, 0, std::move(sub));
}

void
ArrayCoordinator::submitSub(AggQuery &agg, std::size_t idx,
                            QuerySubmission sub)
{
    SubState &ss = agg.subs[idx];
    const std::uint64_t qid = agg.queryId;
    sub.finalize = [this, qid, idx] { onSubTerminal(qid, idx); };
    ss.submitted = true;
    nodes_[ss.node]->scheduler().submit(std::move(sub));
}

void
ArrayCoordinator::dispatchRemote(AggQuery &agg, std::size_t idx,
                                 QuerySubmission sub)
{
    // The sub-query descriptor + qfv travel over the host fabric
    // before the node can start.
    const Tick now = events_.now();
    const Tick grant = agg.scatterBytes > 0
                           ? fabric_.acquire(now, agg.scatterBytes)
                           : now;
    agg.stats.interNodeBytes += agg.scatterBytes;
    const std::uint64_t gen = agg.gen;
    events_.schedule(grant, [this, qid = agg.queryId, idx, gen,
                             sub = std::move(sub)]() mutable {
        auto it = aggs_.find(qid);
        if (it == aggs_.end())
            return;
        AggQuery &a = it->second;
        if (a.finished || a.gen != gen || a.subs[idx].terminal)
            return;
        if (!nodes_[a.subs[idx].node]->alive()) {
            // Node died while the dispatch was in flight: fail over
            // immediately (zero coverage).
            if (!tryRedispatch(a, idx, 0)) {
                a.subs[idx].terminal = true;
                arrayStats_.get("array.subQueriesLost") += 1;
                subArrived(a);
            }
            return;
        }
        submitSub(a, idx, std::move(sub));
    });
}

void
ArrayCoordinator::onSubTerminal(std::uint64_t query_id,
                                std::size_t idx)
{
    AggQuery &agg = aggs_.at(query_id);
    SubState &ss = agg.subs[idx];
    DS_ASSERT(!ss.terminal);
    SsdNode &nd = *nodes_[ss.node];
    QueryScheduler &sched = nd.scheduler();
    const QueryOutcome oc = sched.outcome(ss.subId);
    const std::uint64_t covered = sched.coveredFeatures(ss.subId);
    ss.terminal = true;
    const QueryRunStats rs = sched.runStats(ss.subId);
    agg.stats.run.computeStallTicks += rs.computeStallTicks;
    agg.stats.run.backpressureTicks += rs.backpressureTicks;
    agg.stats.run.probeTicks += rs.probeTicks;
    agg.stats.run.reduceTicks += rs.reduceTicks;

    // Whole-drive failure: the node died under this sub-query.
    // Credit what it scanned and re-stripe the remainder onto a
    // replica; only when no replica survives (or the retry budget is
    // gone) does the loss reach the aggregate outcome.
    agg.coveredFeatures += covered;
    if (!nd.alive() && oc != QueryOutcome::Success) {
        if (tryRedispatch(agg, idx, covered))
            return;
        agg.lostFeatures += (ss.localEnd - ss.localStart) - covered;
        arrayStats_.get("array.subQueriesLost") += 1;
        subArrived(agg);
        return;
    }

    agg.worst = std::max(agg.worst, oc);
    // Merge leg: a remote node ships its candidate set (partial
    // top-K) back to the home node over the fabric. Aborted
    // sub-queries ship nothing; power loss kills the fabric.
    const bool ships = ss.node != agg.subs.front().node &&
                       agg.mergeBytes > 0 && !inPowerLoss_ &&
                       oc != QueryOutcome::Aborted;
    if (!ships) {
        subArrived(agg);
        return;
    }
    const Tick now = events_.now();
    const Tick grant = fabric_.acquire(now, agg.mergeBytes);
    agg.stats.interNodeBytes += agg.mergeBytes;
    agg.stats.mergeTicks += grant - now;
    const std::uint64_t gen = agg.gen;
    events_.schedule(grant, [this, query_id, gen] {
        auto it = aggs_.find(query_id);
        if (it == aggs_.end())
            return;
        AggQuery &a = it->second;
        if (a.finished || a.gen != gen)
            return;
        subArrived(a);
    });
}

bool
ArrayCoordinator::tryRedispatch(AggQuery &agg, std::size_t idx,
                                std::uint64_t covered)
{
    // Copy what we need before push_back invalidates references.
    const SubState failed = agg.subs[idx];
    if (failed.retries >= kMaxNodeRetries)
        return false;
    const std::uint64_t rest_start = failed.localStart + covered;
    if (rest_start >= failed.localEnd) {
        // Everything was scanned before the drive died; the shard
        // needs no failover, just the normal arrival accounting.
        subArrived(agg);
        return true;
    }
    const ShardMap::ShardPlacement *pl = map_.alivePlacement(
        map_.db(agg.dbId).shards[failed.shard], failed.triedNodes);
    if (pl == nullptr)
        return false;
    const SubTarget target = map_.target(agg.dbId, failed.shard, *pl,
                                         rest_start, failed.localEnd);
    const std::uint64_t sub_id =
        composeSubId(agg.queryId, agg.nextSubSeq++);
    const std::size_t new_idx = openSub(
        agg, target, sub_id, failed.retries + 1, failed.triedNodes);
    ++agg.stats.redispatches;
    arrayStats_.get("array.redispatches") += 1;
    trackNode(agg, target.node);
    QuerySubmission sub = agg.builder(target, sub_id);
    DS_ASSERT(sub.queryId == sub_id);

    // The replacement descriptor re-crosses the fabric.
    dispatchRemote(agg, new_idx, std::move(sub));
    return true;
}

void
ArrayCoordinator::subArrived(AggQuery &agg)
{
    DS_ASSERT(agg.outstanding > 0);
    if (--agg.outstanding == 0)
        finalizeAgg(agg);
}

void
ArrayCoordinator::finalizeAgg(AggQuery &agg)
{
    DS_ASSERT(!agg.finished);
    agg.finished = true;
    DS_ASSERT(inFlight_ > 0);
    --inFlight_;

    ArrayQueryStats &st = agg.stats;
    st.completeTick = events_.now();
    st.nodesParticipating =
        static_cast<std::uint32_t>(agg.nocBase.size());
    for (const auto &[node_i, base] : agg.nocBase)
        st.nocWaitTicks += nodes_[node_i]->nocWaitTicks() - base;

    // Single-sub aggregates (every 1-node array query, and every
    // cache hit) pass the node scheduler's outcome and coverage
    // through bit-identically — the determinism pin depends on the
    // float division happening exactly once.
    const bool passthrough = agg.subs.size() == 1 &&
                             agg.subs[0].submitted &&
                             agg.lostFeatures == 0 &&
                             st.redispatches == 0;
    if (passthrough) {
        const SubState &ss = agg.subs[0];
        QueryScheduler &sched = nodes_[ss.node]->scheduler();
        st.outcome = sched.outcome(ss.subId);
        st.coverageFraction = sched.coverageFraction(ss.subId);
    } else {
        const std::uint64_t total = agg.totalFeatures;
        const std::uint64_t covered =
            std::min(agg.coveredFeatures, total);
        QueryOutcome oc = agg.worst;
        if (oc == QueryOutcome::Success && covered < total)
            oc = QueryOutcome::Degraded;
        st.outcome = oc;
        if (total == 0)
            st.coverageFraction =
                oc == QueryOutcome::Success ? 1.0 : 0.0;
        else
            st.coverageFraction = static_cast<double>(covered) /
                                  static_cast<double>(total);
    }
    if (agg.done)
        agg.done(st);
}

bool
ArrayCoordinator::cancel(std::uint64_t query_id)
{
    auto it = aggs_.find(query_id);
    if (it == aggs_.end() || it->second.finished)
        return false;
    AggQuery &agg = it->second;
    // Snapshot: the cascade below finalizes subs (and possibly the
    // aggregate) synchronously.
    const std::size_t n_subs = agg.subs.size();
    for (std::size_t i = 0; i < n_subs && !agg.finished; ++i) {
        SubState &ss = agg.subs[i];
        if (ss.terminal)
            continue;
        if (ss.submitted) {
            nodes_[ss.node]->scheduler().cancel(ss.subId);
        } else {
            // Still in fabric transit: never reaches a scheduler.
            ss.terminal = true;
            agg.worst = std::max(agg.worst, QueryOutcome::Aborted);
            subArrived(agg);
        }
    }
    return true;
}

std::optional<QueryState>
ArrayCoordinator::state(std::uint64_t query_id) const
{
    auto it = aggs_.find(query_id);
    if (it == aggs_.end())
        return std::nullopt;
    const AggQuery &agg = it->second;
    if (agg.finished)
        return agg.stats.outcome == QueryOutcome::Success
                   ? QueryState::Complete
                   : QueryState::Degraded;
    if (!agg.subs.empty()) {
        const SubState &home = agg.subs.front();
        if (home.submitted) {
            auto st = nodes_[home.node]->scheduler().state(
                home.subId);
            if (st && !isTerminal(*st))
                return *st;
        }
    }
    // Sub-queries done or in transit; merges pending on the fabric.
    return QueryState::Reduce;
}

// ---- lifecycle ---------------------------------------------------

KillNodeResult
ArrayCoordinator::killNode(std::uint32_t node_i)
{
    if (node_i >= nodes_.size())
        return KillNodeResult::InvalidNode;
    SsdNode &nd = *nodes_[node_i];
    if (!nd.alive())
        return KillNodeResult::AlreadyDead;
    arrayStats_.get("array.nodeDeaths") += 1;
    // kill() marks the drive dead first, then fails its in-flight
    // sub-queries; their finalizes land in onSubTerminal, which sees
    // the dead node and re-stripes onto replicas.
    nd.kill();
    // Self-healing: re-replicate the dead node's shards onto
    // survivors (deferred one event so the failover cascade above
    // settles first).
    maintenance_.scheduleRepairScan();
    return KillNodeResult::Killed;
}

void
ArrayCoordinator::powerLoss()
{
    arrayStats_.get("array.powerLosses") += 1;
    // Kill every node's in-flight sub-queries at the loss tick;
    // merge legs are suppressed (inPowerLoss_) so arrivals are
    // synchronous and aggregates finalize *now*, before volatile
    // device state drops.
    inPowerLoss_ = true;
    for (auto &nd : nodes_)
        nd->scheduler().failAllInFlight(QueryOutcome::PowerLoss);
    // Aggregates still pending (merges or dispatches that were on
    // the fabric when the lights went out) finalize with outcome
    // PowerLoss; their scheduled fabric events are invalidated.
    for (auto &[qid, agg] : aggs_) {
        if (agg.finished)
            continue;
        ++agg.gen;
        for (SubState &ss : agg.subs)
            ss.terminal = true;
        agg.worst = QueryOutcome::PowerLoss;
        finalizeAgg(agg);
    }
    fabric_.reset(events_.now());
    for (auto &nd : nodes_)
        nd->devicePowerLoss();
    inPowerLoss_ = false;
    maintenance_.powerLoss();
}

void
ArrayCoordinator::dumpStats(std::ostream &os)
{
    os << "array.nodes = " << nodes_.size() << "\n";
    os << "array.aliveNodes = " << aliveCount() << "\n";
    os << "array.replication = " << map_.replication() << "\n";
    // Scrub/repair rows appear only when the engines are in play, so
    // default-config stat dumps stay byte-identical to the pre-scrub
    // coordinator (the determinism sweeps compare dump strings).
    maintenance_.dumpStats(os);
    if (tornSuperblocks_ > 0)
        os << "array.superblock.tornReplicas = " << tornSuperblocks_
           << "\n";
    arrayStats_.get("array.fabric.grants")
        .set(static_cast<double>(fabric_.grants()));
    arrayStats_.get("array.fabric.bytes")
        .set(static_cast<double>(fabric_.bytesCarried()));
    arrayStats_.get("array.fabric.waitTicks")
        .set(static_cast<double>(fabric_.waitTicks()));
    arrayStats_.get("array.fabric.busyTicks")
        .set(static_cast<double>(fabric_.busyTicks()));
    arrayStats_.dump(os);
    // Node 0 dumps unprefixed for continuity with the single-SSD
    // stats surface; other nodes prefix every line.
    nodes_[0]->syncLinkStats();
    nodes_[0]->stats().dump(os);
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
        nodes_[i]->syncLinkStats();
        std::ostringstream ss;
        nodes_[i]->stats().dump(ss);
        std::string line;
        std::istringstream in(ss.str());
        while (std::getline(in, line))
            os << "node" << i << "." << line << "\n";
    }
}

} // namespace deepstore::core
