#include "core/array_coordinator.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "common/units.h"
#include "ssd/throughput.h"

namespace deepstore::core {

namespace {

/** Re-dispatch budget per shard across node deaths. */
constexpr std::uint32_t kMaxNodeRetries = 2;

/** Pages read per scrub wakeup (bounds burstiness). */
constexpr std::uint32_t kScrubBatchPages = 8;

/** Pages copied per repair wakeup. */
constexpr std::uint32_t kRepairBatchPages = 8;

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    const auto *b = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), b, b + sizeof(v));
}

/** Aggregate-outcome precedence: the worst sub-query outcome wins,
 *  and a Success with missing coverage degrades. */
int
outcomeRank(QueryOutcome o)
{
    switch (o) {
      case QueryOutcome::Success: return 0;
      case QueryOutcome::Degraded: return 1;
      case QueryOutcome::DeadlineExceeded: return 2;
      case QueryOutcome::Aborted: return 3;
      case QueryOutcome::PowerLoss: return 4;
    }
    return 0;
}

QueryOutcome
outcomeOfRank(int rank)
{
    switch (rank) {
      case 0: return QueryOutcome::Success;
      case 1: return QueryOutcome::Degraded;
      case 2: return QueryOutcome::DeadlineExceeded;
      case 3: return QueryOutcome::Aborted;
      default: return QueryOutcome::PowerLoss;
    }
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
    : events_(events), config_(std::move(array)),
      fabric_("array.fabric", config_.hostFabricBandwidth),
      arrayStats_("array")
{
    if (config_.nodes.empty())
        config_.nodes.push_back(base.flash);
    if (config_.replication == 0)
        config_.replication = 1;
    nodes_.reserve(config_.nodes.size());
    for (std::uint32_t i = 0; i < config_.nodes.size(); ++i) {
        SsdNodeConfig ncfg = base;
        ncfg.flash = config_.nodes[i];
        nodes_.push_back(
            std::make_unique<SsdNode>(events_, std::move(ncfg), i));
    }
    for (const auto &death : config_.nodeDeaths) {
        if (death.node >= nodes_.size())
            fatal("scheduled death of unknown node %u", death.node);
        if (death.atTick == 0)
            continue;
        events_.schedule(death.atTick, [this, idx = death.node] {
            killNode(idx);
        });
    }
    scrubScannedPerNode_.assign(nodes_.size(), 0);
    repairPagesPerNode_.assign(nodes_.size(), 0);
    // Disabled scrub schedules nothing: default configs stay
    // event-identical to the pre-scrub coordinator.
    startScrub();
}

std::uint32_t
ArrayCoordinator::aliveCount() const
{
    std::uint32_t n = 0;
    for (const auto &node : nodes_)
        if (node->alive())
            ++n;
    return n;
}

// ---- ingest ------------------------------------------------------

std::vector<IngestPart>
ArrayCoordinator::stripeDb(std::uint64_t feature_bytes,
                           std::uint64_t count)
{
    DS_ASSERT(count > 0);
    std::vector<std::uint32_t> alive;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i]->alive())
            alive.push_back(i);
    if (alive.empty())
        fatal("writeDB: every array node is dead");
    const std::uint32_t n =
        static_cast<std::uint32_t>(alive.size());
    const std::uint32_t copies =
        std::min<std::uint32_t>(std::max(config_.replication, 1u), n);

    // Contiguous feature chunks, one per alive node; shard i's
    // primary is alive[i], replicas on the next copies-1 alive
    // nodes. Every placement gets its own page run (each shard lays
    // its features out from a fresh page boundary, so heterogeneous
    // page sizes never split a feature across nodes).
    std::vector<IngestPart> parts;
    const std::uint64_t base = count / n;
    const std::uint64_t rem = count % n;
    std::uint64_t offset = 0;
    for (std::uint32_t i = 0; i < n && offset < count; ++i) {
        const std::uint64_t chunk = base + (i < rem ? 1 : 0);
        if (chunk == 0)
            continue;
        for (std::uint32_t c = 0; c < copies; ++c) {
            const std::uint32_t node_i = alive[(i + c) % n];
            DbMetadata shape;
            shape.featureBytes = feature_bytes;
            shape.numFeatures = chunk;
            const std::uint64_t pages = shape.pageCount(
                nodes_[node_i]->flash().pageBytes);
            IngestPart part;
            part.shard = i;
            part.node = node_i;
            part.lpnStart = nodes_[node_i]->allocatePages(pages);
            part.pages = pages;
            part.primary = c == 0;
            parts.push_back(part);
        }
        offset += chunk;
    }
    return parts;
}

void
ArrayCoordinator::bindDb(std::uint64_t db_id,
                         std::uint64_t feature_bytes,
                         std::uint64_t count,
                         const std::vector<IngestPart> &parts)
{
    DbInfo info;
    info.featureBytes = feature_bytes;
    std::uint64_t offset = 0;
    for (const IngestPart &part : parts) {
        if (part.primary) {
            DbShard shard;
            shard.startFeature = offset;
            info.shards.push_back(shard);
        }
        DbShard &shard = info.shards.back();
        ShardPlacement pl;
        pl.node = part.node;
        pl.lpnStart = part.lpnStart;
        // Write-time physical start, exactly like the single-SSD
        // engine recorded md.startPpn right after the ingest.
        pl.startPpn = nodes_[part.node]->translate(part.lpnStart);
        shard.placements.push_back(pl);
        if (part.primary) {
            // Shard size back-derived from the primary's page run is
            // ambiguous; recompute from the stripe math instead.
            shard.numFeatures = 0;
        }
    }
    // Re-derive chunk sizes with the same math stripeDb used.
    const std::uint32_t n =
        static_cast<std::uint32_t>(info.shards.size());
    DS_ASSERT(n > 0);
    const std::uint64_t base = count / n;
    const std::uint64_t rem = count % n;
    offset = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        info.shards[i].startFeature = offset;
        info.shards[i].numFeatures = base + (i < rem ? 1 : 0);
        offset += info.shards[i].numFeatures;
    }
    DS_ASSERT(offset == count);
    auto [it, inserted] = dbs_.emplace(db_id, std::move(info));
    if (!inserted)
        fatal("db %llu already bound to the array",
              static_cast<unsigned long long>(db_id));
}

std::vector<IngestPart>
ArrayCoordinator::growDb(std::uint64_t db_id, std::uint64_t extra)
{
    DS_ASSERT(extra > 0);
    auto it = dbs_.find(db_id);
    if (it == dbs_.end())
        fatal("unknown db %llu",
              static_cast<unsigned long long>(db_id));
    DbInfo &info = it->second;
    DbShard &last = info.shards.back();
    std::vector<IngestPart> parts;
    for (const ShardPlacement &pl : last.placements) {
        SsdNode &nd = *nodes_[pl.node];
        DbMetadata shape;
        shape.featureBytes = info.featureBytes;
        shape.numFeatures = last.numFeatures;
        const std::uint64_t old_pages =
            shape.pageCount(nd.flash().pageBytes);
        shape.numFeatures = last.numFeatures + extra;
        const std::uint64_t new_pages =
            shape.pageCount(nd.flash().pageBytes);
        if (new_pages == old_pages)
            continue;
        // The append must land directly after the shard; DeepStore
        // reserves the LPN range when that is possible.
        if (pl.lpnStart + old_pages != nd.nextFreeLpn())
            fatal("appendDB: database %llu is not the most recently "
                  "written database; append would break striping",
                  static_cast<unsigned long long>(db_id));
        IngestPart part;
        part.shard =
            static_cast<std::uint32_t>(info.shards.size() - 1);
        part.node = pl.node;
        part.lpnStart = nd.allocatePages(new_pages - old_pages);
        part.pages = new_pages - old_pages;
        part.primary = &pl == &last.placements.front();
        DS_ASSERT(part.lpnStart == pl.lpnStart + old_pages);
        parts.push_back(part);
    }
    last.numFeatures += extra;
    return parts;
}

std::vector<ReadSegment>
ArrayCoordinator::readSegments(std::uint64_t db_id,
                               std::uint64_t start,
                               std::uint64_t num) const
{
    const DbInfo &info = dbInfo(db_id);
    std::vector<ReadSegment> segs;
    for (const DbShard &shard : info.shards) {
        const std::uint64_t s_end =
            shard.startFeature + shard.numFeatures;
        const std::uint64_t lo = std::max(start, shard.startFeature);
        const std::uint64_t hi = std::min(start + num, s_end);
        if (lo >= hi)
            continue;
        const int pi = alivePlacement(shard, {});
        if (pi < 0)
            continue; // shard lost; functional contents still served
        const ShardPlacement &pl =
            shard.placements[static_cast<std::size_t>(pi)];
        const SsdNode &nd = *nodes_[pl.node];
        const std::uint64_t ls = lo - shard.startFeature;
        const std::uint64_t le = hi - shard.startFeature;
        ssd::FeatureLayout layout{info.featureBytes,
                                  nd.flash().pageBytes};
        std::uint64_t first_page, last_page;
        if (info.featureBytes <= nd.flash().pageBytes) {
            first_page = ls / layout.featuresPerPage();
            last_page = (le - 1) / layout.featuresPerPage();
        } else {
            first_page = ls * layout.pagesPerFeature();
            last_page = le * layout.pagesPerFeature() - 1;
        }
        segs.push_back(ReadSegment{pl.node,
                                   pl.lpnStart + first_page,
                                   last_page - first_page + 1});
    }
    return segs;
}

std::uint32_t
ArrayCoordinator::shardCount(std::uint64_t db_id) const
{
    return static_cast<std::uint32_t>(dbInfo(db_id).shards.size());
}

std::uint32_t
ArrayCoordinator::homeNodeFor(std::uint64_t db_id,
                              std::uint64_t db_start) const
{
    const DbInfo &info = dbInfo(db_id);
    for (const DbShard &shard : info.shards) {
        if (db_start >= shard.startFeature + shard.numFeatures)
            continue;
        const int pi = alivePlacement(shard, {});
        if (pi >= 0)
            return shard.placements[static_cast<std::size_t>(pi)]
                .node;
        break;
    }
    for (std::uint32_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i]->alive())
            return i;
    return 0;
}

std::optional<SubTarget>
ArrayCoordinator::homeTarget(std::uint64_t db_id,
                             std::uint64_t db_start,
                             std::uint64_t db_end) const
{
    const DbInfo &info = dbInfo(db_id);
    for (std::uint32_t si = 0; si < info.shards.size(); ++si) {
        const DbShard &shard = info.shards[si];
        const std::uint64_t s_end =
            shard.startFeature + shard.numFeatures;
        const std::uint64_t lo = std::max(db_start,
                                          shard.startFeature);
        const std::uint64_t hi = std::min(db_end, s_end);
        if (lo >= hi)
            continue;
        const int pi = alivePlacement(shard, {});
        if (pi < 0)
            continue;
        const ShardPlacement &pl =
            shard.placements[static_cast<std::size_t>(pi)];
        SubTarget t;
        t.shard = si;
        t.node = pl.node;
        t.localMd = localMetadata(db_id, info, shard, pl);
        t.localStart = lo - shard.startFeature;
        t.localEnd = hi - shard.startFeature;
        t.home = true;
        return t;
    }
    return std::nullopt;
}

const ArrayCoordinator::DbInfo &
ArrayCoordinator::dbInfo(std::uint64_t db_id) const
{
    auto it = dbs_.find(db_id);
    if (it == dbs_.end())
        fatal("unknown db %llu",
              static_cast<unsigned long long>(db_id));
    return it->second;
}

int
ArrayCoordinator::alivePlacement(
    const DbShard &shard,
    const std::vector<std::uint32_t> &tried) const
{
    for (std::size_t i = 0; i < shard.placements.size(); ++i) {
        const std::uint32_t node_i = shard.placements[i].node;
        if (!nodes_[node_i]->alive())
            continue;
        if (std::find(tried.begin(), tried.end(), node_i) !=
            tried.end())
            continue;
        return static_cast<int>(i);
    }
    return -1;
}

DbMetadata
ArrayCoordinator::localMetadata(std::uint64_t db_id,
                                const DbInfo &info,
                                const DbShard &shard,
                                const ShardPlacement &pl) const
{
    DbMetadata md;
    md.dbId = db_id;
    md.featureBytes = info.featureBytes;
    md.numFeatures = shard.numFeatures;
    md.startLpn = pl.lpnStart;
    md.startPpn = pl.startPpn;
    return md;
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

void
ArrayCoordinator::scatter(std::uint64_t query_id,
                          std::uint64_t db_id,
                          std::uint64_t db_start,
                          std::uint64_t db_end,
                          std::uint64_t scatter_bytes,
                          std::uint64_t merge_bytes,
                          const SubBuilder &builder, DoneFn done)
{
    const DbInfo &info = dbInfo(db_id);
    auto [it, inserted] = aggs_.emplace(query_id, AggQuery{});
    if (!inserted)
        fatal("duplicate array query id %llu",
              static_cast<unsigned long long>(query_id));
    AggQuery &agg = it->second;
    agg.queryId = query_id;
    agg.dbId = db_id;
    agg.submitTick = events_.now();
    agg.totalFeatures = db_end - db_start;
    agg.scatterBytes = scatter_bytes;
    agg.mergeBytes = merge_bytes;
    agg.builder = builder;
    agg.done = std::move(done);
    ++inFlight_;
    arrayStats_.get("array.queriesScattered") += 1;

    // One sub-target per shard overlapping the range, from each
    // shard's first alive placement; shards with no survivor are
    // lost up front (deterministic Degraded coverage).
    struct Pending
    {
        SubTarget target;
        std::uint64_t subId = 0;
        std::size_t idx = 0;
    };
    std::vector<Pending> pending;
    for (std::uint32_t si = 0; si < info.shards.size(); ++si) {
        const DbShard &shard = info.shards[si];
        const std::uint64_t s_end =
            shard.startFeature + shard.numFeatures;
        const std::uint64_t lo = std::max(db_start,
                                          shard.startFeature);
        const std::uint64_t hi = std::min(db_end, s_end);
        if (lo >= hi)
            continue;
        const int pi = alivePlacement(shard, {});
        if (pi < 0) {
            agg.lostFeatures += hi - lo;
            arrayStats_.get("array.shardsLostNoReplica") += 1;
            continue;
        }
        const ShardPlacement &pl =
            shard.placements[static_cast<std::size_t>(pi)];
        Pending p;
        p.target.shard = si;
        p.target.node = pl.node;
        p.target.localMd = localMetadata(db_id, info, shard, pl);
        p.target.localStart = lo - shard.startFeature;
        p.target.localEnd = hi - shard.startFeature;
        p.target.home = pending.empty();
        p.subId = composeSubId(query_id,
                               pending.empty() ? 0
                                               : agg.nextSubSeq++);
        p.idx = agg.subs.size();
        SubState ss;
        ss.shard = si;
        ss.node = pl.node;
        ss.subId = p.subId;
        ss.localStart = p.target.localStart;
        ss.localEnd = p.target.localEnd;
        ss.triedNodes.push_back(pl.node);
        agg.subs.push_back(ss);
        ++agg.outstanding;
        pending.push_back(std::move(p));
    }

    if (pending.empty()) {
        // Every shard in range is gone: terminal immediately, zero
        // coverage, no fabric traffic.
        agg.worstRank = outcomeRank(QueryOutcome::Degraded);
        finalizeAgg(agg);
        return;
    }
    agg.homeNode = pending.front().target.node;
    for (auto &p : pending) {
        trackNode(agg, p.target.node);
        QuerySubmission sub = agg.builder(p.target, p.subId);
        DS_ASSERT(sub.queryId == p.subId);
        if (p.target.home) {
            // The home sub-query submits synchronously — a
            // single-node array runs zero coordinator events.
            submitSub(agg, p.idx, std::move(sub));
            continue;
        }
        arrayStats_.get("array.subQueriesRemote") += 1;
        dispatchRemote(agg, p.idx, std::move(sub));
    }
}

void
ArrayCoordinator::submitSingle(std::uint64_t query_id,
                               std::uint32_t node_i,
                               QuerySubmission sub, DoneFn done)
{
    auto [it, inserted] = aggs_.emplace(query_id, AggQuery{});
    if (!inserted)
        fatal("duplicate array query id %llu",
              static_cast<unsigned long long>(query_id));
    AggQuery &agg = it->second;
    agg.queryId = query_id;
    agg.submitTick = events_.now();
    agg.homeNode = node_i;
    agg.done = std::move(done);
    ++inFlight_;
    SubState ss;
    ss.node = node_i;
    ss.subId = sub.queryId;
    DS_ASSERT(sub.queryId == query_id);
    agg.subs.push_back(ss);
    ++agg.outstanding;
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
    agg.interNodeBytes += agg.scatterBytes;
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
    agg.run.computeStallTicks += rs.computeStallTicks;
    agg.run.backpressureTicks += rs.backpressureTicks;
    agg.run.probeTicks += rs.probeTicks;
    agg.run.reduceTicks += rs.reduceTicks;

    // Whole-drive failure: the node died under this sub-query.
    // Credit what it scanned and re-stripe the remainder onto a
    // replica; only when no replica survives (or the retry budget is
    // gone) does the loss reach the aggregate outcome.
    if (!nd.alive() && oc != QueryOutcome::Success) {
        agg.coveredFeatures += covered;
        if (tryRedispatch(agg, idx, covered))
            return;
        agg.lostFeatures += (ss.localEnd - ss.localStart) - covered;
        arrayStats_.get("array.subQueriesLost") += 1;
        subArrived(agg);
        return;
    }

    agg.coveredFeatures += covered;
    agg.worstRank = std::max(agg.worstRank, outcomeRank(oc));
    // Merge leg: a remote node ships its candidate set (partial
    // top-K) back to the home node over the fabric. Aborted
    // sub-queries ship nothing; power loss kills the fabric.
    const bool ships = ss.node != agg.homeNode &&
                       agg.mergeBytes > 0 && !inPowerLoss_ &&
                       oc != QueryOutcome::Aborted;
    if (!ships) {
        subArrived(agg);
        return;
    }
    const Tick now = events_.now();
    const Tick grant = fabric_.acquire(now, agg.mergeBytes);
    agg.interNodeBytes += agg.mergeBytes;
    agg.mergeTicks += grant - now;
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
        agg.worstRank = std::max(
            agg.worstRank, outcomeRank(QueryOutcome::Success));
        subArrived(agg);
        return true;
    }
    const DbInfo &info = dbInfo(agg.dbId);
    const DbShard &shard = info.shards[failed.shard];
    const int pi = alivePlacement(shard, failed.triedNodes);
    if (pi < 0)
        return false;
    const ShardPlacement &pl =
        shard.placements[static_cast<std::size_t>(pi)];

    SubState repl;
    repl.shard = failed.shard;
    repl.node = pl.node;
    repl.subId = composeSubId(agg.queryId, agg.nextSubSeq++);
    repl.localStart = rest_start;
    repl.localEnd = failed.localEnd;
    repl.retries = failed.retries + 1;
    repl.triedNodes = failed.triedNodes;
    repl.triedNodes.push_back(pl.node);
    const std::size_t new_idx = agg.subs.size();
    agg.subs.push_back(repl);
    ++agg.redispatches;
    arrayStats_.get("array.redispatches") += 1;
    trackNode(agg, pl.node);

    SubTarget target;
    target.shard = failed.shard;
    target.node = pl.node;
    target.localMd = localMetadata(agg.dbId, info, shard, pl);
    target.localStart = repl.localStart;
    target.localEnd = repl.localEnd;
    target.home = false;
    QuerySubmission sub = agg.builder(target, repl.subId);
    DS_ASSERT(sub.queryId == repl.subId);

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
    agg.completeTick = events_.now();
    DS_ASSERT(inFlight_ > 0);
    --inFlight_;

    ArrayQueryStats st;
    st.submitTick = agg.submitTick;
    st.completeTick = agg.completeTick;
    st.run = agg.run;
    st.mergeTicks = agg.mergeTicks;
    st.interNodeBytes = agg.interNodeBytes;
    st.redispatches = agg.redispatches;
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
                             agg.redispatches == 0;
    if (passthrough) {
        const SubState &ss = agg.subs[0];
        QueryScheduler &sched = nodes_[ss.node]->scheduler();
        st.outcome = sched.outcome(ss.subId);
        st.coverageFraction = sched.coverageFraction(ss.subId);
    } else {
        const std::uint64_t total = agg.totalFeatures;
        const std::uint64_t covered =
            std::min(agg.coveredFeatures, total);
        QueryOutcome oc = outcomeOfRank(agg.worstRank);
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
    agg.terminalOutcome = st.outcome;
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
            agg.worstRank = std::max(
                agg.worstRank, outcomeRank(QueryOutcome::Aborted));
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
        return agg.terminalOutcome == QueryOutcome::Success
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

// ---- durable shard map -------------------------------------------

std::vector<std::uint8_t>
ArrayCoordinator::serializeShardMap() const
{
    std::vector<std::uint8_t> out;
    putU64(out, dbs_.size());
    for (const auto &[db_id, info] : dbs_) {
        putU64(out, db_id);
        putU64(out, info.featureBytes);
        putU64(out, info.shards.size());
        for (const DbShard &shard : info.shards) {
            putU64(out, shard.startFeature);
            putU64(out, shard.numFeatures);
            putU64(out, shard.placements.size());
            for (const ShardPlacement &pl : shard.placements) {
                putU64(out, pl.node);
                putU64(out, pl.lpnStart);
                putU64(out, pl.startPpn);
            }
        }
    }
    putU64(out, nodes_.size());
    for (const auto &nd : nodes_)
        putU64(out, nd->nextFreeLpn());
    return out;
}

void
ArrayCoordinator::restoreShardMap(
    const std::vector<std::uint8_t> &blob)
{
    std::size_t pos = 0;
    auto next = [&blob, &pos]() -> std::uint64_t {
        if (pos + sizeof(std::uint64_t) > blob.size())
            fatal("shard-map blob truncated at byte %zu", pos);
        std::uint64_t v;
        std::memcpy(&v, blob.data() + pos, sizeof(v));
        pos += sizeof(v);
        return v;
    };
    std::map<std::uint64_t, DbInfo> restored;
    const std::uint64_t n_dbs = next();
    for (std::uint64_t d = 0; d < n_dbs; ++d) {
        const std::uint64_t db_id = next();
        DbInfo info;
        info.featureBytes = next();
        const std::uint64_t n_shards = next();
        for (std::uint64_t s = 0; s < n_shards; ++s) {
            DbShard shard;
            shard.startFeature = next();
            shard.numFeatures = next();
            const std::uint64_t n_pl = next();
            for (std::uint64_t p = 0; p < n_pl; ++p) {
                ShardPlacement pl;
                const std::uint64_t node = next();
                pl.lpnStart = next();
                pl.startPpn = next();
                if (node >= nodes_.size())
                    fatal("shard-map blob names unknown node %llu",
                          static_cast<unsigned long long>(node));
                pl.node = static_cast<std::uint32_t>(node);
                shard.placements.push_back(pl);
            }
            info.shards.push_back(std::move(shard));
        }
        restored.emplace(db_id, std::move(info));
    }
    const std::uint64_t n_nodes = next();
    if (n_nodes != nodes_.size())
        fatal("shard-map blob describes a %llu-node array; this "
              "array has %llu nodes",
              static_cast<unsigned long long>(n_nodes),
              static_cast<unsigned long long>(nodes_.size()));
    for (std::uint64_t i = 0; i < n_nodes; ++i)
        nodes_[i]->restoreNextFreeLpn(next());
    if (pos != blob.size())
        fatal("shard-map blob carries %zu trailing bytes",
              blob.size() - pos);
    dbs_ = std::move(restored);
}

void
ArrayCoordinator::noteTornSuperblock()
{
    ++tornSuperblocks_;
}

// ---- scrub engine ------------------------------------------------

void
ArrayCoordinator::startScrub()
{
    if (!config_.scrub.enabled)
        return;
    if (config_.scrub.pagesPerSecond <= 0.0)
        fatal("ScrubConfig::pagesPerSecond must be positive");
    if (config_.scrub.passes != 0 &&
        scrubPassesCompleted_ >= config_.scrub.passes)
        return; // the pass budget was spent before the restart
    const std::uint64_t gen = scrubGen_;
    events_.scheduleAfter(
        secondsToTicks(config_.scrub.startDelaySeconds),
        [this, gen] {
            if (gen != scrubGen_)
                return;
            buildScrubRuns();
            scrubBatch();
        });
}

void
ArrayCoordinator::buildScrubRuns()
{
    // Deterministic order: dbs_ is an ordered map, placements are in
    // bind/repair order. The snapshot covers every placement bound
    // when the pass starts; databases written later join the next
    // pass.
    scrubRuns_.clear();
    scrubRunIdx_ = 0;
    scrubPageIdx_ = 0;
    for (const auto &[db_id, info] : dbs_) {
        for (std::uint32_t si = 0; si < info.shards.size(); ++si) {
            const DbShard &shard = info.shards[si];
            for (const ShardPlacement &pl : shard.placements) {
                DbMetadata shape;
                shape.featureBytes = info.featureBytes;
                shape.numFeatures = shard.numFeatures;
                const std::uint64_t pages = shape.pageCount(
                    nodes_[pl.node]->flash().pageBytes);
                if (pages == 0)
                    continue;
                scrubRuns_.push_back(ScrubRun{db_id, si, pl.node,
                                              pl.lpnStart, pages});
            }
        }
    }
}

void
ArrayCoordinator::scrubBatch()
{
    const ScrubConfig &sc = config_.scrub;
    // Gather the next batch of pages, skipping dead nodes' runs.
    std::vector<std::pair<ScrubRun, std::uint64_t>> batch;
    while (batch.size() < kScrubBatchPages &&
           scrubRunIdx_ < scrubRuns_.size()) {
        const ScrubRun &run = scrubRuns_[scrubRunIdx_];
        if (!nodes_[run.node]->alive() ||
            scrubPageIdx_ >= run.pages) {
            ++scrubRunIdx_;
            scrubPageIdx_ = 0;
            continue;
        }
        batch.emplace_back(run, run.lpnStart + scrubPageIdx_);
        ++scrubPageIdx_;
    }
    const bool pass_done = scrubRunIdx_ >= scrubRuns_.size();
    const Tick issue = events_.now();
    // Rate cap: the next wakeup never comes sooner than the batch's
    // page budget allows (and never before its reads complete, so a
    // congested device self-throttles the scrubber further).
    const double budget_pages = static_cast<double>(
        batch.empty() ? kScrubBatchPages : batch.size());
    const Tick rate_next =
        issue + secondsToTicks(budget_pages / sc.pagesPerSecond);
    const std::uint64_t gen = scrubGen_;

    auto next_wakeup = [this, gen, pass_done](Tick at) {
        events_.schedule(at, [this, gen, pass_done] {
            if (gen != scrubGen_)
                return;
            if (pass_done) {
                ++scrubPassesCompleted_;
                if (config_.scrub.passes != 0 &&
                    scrubPassesCompleted_ >= config_.scrub.passes)
                    return; // budget spent; the queue may drain
                buildScrubRuns();
            }
            scrubBatch();
        });
    };

    if (batch.empty()) {
        // Nothing scannable this pass (no databases bound, or every
        // holder is dead). passes == 0 keeps polling — note this
        // keeps the event queue non-empty forever by design.
        next_wakeup(rate_next);
        return;
    }

    auto remaining = std::make_shared<std::size_t>(batch.size());
    auto last = std::make_shared<Tick>(issue);
    for (const auto &[run, lpn] : batch) {
        nodes_[run.node]->scrubRead(
            lpn,
            [this, gen, run = run, lpn = lpn, remaining, last,
             rate_next, next_wakeup](Tick t, ssd::FlashStatus st) {
                if (gen != scrubGen_)
                    return;
                ++scrubPagesScanned_;
                ++scrubScannedPerNode_[run.node];
                if (st == ssd::FlashStatus::Uncorrectable) {
                    ++scrubUncorrectableFound_;
                    repairPage(run, lpn);
                }
                *last = std::max(*last, t);
                if (--*remaining == 0)
                    next_wakeup(std::max(*last, rate_next));
            });
    }
}

void
ArrayCoordinator::repairPage(const ScrubRun &run, std::uint64_t lpn)
{
    if (!config_.repair.enabled)
        return;
    auto it = dbs_.find(run.dbId);
    if (it == dbs_.end() || run.shard >= it->second.shards.size())
        return; // the map moved on since the pass snapshot
    const DbInfo &info = it->second;
    const DbShard &shard = info.shards[run.shard];
    if (!nodes_[run.node]->alive())
        return; // node death repair handles the whole shard
    // Rewrite the page from an alive replica on another node.
    const ShardPlacement *src = nullptr;
    for (const ShardPlacement &pl : shard.placements) {
        if (pl.node != run.node && nodes_[pl.node]->alive()) {
            src = &pl;
            break;
        }
    }
    if (src == nullptr)
        return; // detected but unrepairable: no surviving replica
    DbMetadata shape;
    shape.featureBytes = info.featureBytes;
    shape.numFeatures = shard.numFeatures;
    const std::uint64_t src_pages =
        shape.pageCount(nodes_[src->node]->flash().pageBytes);
    if (src_pages == 0)
        return;
    // Same-geometry arrays map page i <-> page i; heterogeneous page
    // sizes rescale the offset (the rewrite only needs a source page
    // carrying the affected features).
    std::uint64_t src_off = (lpn - run.lpnStart) * src_pages /
                            run.pages;
    src_off = std::min(src_off, src_pages - 1);
    const std::uint32_t dest_node = run.node;
    const std::uint64_t page_bytes =
        nodes_[dest_node]->flash().pageBytes;
    const std::uint64_t gen = repairGen_;
    nodes_[src->node]->scrubRead(
        src->lpnStart + src_off,
        [this, gen, dest_node, lpn, page_bytes](Tick t,
                                                ssd::FlashStatus) {
            if (gen != repairGen_)
                return;
            const Tick arrive = repairTransfer(t, page_bytes);
            events_.schedule(arrive, [this, gen, dest_node, lpn] {
                if (gen != repairGen_ ||
                    !nodes_[dest_node]->alive())
                    return;
                // The in-place overwrite migrates the page to a new
                // physical location, so the corruption draw re-rolls
                // on fresh cells.
                nodes_[dest_node]->hostWrite(
                    lpn, 1, [this, gen](Tick) {
                        if (gen != repairGen_)
                            return;
                        ++scrubLatentRepaired_;
                    });
            });
        });
}

// ---- repair engine -----------------------------------------------

void
ArrayCoordinator::scheduleRepairScan()
{
    if (!config_.repair.enabled)
        return;
    const std::uint64_t gen = repairGen_;
    events_.scheduleAfter(0, [this, gen] {
        if (gen == repairGen_)
            repairScan();
    });
}

void
ArrayCoordinator::repairScan()
{
    for (auto &[db_id, info] : dbs_) {
        for (std::uint32_t si = 0; si < info.shards.size(); ++si) {
            DbShard &shard = info.shards[si];
            std::vector<std::uint32_t> holders;
            const ShardPlacement *src = nullptr;
            for (const ShardPlacement &pl : shard.placements) {
                if (!nodes_[pl.node]->alive())
                    continue;
                if (std::find(holders.begin(), holders.end(),
                              pl.node) == holders.end())
                    holders.push_back(pl.node);
                if (src == nullptr)
                    src = &pl;
            }
            const std::uint32_t desired = std::min<std::uint32_t>(
                std::max(config_.replication, 1u), aliveCount());
            if (src == nullptr || holders.size() >= desired)
                continue; // lost outright, or replicated enough
            const auto key = std::make_pair(db_id, si);
            if (std::find(repairPending_.begin(),
                          repairPending_.end(),
                          key) != repairPending_.end())
                continue;
            // Destination: lowest-index alive node without a copy.
            SsdNode *dest = nullptr;
            std::uint32_t dest_i = 0;
            for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
                if (!nodes_[n]->alive())
                    continue;
                if (std::find(holders.begin(), holders.end(), n) !=
                    holders.end())
                    continue;
                dest = nodes_[n].get();
                dest_i = n;
                break;
            }
            if (dest == nullptr)
                continue;
            DbMetadata shape;
            shape.featureBytes = info.featureBytes;
            shape.numFeatures = shard.numFeatures;
            const std::uint64_t dest_pages =
                shape.pageCount(dest->flash().pageBytes);
            if (dest_pages == 0)
                continue;
            RepairTask task;
            task.dbId = db_id;
            task.shard = si;
            task.srcNode = src->node;
            task.srcLpnStart = src->lpnStart;
            task.srcPages = shape.pageCount(
                nodes_[src->node]->flash().pageBytes);
            task.destNode = dest_i;
            task.destLpnStart = dest->allocatePages(dest_pages);
            task.destPages = dest_pages;
            repairQueue_.push_back(task);
            repairPending_.push_back(key);
        }
    }
    if (!repairActive_ && !repairQueue_.empty()) {
        repairActive_ = true;
        repairBatch();
    }
}

void
ArrayCoordinator::repairBatch()
{
    DS_ASSERT(repairActive_);
    while (!repairQueue_.empty()) {
        const RepairTask &front = repairQueue_.front();
        if (nodes_[front.srcNode]->alive() &&
            nodes_[front.destNode]->alive())
            break;
        // A participant died mid-copy: drop the task and rescan (a
        // different source or destination may still work; the
        // abandoned destination pages stay allocated — the
        // append-only allocator never reuses them).
        const auto key = std::make_pair(front.dbId, front.shard);
        auto pit = std::find(repairPending_.begin(),
                             repairPending_.end(), key);
        if (pit != repairPending_.end())
            repairPending_.erase(pit);
        repairQueue_.erase(repairQueue_.begin());
        scheduleRepairScan();
    }
    if (repairQueue_.empty()) {
        repairActive_ = false;
        return;
    }
    // Copy the front task by value: completions below run after
    // repairScan may have grown (reallocated) the queue.
    const RepairTask task = repairQueue_.front();
    const std::uint64_t n = std::min<std::uint64_t>(
        kRepairBatchPages, task.destPages - task.next);
    DS_ASSERT(n > 0);
    const std::uint64_t gen = repairGen_;
    const std::uint64_t page_bytes =
        nodes_[task.destNode]->flash().pageBytes;
    auto left = std::make_shared<std::uint64_t>(n);
    auto batch_done = [this, gen, n] {
        if (gen != repairGen_)
            return;
        DS_ASSERT(!repairQueue_.empty());
        RepairTask &t = repairQueue_.front();
        t.next += n;
        if (t.next >= t.destPages)
            finishRepairTask();
        else
            repairBatch();
    };
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t di = task.next + i;
        std::uint64_t si = di * task.srcPages / task.destPages;
        si = std::min(si, task.srcPages - 1);
        // The source read is a verifying flash read on the donor's
        // channel buses; like GC relocation, repair takes the page as
        // the media returns it (no extra ECC heroics on this path).
        nodes_[task.srcNode]->scrubRead(
            task.srcLpnStart + si,
            [this, gen, task, di, left, page_bytes, batch_done](
                Tick t, ssd::FlashStatus) {
                if (gen != repairGen_)
                    return;
                const Tick arrive = repairTransfer(t, page_bytes);
                events_.schedule(arrive, [this, gen, task, di, left,
                                          batch_done] {
                    if (gen != repairGen_)
                        return;
                    if (!nodes_[task.destNode]->alive()) {
                        // Destination died under the copy; the next
                        // batch_done aborts the task.
                        if (--*left == 0)
                            batch_done();
                        return;
                    }
                    nodes_[task.destNode]->hostWrite(
                        task.destLpnStart + di, 1,
                        [this, gen, task, left, batch_done](Tick) {
                            if (gen != repairGen_)
                                return;
                            ++repairPagesCopied_;
                            ++repairPagesPerNode_[task.destNode];
                            if (--*left == 0)
                                batch_done();
                        });
                });
            });
    }
}

void
ArrayCoordinator::finishRepairTask()
{
    DS_ASSERT(!repairQueue_.empty());
    const RepairTask task = repairQueue_.front();
    repairQueue_.erase(repairQueue_.begin());
    const auto key = std::make_pair(task.dbId, task.shard);
    auto pit = std::find(repairPending_.begin(),
                         repairPending_.end(), key);
    if (pit != repairPending_.end())
        repairPending_.erase(pit);
    auto it = dbs_.find(task.dbId);
    if (it != dbs_.end() &&
        task.shard < it->second.shards.size() &&
        nodes_[task.destNode]->alive()) {
        // The new copy goes live: queries, failover, and the next
        // scrub pass all see it through the normal placement list.
        ShardPlacement pl;
        pl.node = task.destNode;
        pl.lpnStart = task.destLpnStart;
        pl.startPpn =
            nodes_[task.destNode]->translate(task.destLpnStart);
        it->second.shards[task.shard].placements.push_back(pl);
        ++repairShardsRepaired_;
    }
    // Deaths during the copy may have exposed more shards.
    repairScan();
    if (repairQueue_.empty()) {
        repairActive_ = false;
        lastRepairCompleteTick_ = events_.now();
    } else {
        repairBatch();
    }
}

Tick
ArrayCoordinator::repairTransfer(Tick ready, std::uint64_t bytes)
{
    // Token-bucket pacing against the configured cap, then the real
    // fabric: repair throughput is min(cap, fabric share), and
    // queries' scatter/merge legs queue behind repair grants on the
    // same link.
    Tick start = std::max(ready, repairCapFreeAt_);
    if (config_.repair.bandwidthBytesPerSecond > 0.0)
        repairCapFreeAt_ =
            start + secondsToTicks(
                        static_cast<double>(bytes) /
                        config_.repair.bandwidthBytesPerSecond);
    else
        repairCapFreeAt_ = start;
    repairBytesOverFabric_ += bytes;
    return fabric_.acquire(repairCapFreeAt_, bytes);
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
    scheduleRepairScan();
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
        nd->scheduler().powerLoss();
    // Aggregates still pending (merges or dispatches that were on
    // the fabric when the lights went out) finalize with outcome
    // PowerLoss; their scheduled fabric events are invalidated.
    for (auto &[qid, agg] : aggs_) {
        if (agg.finished)
            continue;
        ++agg.gen;
        for (SubState &ss : agg.subs)
            ss.terminal = true;
        agg.worstRank = outcomeRank(QueryOutcome::PowerLoss);
        finalizeAgg(agg);
    }
    fabric_.reset(events_.now());
    for (auto &nd : nodes_)
        nd->devicePowerLoss();
    inPowerLoss_ = false;
    // Scrub wakeups and in-flight repair copies died with the
    // capacitors: bump both generations so their stale events are
    // no-ops, forget queued tasks (half-copied destination pages
    // stay allocated; the append-only allocator never reuses them),
    // then restart both engines under the new generations. Disabled
    // engines schedule nothing, keeping default runs event-identical.
    ++scrubGen_;
    ++repairGen_;
    repairQueue_.clear();
    repairPending_.clear();
    repairActive_ = false;
    repairCapFreeAt_ = 0;
    startScrub();
    scheduleRepairScan();
}

void
ArrayCoordinator::dumpStats(std::ostream &os)
{
    os << "array.nodes = " << nodes_.size() << "\n";
    os << "array.aliveNodes = " << aliveCount() << "\n";
    os << "array.replication = " << config_.replication << "\n";
    // Scrub/repair rows appear only when the engines are in play, so
    // default-config stat dumps stay byte-identical to the pre-scrub
    // coordinator (the determinism sweeps compare dump strings).
    if (config_.scrub.enabled || scrubPagesScanned_ > 0) {
        os << "array.scrub.pagesScanned = " << scrubPagesScanned_
           << "\n";
        os << "array.scrub.uncorrectableFound = "
           << scrubUncorrectableFound_ << "\n";
        os << "array.scrub.latentRepaired = " << scrubLatentRepaired_
           << "\n";
        os << "array.scrub.passes = " << scrubPassesCompleted_
           << "\n";
    }
    if (config_.repair.enabled || repairPagesCopied_ > 0) {
        os << "array.repair.shardsRepaired = "
           << repairShardsRepaired_ << "\n";
        os << "array.repair.pagesCopied = " << repairPagesCopied_
           << "\n";
        os << "array.repair.bytesOverFabric = "
           << repairBytesOverFabric_ << "\n";
        os << "array.repair.lastCompleteTick = "
           << lastRepairCompleteTick_ << "\n";
    }
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
