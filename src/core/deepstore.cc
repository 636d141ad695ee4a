#include "core/deepstore.h"

#include <algorithm>

#include "common/logging.h"
#include "core/array_superblock.h"
#include "sim/clock.h"
#include "ssd/throughput.h"

namespace deepstore::core {

namespace {

/** Page count above which a database write/read uses the closed-form
 *  bulk timing instead of per-page flash events. */
constexpr std::uint64_t kEventSimPageLimit = 65536;

} // namespace

DeepStore::DeepStore(DeepStoreConfig config)
    : config_(std::move(config)), ledger_(events_),
      model_(config_.flash)
{
    // The array owns the member drives; each SsdNode bundles its SSD,
    // FTL, fault domain, DfvStreamService, and QueryScheduler exactly
    // the way the pre-array engine wired its single device (scan
    // streams share the controllers that serve host I/O, so query and
    // host traffic observably contend for planes and channel buses).
    SsdNodeConfig base;
    base.flash = config_.flash;
    base.recovery = config_.recovery;
    array_ = std::make_unique<ArrayCoordinator>(events_, config_.array,
                                                std::move(base));
    // Scheduled whole-array power loss (fault schedule): collect the
    // distinct ticks from the base flash config and every explicit
    // node geometry; each fires once, killing in-flight work on every
    // node and replaying recovery.
    std::vector<Tick> loss_ticks;
    if (config_.flash.faults.powerLossAtTick > 0)
        loss_ticks.push_back(config_.flash.faults.powerLossAtTick);
    for (const auto &nf : config_.array.nodes)
        if (nf.faults.powerLossAtTick > 0)
            loss_ticks.push_back(nf.faults.powerLossAtTick);
    std::sort(loss_ticks.begin(), loss_ticks.end());
    loss_ticks.erase(
        std::unique(loss_ticks.begin(), loss_ticks.end()),
        loss_ticks.end());
    for (Tick t : loss_ticks)
        events_.schedule(t, [this] { powerLoss(); });
}

void
DeepStore::stepUntil(const bool &done)
{
    while (!done) {
        if (!events_.step())
            panic("event queue drained while an I/O completion was "
                  "still outstanding");
    }
}

void
DeepStore::writePagesTimedOn(SsdNode &node, std::uint64_t lpn_start,
                             std::uint64_t pages,
                             TimeComponent component)
{
    DS_ASSERT(pages > 0);
    if (pages <= kEventSimPageLimit) {
        Tick start = events_.now();
        bool done = false;
        node.hostWrite(lpn_start, pages,
                       [&done](Tick) { done = true; });
        // Step (not run): in-flight queries keep making progress
        // inside the window, and the clock stops exactly at the
        // write's completion tick.
        stepUntil(done);
        ledger_.attribute(ticksToSeconds(events_.now() - start),
                          component);
        return;
    }
    // Closed form: programs overlap across every plane; the channel
    // buses carry one full page each. Still register the mapping.
    for (std::uint64_t i = 0; i < pages; ++i)
        node.registerWrite(lpn_start + i);
    const auto &p = node.flash();
    double planes =
        static_cast<double>(p.channels) * p.chipsPerChannel *
        p.planesPerChip;
    double program_rate = planes / p.programLatency; // pages/s
    double bus_rate = p.internalBandwidth() /
                      static_cast<double>(p.pageBytes);
    // lint:allow(D6: host bulk-ingest fast path, not the scan datapath)
    ledger_.advance(static_cast<double>(pages) /
                        std::min(program_rate, bus_rate),
                    component);
}

std::uint64_t
DeepStore::writeDB(std::shared_ptr<FeatureSource> source)
{
    if (!source || source->count() == 0 || source->dim() <= 0)
        fatal("writeDB needs a non-empty source of positive dim");
    std::uint64_t feature_bytes =
        static_cast<std::uint64_t>(source->dim()) * kBytesPerFloat;
    // Stripe across the array: one contiguous feature chunk per
    // alive node (plus replicas), each chunk programmed through its
    // own node's channels. A single-node array degenerates to one
    // part at the node's next free LPN — the pre-array layout.
    auto parts =
        array_->shardMap().stripeDb(feature_bytes, source->count());
    for (const auto &part : parts)
        writePagesTimedOn(array_->node(part.node), part.lpnStart,
                          part.pages, TimeComponent::HostWrite);

    DbMetadata md;
    md.featureBytes = feature_bytes;
    md.numFeatures = source->count();
    // The global record keys on shard 0's primary placement; the
    // coordinator's shard map is authoritative for scan planning.
    md.startLpn = parts.front().lpnStart;
    md.startPpn = array_->node(parts.front().node)
                      .translate(parts.front().lpnStart);

    std::uint64_t db_id = metadata_.add(md);
    array_->shardMap().bindDb(db_id, feature_bytes, parts);
    sources_[db_id] = {source->dim(), source->count(), {{0, source}}};
    return db_id;
}

void
DeepStore::appendDB(std::uint64_t db_id,
                    std::shared_ptr<FeatureSource> source)
{
    if (!source || source->count() == 0)
        fatal("appendDB needs a non-empty feature source");
    DbMetadata md = metadata_.lookup(db_id);
    FeatureTable &table = sources_.at(db_id);
    if (source->dim() != table.dim)
        fatal("appendDB feature dim %lld != database dim %lld",
              static_cast<long long>(source->dim()),
              static_cast<long long>(table.dim));

    // Buffered append (§4.7.2): the shard map grows the last shard
    // on every live placement, returning only the pages each node
    // must program.
    ShardMap &map = array_->shardMap();
    auto parts = map.growDb(db_id, source->count());
    for (const auto &part : parts)
        writePagesTimedOn(array_->node(part.node), part.lpnStart,
                          part.pages, TimeComponent::HostWrite);
    map.bindRuns(db_id, parts);
    md.numFeatures += source->count();
    metadata_.update(md);
    table.extents.push_back({table.rows, source});
    table.rows += source->count();
    // Cached results may now be stale relative to the larger DB.
    if (queryCache_)
        queryCache_->invalidateAll();
}

std::vector<std::vector<float>>
DeepStore::readDB(std::uint64_t db_id, std::uint64_t start,
                  std::uint64_t num)
{
    std::vector<float> flat;
    readDB(db_id, start, num, flat);
    const auto dim = static_cast<std::ptrdiff_t>(sources_.at(db_id).dim);
    std::vector<std::vector<float>> out;
    for (auto row = flat.cbegin(); row != flat.cend(); row += dim)
        out.emplace_back(row, row + dim);
    return out;
}

void
DeepStore::readDB(std::uint64_t db_id, std::uint64_t start,
                  std::uint64_t num, std::vector<float> &out)
{
    const DbMetadata &md = metadata_.lookup(db_id);
    // Overflow-safe form of start + num > numFeatures (both are
    // host-controlled 64-bit fields).
    if (start > md.numFeatures || num > md.numFeatures - start)
        fatal("readDB of %llu features at %llu exceeds %llu features",
              static_cast<unsigned long long>(num),
              static_cast<unsigned long long>(start),
              static_cast<unsigned long long>(md.numFeatures));
    // Timing: read the covering pages of every overlapped shard over
    // the host interface (nodes serve their segments concurrently).
    auto segs = array_->shardMap().readSegments(db_id, start, num);
    std::uint64_t pages = 0;
    for (const auto &seg : segs)
        pages += seg.pages;
    if (pages > 0 && pages <= kEventSimPageLimit) {
        Tick t0 = events_.now();
        bool done = false;
        std::size_t remaining = segs.size();
        for (const auto &seg : segs)
            array_->node(seg.node).hostRead(
                seg.lpnStart, seg.pages,
                [&done, &remaining](Tick) {
                    if (--remaining == 0)
                        done = true;
                });
        stepUntil(done);
        ledger_.attribute(ticksToSeconds(events_.now() - t0),
                          TimeComponent::HostRead);
    } else if (pages > 0) {
        std::uint64_t bytes = 0;
        for (const auto &seg : segs)
            bytes += seg.pages *
                     array_->node(seg.node).flash().pageBytes;
        // lint:allow(D6: host bulk-read fast path, not the scan datapath)
        ledger_.advance(static_cast<double>(bytes) /
                            config_.flash.externalBandwidth,
                        TimeComponent::HostRead);
    }

    out.resize(num * static_cast<std::size_t>(sources_.at(db_id).dim));
    fillRows(db_id, start, num, out.data());
}

void
DeepStore::fillRows(std::uint64_t db_id, std::uint64_t start,
                    std::uint64_t n, float *out) const
{
    const FeatureTable &t = sources_.at(db_id);
    DS_ASSERT(start <= t.rows && n <= t.rows - start);
    // Start in the last extent that begins at or before `start`.
    auto e = std::upper_bound(t.extents.begin(), t.extents.end(), start,
                              [](std::uint64_t row, const Extent &x) {
                                  return row < x.firstRow;
                              });
    for (--e; n > 0; ++e) {
        const std::uint64_t end =
            e + 1 == t.extents.end() ? t.rows : e[1].firstRow;
        const std::uint64_t take = std::min(n, end - start);
        e->source->fill(start - e->firstRow, take, out);
        out += take * static_cast<std::size_t>(t.dim);
        start += take;
        n -= take;
    }
}

std::uint64_t
DeepStore::loadModel(const std::vector<std::uint8_t> &blob)
{
    return loadModel(nn::deserializeModel(blob));
}

std::uint64_t
DeepStore::loadModel(nn::ModelBundle bundle)
{
    // The executor checks the model and every weight shape; check
    // before taking an id, so a rejected bundle leaves no entry.
    (void)nn::Executor(bundle.model, bundle.weights);
    std::uint64_t id = nextModelId_++;
    // Emplace first: the executor holds references into the stored
    // bundle, and map nodes are address-stable.
    LoadedModel &lm = models_[id];
    lm.bundle = std::move(bundle);
    lm.executor = std::make_unique<nn::Executor>(lm.bundle.model,
                                                 lm.bundle.weights);
    // Model upload: weights travel over the host interface into SSD
    // DRAM (§4.2).
    // lint:allow(D6: host-interface model upload, not the scan datapath)
    ledger_.advance(
        static_cast<double>(lm.bundle.model.totalWeightBytes()) /
            config_.flash.externalBandwidth,
        TimeComponent::ModelUpload);
    return id;
}

const DeepStore::LoadedModel &
DeepStore::lookupModel(std::uint64_t model_id) const
{
    auto it = models_.find(model_id);
    if (it == models_.end())
        fatal("unknown model_id %llu",
              static_cast<unsigned long long>(model_id));
    return it->second;
}

void
DeepStore::setQC(std::uint64_t qcn_model_id, double threshold,
                 double qcn_accuracy, std::size_t capacity)
{
    const LoadedModel &qcn = lookupModel(qcn_model_id);
    qcnModelId_ = qcn_model_id;
    QueryCacheConfig cfg;
    cfg.capacity = capacity;
    cfg.threshold = threshold;
    cfg.qcnAccuracy = qcn_accuracy;
    // Score via the functional QCN over remembered query features:
    // the new query against a chunk of cached ones as one batch.
    queryCache_ = std::make_unique<QueryCache>(
        cfg, [this, &qcn](std::uint64_t query, const std::uint64_t *cached,
                          std::size_t n, double *out) {
            DS_ASSERT(query < seenQueries_.size());
            const std::vector<float> &q = seenQueries_[query];
            std::vector<float> rows(n * q.size()), scores(n);
            for (std::size_t j = 0; j < n; ++j) {
                DS_ASSERT(cached[j] < seenQueries_.size());
                const auto &c = seenQueries_[cached[j]];
                DS_ASSERT(c.size() == q.size());
                std::copy(c.begin(), c.end(), rows.begin() + j * q.size());
            }
            qcn.executor->scoreBatch(q, rows.data(), n, scores.data());
            std::copy(scores.begin(), scores.end(), out);
        });
}

std::uint64_t
DeepStore::query(const std::vector<float> &qfv, std::size_t k,
                 std::uint64_t model_id, std::uint64_t db_id,
                 std::uint64_t db_start, std::uint64_t db_end,
                 std::optional<Level> level_opt,
                 double deadline_seconds)
{
    const LoadedModel &m = lookupModel(model_id);
    const DbMetadata &db = metadata_.lookup(db_id);
    if (db_end == 0)
        db_end = db.numFeatures;
    if (db_start >= db_end || db_end > db.numFeatures)
        fatal("query range [%llu, %llu) invalid for %llu features",
              static_cast<unsigned long long>(db_start),
              static_cast<unsigned long long>(db_end),
              static_cast<unsigned long long>(db.numFeatures));
    if (static_cast<std::int64_t>(qfv.size()) !=
        m.bundle.model.featureDim())
        fatal("query feature size %zu != model dim %lld", qfv.size(),
              static_cast<long long>(m.bundle.model.featureDim()));
    if (qfv.size() * kBytesPerFloat != db.featureBytes)
        fatal("query feature size %zu B != database feature size "
              "%llu B",
              qfv.size() * kBytesPerFloat,
              static_cast<unsigned long long>(db.featureBytes));
    Level level = level_opt.value_or(config_.defaultLevel);

    LevelPerf perf =
        model_.evaluateModel(level, m.bundle.model, db.featureBytes);
    if (!perf.supported)
        fatal("accelerator level %s cannot execute model '%s'",
              toString(level), m.bundle.model.name().c_str());

    std::uint64_t this_query = seenQueries_.size();
    seenQueries_.push_back(qfv);
    std::uint64_t qid = nextQueryId_++;

    // The probe is decided functionally at submit time against the
    // cache state of *completed* queries; in-flight queries insert
    // only when they complete.
    CacheLookup hit;
    const LoadedModel *qcn = nullptr;
    if (queryCache_) {
        qcn = &lookupModel(qcnModelId_);
        hit = queryCache_->lookup(this_query);
    }

    const LoadedModel *mp = &m;
    // Builds one sub-query submission, lowered onto the *target
    // node's* model so heterogeneous geometries place correctly.
    // Captures by value only: the coordinator keeps this builder and
    // re-invokes it at later ticks when a node death re-stripes the
    // shard onto a replica.
    //  - The home sub-query runs the QC probe. QCN lookups fan out
    //    across the node's channel-level accelerators (§4.6): each
    //    pulls its share of the cached QFVs over the node's DRAM link
    //    and scores it on its array, behind whatever scan work
    //    already holds those resources.
    //  - A hit rescores the cached top-K on one channel accelerator:
    //    the cached features already sit in SSD DRAM, so it is a DRAM
    //    pull of the cached vectors plus the SCN burst (§4.2).
    //  - A miss scans: the plan, layer bursts and weight leg come
    //    from the node's model, and the flash term is real
    //    FlashCommand reads resolved through that node's FTL.
    auto builder = [this, level, mp, qcn, k, deadline_seconds, db_id,
                    feature_bytes = db.featureBytes, cache_hit = hit.hit,
                    entries = hit.entriesScanned,
                    cached = hit.cachedResults.size()](
                       const SubTarget &t, std::uint64_t sub_id) {
        SsdNode &nd = array_->node(t.node);
        QuerySubmission s;
        s.queryId = sub_id;
        s.level = level;
        s.deadlineSeconds = deadline_seconds;
        s.dbKey = db_id;
        if (qcn && t.home) {
            s.probe = true;
            const std::uint64_t qfv_bytes =
                static_cast<std::uint64_t>(
                    qcn->bundle.model.featureDim()) *
                kBytesPerFloat;
            LevelPerf qp = nd.model().evaluateModel(
                Level::ChannelLevel, qcn->bundle.model, qfv_bytes);
            const std::uint64_t units =
                qp.placement.numAccelerators;
            if (entries > 0) {
                const std::uint64_t per_unit =
                    (entries + units - 1) / units;
                s.probeComputeTicksPerUnit =
                    sim::Clock(qp.placement.array.frequencyHz)
                        .cyclesToTicks(qp.modelRun.totalCycles() *
                                       per_unit);
                s.probeDramBytesPerUnit = per_unit * qfv_bytes;
            }
        }
        if (cache_hit) {
            LevelPerf cp = nd.model().evaluateModel(
                Level::ChannelLevel, mp->bundle.model, feature_bytes);
            s.cacheHit = true;
            s.hitComputeTicks =
                sim::Clock(cp.placement.array.frequencyHz)
                    .cyclesToTicks(cp.modelRun.totalCycles() * cached);
            s.hitDramBytes = cached * feature_bytes;
            return s;
        }
        LevelPerf nperf = nd.model().evaluateModel(
            level, mp->bundle.model, t.localMd.featureBytes);
        if (!nperf.supported)
            fatal("accelerator level %s cannot execute model '%s' "
                  "on array node %u",
                  toString(level), mp->bundle.model.name().c_str(),
                  t.node);
        s.plan = nd.resolvePlan(nperf.placement, t.localMd,
                                t.localStart, t.localEnd);
        // The page-retry budget rides on each shard's DFV plan (the
        // stream layer owns the bounded reissue + backoff machinery).
        for (auto &shard : s.plan.units)
            shard.plan.maxPageRetries = config_.maxPageRetries;
        s.layerBurstTicksPerFeature = layerBurstTicks(nperf);
        s.featuresPerSlot = std::max<std::uint64_t>(
            1,
            static_cast<std::uint64_t>(nperf.placement.wsGroupSize));
        s.weightBytesPerSlot = nperf.excessWeightBytesPerSlot;
        s.weightBroadcast = nperf.weightBroadcast;
        // The reduce gathers each shard's partial top-K over the
        // node's DRAM link before the merge on the embedded cores.
        s.reduceBytesPerShard =
            std::max<std::uint64_t>(k, 1) * sizeof(ScoredResult);
        return s;
    };

    if (hit.hit) {
        // No scatter — the array submits a single sub-query on the
        // home node, or on a surviving node when every overlapping
        // shard lost its last replica (the rescore needs no flash).
        auto targets =
            array_->shardMap().overlap(db_id, db_start, db_end).targets;
        SubTarget home;
        home.node = array_->firstAliveNode();
        home.home = true;
        if (!targets.empty())
            home = targets.front();
        QuerySubmission sub = builder(home, qid);
        auto cached = std::move(hit.cachedResults);
        std::vector<float> q = qfv;
        auto done = [this, qid, k, mp, db_id, cached,
                     q = std::move(q)](const ArrayQueryStats &ast) {
            QueryResult res =
                settledResult(qid, ast, TimeComponent::CacheHit);
            if (res.outcome == QueryOutcome::Success) {
                res.featuresScanned = cached.size();
                // Re-run the SCN on only the cached top-K features:
                // gather their rows, then score them as one batch.
                TopK topk(std::max<std::size_t>(k, 1));
                std::vector<float> rows(cached.size() * q.size());
                std::vector<float> scores(cached.size());
                for (std::size_t j = 0; j < cached.size(); ++j)
                    fillRows(db_id, cached[j].featureId, 1,
                             rows.data() + j * q.size());
                mp->executor->scoreBatch(q, rows.data(), cached.size(),
                                         scores.data());
                for (std::size_t j = 0; j < cached.size(); ++j)
                    topk.insert(ScoredResult{cached[j].featureId,
                                             cached[j].objectId,
                                             scores[j]});
                res.topK = topk.results();
            }
            finishQuery(qid, std::move(res));
        };
        array_->submitSingle(qid, home.node, std::move(sub),
                             std::move(done));
        return qid;
    }

    // Miss path: scatter one sub-query per overlapped shard. The
    // scatter leg ships the QFV + descriptor to each remote node;
    // the merge leg ships each remote node's candidate top-K back.
    const std::uint64_t scatter_bytes = db.featureBytes + 64;
    const std::uint64_t merge_bytes =
        std::max<std::uint64_t>(k, 1) * sizeof(ScoredResult);
    DbMetadata dbmd = db;
    std::vector<float> q = qfv;
    auto done = [this, qid, this_query, k, mp, dbmd, db_start, db_end,
                 n_accel = perf.placement.numAccelerators,
                 q = std::move(q)](const ArrayQueryStats &ast) {
        QueryResult res = settledResult(qid, ast, TimeComponent::Scan);
        // Degraded queries report the top-K over the prefix of the
        // range that was actually scanned; partial results never
        // seed the Query Cache.
        const std::uint64_t range = db_end - db_start;
        res.featuresScanned = static_cast<std::uint64_t>(
            res.coverageFraction * static_cast<double>(range));
        res.featuresScanned = std::min(res.featuresScanned, range);
        if (res.featuresScanned > 0)
            res.topK =
                scanTopK(q, k, *mp, dbmd, db_start,
                         db_start + res.featuresScanned, n_accel);
        if (queryCache_ && res.outcome == QueryOutcome::Success)
            queryCache_->insert(this_query, res.topK);
        finishQuery(qid, std::move(res));
    };
    array_->scatter(qid, db_id, db_start, db_end, scatter_bytes,
                    merge_bytes, builder, std::move(done));
    return qid;
}

std::uint64_t
DeepStore::querySync(const std::vector<float> &qfv, std::size_t k,
                     std::uint64_t model_id, std::uint64_t db_id,
                     std::uint64_t db_start, std::uint64_t db_end,
                     std::optional<Level> level_opt)
{
    std::uint64_t qid =
        query(qfv, k, model_id, db_id, db_start, db_end, level_opt);
    waitFor(qid);
    return qid;
}

std::optional<QueryState>
DeepStore::poll(std::uint64_t query_id) const
{
    return array_->state(query_id);
}

bool
DeepStore::cancel(std::uint64_t query_id)
{
    return array_->cancel(query_id);
}

bool
DeepStore::step()
{
    return events_.step();
}

void
DeepStore::drain()
{
    while (array_->inFlight() > 0) {
        if (!events_.step())
            panic("scheduler stalled: %zu queries in flight with an "
                  "empty event queue",
                  array_->inFlight());
    }
}

void
DeepStore::waitFor(std::uint64_t query_id)
{
    auto st = array_->state(query_id);
    if (!st)
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    while (!isTerminal(*array_->state(query_id))) {
        if (!events_.step())
            panic("scheduler stalled waiting for query %llu",
                  static_cast<unsigned long long>(query_id));
    }
}

void
DeepStore::onComplete(std::uint64_t query_id,
                      std::function<void(const QueryResult &)> cb)
{
    DS_ASSERT(cb);
    auto it = results_.find(query_id);
    if (it != results_.end()) {
        cb(it->second);
        return;
    }
    if (!array_->state(query_id))
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    completionCallbacks_[query_id].push_back(std::move(cb));
}

QueryResult
DeepStore::settledResult(std::uint64_t query_id,
                         const ArrayQueryStats &ast,
                         TimeComponent component)
{
    QueryResult res;
    res.queryId = query_id;
    res.cacheHit = component == TimeComponent::CacheHit;
    res.outcome = ast.outcome;
    res.coverageFraction = ast.coverageFraction;
    res.latencySeconds =
        ticksToSeconds(ast.completeTick - ast.submitTick);
    const double probe_s = ticksToSeconds(ast.run.probeTicks);
    res.qcProbeSeconds = probe_s;
    res.computeStallSeconds = ticksToSeconds(ast.run.computeStallTicks);
    res.backpressureSeconds = ticksToSeconds(ast.run.backpressureTicks);
    res.nocWaitSeconds = ticksToSeconds(ast.nocWaitTicks);
    res.mergeSeconds = ticksToSeconds(ast.mergeTicks);
    res.interNodeBytes = ast.interNodeBytes;
    res.nodesParticipating = ast.nodesParticipating;
    res.redispatches = ast.redispatches;
    ledger_.attribute(probe_s, TimeComponent::QcLookup);
    ledger_.attribute(std::max(0.0, res.latencySeconds - probe_s),
                      component);
    return res;
}

void
DeepStore::finishQuery(std::uint64_t query_id, QueryResult res)
{
    auto [it, inserted] = results_.emplace(query_id, std::move(res));
    DS_ASSERT(inserted);
    auto cb_it = completionCallbacks_.find(query_id);
    if (cb_it == completionCallbacks_.end())
        return;
    auto callbacks = std::move(cb_it->second);
    completionCallbacks_.erase(cb_it);
    for (auto &cb : callbacks)
        cb(it->second);
}

std::vector<ScoredResult>
DeepStore::scanTopK(const std::vector<float> &qfv, std::size_t k,
                    const LoadedModel &m, const DbMetadata &db,
                    std::uint64_t db_start, std::uint64_t db_end,
                    std::uint32_t n_accel) const
{
    // Map-reduce across accelerators (§4.7.1): each accelerator
    // scans its stripe with a private top-K, merged by the engine.
    std::vector<TopK> partials;
    partials.reserve(n_accel);
    for (std::uint32_t a = 0; a < n_accel; ++a)
        partials.emplace_back(std::max<std::size_t>(k, 1));

    // Rows arrive and are scored a chunk at a time; scores enter the
    // partials in row order, as one at a time would.
    constexpr std::uint64_t kChunk = 64;
    std::vector<float> rows(kChunk * qfv.size());
    float scores[kChunk];
    for (std::uint64_t c = db_start; c < db_end; c += kChunk) {
        const std::uint64_t n = std::min(kChunk, db_end - c);
        fillRows(db.dbId, c, n, rows.data());
        m.executor->scoreBatch(qfv, rows.data(), n, scores);
        for (std::uint64_t i = c; i < c + n; ++i) {
            std::uint64_t ppn =
                db.featurePpn(i, config_.flash.pageBytes);
            partials[i % n_accel].insert(
                ScoredResult{i, ppn, scores[i - c]});
        }
    }
    TopK merged(std::max<std::size_t>(k, 1));
    for (const auto &p : partials)
        merged.merge(p);
    return merged.results();
}

void
DeepStore::hostRead(std::uint64_t lpn_start, std::uint64_t count,
                    ssd::Completion on_complete)
{
    array_->node(0).hostRead(lpn_start, count,
                             std::move(on_complete));
}

void
DeepStore::hostWrite(std::uint64_t lpn_start, std::uint64_t count,
                     ssd::Completion on_complete)
{
    array_->node(0).hostWrite(lpn_start, count,
                              std::move(on_complete));
}

void
DeepStore::hostTrim(std::uint64_t lpn_start, std::uint64_t count,
                    ssd::Completion on_complete)
{
    array_->node(0).hostTrim(lpn_start, count,
                             std::move(on_complete));
}

std::uint64_t
DeepStore::persistMetadata()
{
    // §4.4 metadata persistence, generalized to the array (DESIGN.md
    // §12): the metadata table and the coordinator's shard map are
    // bundled into one epoch-stamped, checksummed superblock image
    // and written to the reserved block of *every* alive node, so
    // recovery survives any minority of torn or dead replicas —
    // including node 0's.
    SuperblockImage image;
    image.epoch = ++metadataEpoch_;
    image.metadataBlob = metadata_.serialize();
    image.shardMapBlob = array_->shardMap().serializeShardMap();
    const std::vector<std::uint8_t> encoded =
        encodeSuperblock(image);

    const std::uint64_t gen = metadataFlushGen_;
    Tick t0 = events_.now();
    std::size_t remaining = 0;
    std::uint64_t node0_pages = 0;
    for (std::uint32_t n = 0; n < array_->nodeCount(); ++n) {
        SsdNode &nd = array_->node(n);
        if (!nd.alive())
            continue;
        const std::uint64_t page_bytes = nd.flash().pageBytes;
        const std::uint64_t pages =
            (encoded.size() + page_bytes - 1) / page_bytes;
        if (n == 0)
            node0_pages = pages;
        const std::uint64_t reserved = nd.reservedMetadataLpn();
        // Rewritten in place on every persist; trim first so the
        // block-level FTL does not charge a migration.
        nd.trimPages(reserved, pages);
        remaining += pages;
        for (std::uint64_t i = 0; i < pages; ++i) {
            const std::size_t off =
                static_cast<std::size_t>(i * page_bytes);
            const std::size_t len = std::min<std::size_t>(
                page_bytes, encoded.size() - off);
            std::vector<std::uint8_t> slice(
                encoded.begin() + static_cast<long>(off),
                encoded.begin() + static_cast<long>(off + len));
            // One program per page, its payload committed at that
            // program's completion tick: the capacitor-backed flush
            // that loses power mid-way leaves this replica torn —
            // some pages new, the rest stale — which recovery
            // detects by checksum.
            nd.hostWrite(
                reserved + i, 1,
                [this, gen, n, lpn = reserved + i,
                 slice = std::move(slice),
                 &remaining](Tick) mutable {
                    if (gen != metadataFlushGen_)
                        return;
                    array_->node(n).storePayload(lpn,
                                                 std::move(slice));
                    --remaining;
                });
        }
    }
    // Interruptible wait: a power loss mid-flush bumps the flush
    // generation and the uncommitted pages are abandoned.
    while (remaining > 0 && gen == metadataFlushGen_) {
        if (!events_.step())
            panic("event queue drained while a metadata flush was "
                  "still outstanding");
    }
    ledger_.attribute(ticksToSeconds(events_.now() - t0),
                      TimeComponent::Metadata);
    return node0_pages;
}

void
DeepStore::reloadMetadata()
{
    if (metadataEpoch_ == 0)
        fatal("no metadata has been persisted to the reserved block");
    // Read every alive node's superblock replica through the normal
    // host-read path (header page first, then the remainder the
    // header promises), discard torn or corrupt copies by checksum,
    // and adopt the highest surviving epoch (ties: lowest node).
    Tick t0 = events_.now();
    std::optional<SuperblockImage> best;
    for (std::uint32_t n = 0; n < array_->nodeCount(); ++n) {
        SsdNode &nd = array_->node(n);
        if (!nd.alive())
            continue;
        const std::uint64_t page_bytes = nd.flash().pageBytes;
        const std::uint64_t reserved = nd.reservedMetadataLpn();
        const std::uint64_t region_pages =
            nd.flash().totalPages() - reserved;
        bool done = false;
        nd.hostRead(reserved, 1, [&done](Tick) { done = true; });
        stepUntil(done);
        const auto *first = nd.payload(reserved);
        if (!first)
            continue; // this replica never saw a persist
        std::vector<std::uint8_t> blob = *first;
        std::uint64_t total_pages = 1;
        const auto promised = superblockImageBytes(blob);
        if (promised &&
            *promised / page_bytes < region_pages)
            total_pages =
                (*promised + page_bytes - 1) / page_bytes;
        if (total_pages > 1) {
            bool rest = false;
            nd.hostRead(reserved + 1, total_pages - 1,
                        [&rest](Tick) { rest = true; });
            stepUntil(rest);
            for (std::uint64_t i = 1; i < total_pages; ++i) {
                const auto *page = nd.payload(reserved + i);
                if (!page) {
                    blob.clear(); // short replica: torn
                    break;
                }
                blob.insert(blob.end(), page->begin(), page->end());
            }
        }
        auto image = decodeSuperblock(blob);
        if (!image) {
            array_->noteTornSuperblock();
            continue;
        }
        if (!best || image->epoch > best->epoch)
            best = std::move(image);
    }
    ledger_.attribute(ticksToSeconds(events_.now() - t0),
                      TimeComponent::Metadata);
    if (!best)
        fatal("metadata recovery: no intact superblock replica "
              "survived on any alive node");
    metadata_.clear();
    metadata_.deserialize(best->metadataBlob);
    array_->shardMap().restoreShardMap(best->shardMapBlob);
    metadataEpoch_ = best->epoch;
}

void
DeepStore::powerLoss()
{
    // In-flight metadata-flush commits die with the capacitors:
    // pages not yet completed at this tick never reach their
    // replicas (torn-image modeling).
    ++metadataFlushGen_;
    // Order matters: each node's scheduler computes its killed
    // sub-queries' remnant coverage through their still-open scan
    // groups/streams, so the coordinator fails all in-flight work
    // (finalizing every aggregate) before any volatile device state
    // is dropped.
    array_->powerLoss();
    // Volatile metadata cache is gone; recover from the replicated
    // superblocks when a persist exists (replayed through the normal
    // host-read path, charged to the Metadata ledger component). The
    // coordinator's striping rebuilds from any surviving majority.
    if (metadataEpoch_ > 0) {
        reloadMetadata();
    } else {
        metadata_.clear();
    }
}

void
DeepStore::dumpStats(std::ostream &os) const
{
    os << "engine.databases = " << metadata_.size() << "\n";
    os << "engine.models = " << models_.size() << "\n";
    os << "engine.queries = " << results_.size() << "\n";
    os << "engine.inFlight = " << array_->inFlight() << "\n";
    std::size_t completed = 0;
    for (std::uint32_t i = 0; i < array_->nodeCount(); ++i)
        completed += array_->node(i).scheduler().completedCount();
    os << "engine.completed = " << completed << "\n";
    os << "engine.simulatedSeconds = " << ledger_.seconds() << "\n";
    ledger_.dump(os);
    if (queryCache_) {
        os << "engine.qc.hits = " << queryCache_->hits() << "\n";
        os << "engine.qc.misses = " << queryCache_->misses() << "\n";
        os << "engine.qc.entries = " << queryCache_->size() << "\n";
    }
    array_->dumpStats(os);
}

FetchResult
DeepStore::tryGetResults(std::uint64_t query_id) const
{
    auto it = results_.find(query_id);
    if (it != results_.end())
        return FetchResult{FetchStatus::Ready, &it->second};
    auto st = array_->state(query_id);
    if (st && !isTerminal(*st))
        return FetchResult{FetchStatus::InFlight, nullptr};
    return FetchResult{FetchStatus::Unknown, nullptr};
}

const QueryResult &
DeepStore::getResults(std::uint64_t query_id) const
{
    FetchResult fr = tryGetResults(query_id);
    switch (fr.status) {
    case FetchStatus::Ready:
        return *fr.result;
    case FetchStatus::InFlight:
        fatal("query %llu is still in flight (state %s); use "
              "tryGetResults() for a retryable probe, or poll()/"
              "drain() before getResults()",
              static_cast<unsigned long long>(query_id),
              toString(*array_->state(query_id)));
    case FetchStatus::Unknown:
    default:
        fatal("unknown query_id %llu",
              static_cast<unsigned long long>(query_id));
    }
}

} // namespace deepstore::core
