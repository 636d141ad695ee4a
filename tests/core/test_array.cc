/**
 * @file
 * The sharded multi-SSD array behind the single query plane (ctest
 * label `array`):
 *
 *  - single-node passthrough: an explicit 1-node array is the *same
 *    machine* as the classic single-SSD engine — the golden
 *    fault-free, multi-level, and GC-active completion ticks must
 *    reproduce bit-exactly through the coordinator;
 *  - striping: writeDB scatters page chunks round-robin across the
 *    nodes, readDB reassembles them, and a full-coverage query
 *    returns the same top-K regardless of how many nodes the
 *    database is striped over;
 *  - scale-out: the same scan across 4 nodes finishes well under
 *    half the 1-node latency, with real scatter/merge traffic
 *    accounted on the host fabric;
 *  - whole-drive death: a node killed mid-scan re-dispatches its
 *    shards onto replicas (R=2: full coverage, Success) or degrades
 *    honestly and deterministically (R=1);
 *  - determinism: a 16-seed sweep of the death/recovery path is
 *    bit-identical across engine rebuilds (ticks, coverage, and the
 *    full stats dump);
 *  - the ArrayInfo NVMe admin command surfaces topology and health.
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/deepstore.h"
#include "core/nvme_front.h"
#include "support/fixtures.h"

namespace deepstore::core {
namespace {

// ---- single-node passthrough: golden tick pins -------------------

TEST(ArrayPassthrough, ExplicitOneNodeArrayReproducesGoldenTicks)
{
    // cfg.array.nodes = {flash} routes everything through the
    // coordinator's scatter/merge plumbing; a 1-node array must cost
    // zero ticks over the classic engine (single sub-query, home
    // node, no fabric legs) — the same pins as the fault-free golden.
    DeepStoreConfig cfg;
    cfg.array.nodes = {cfg.flash};
    DeepStore ds(cfg);
    auto src = randomDb(32, 500, 42);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    auto q = randomDb(32, 1, 99)->featureAt(0);
    std::uint64_t qid = ds.querySync(q, 4, model, db, 0, 0);
    EXPECT_EQ(ds.array().node(0).scheduler().submitTick(qid), 522480000u);
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(qid), 598859200u);
    const QueryResult &res = ds.getResults(qid);
    EXPECT_EQ(res.outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(res.coverageFraction, 1.0);
    EXPECT_EQ(res.nodesParticipating, 1u);
    EXPECT_EQ(res.interNodeBytes, 0u);
    EXPECT_DOUBLE_EQ(res.mergeSeconds, 0.0);
}

TEST(ArrayPassthrough, ExplicitOneNodeArrayMultiLevelGoldenTicks)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = {cfg.flash};
    DeepStore ds(cfg);
    auto src = randomDb(64, 900, 7);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(64));
    std::uint64_t a = ds.query(randomDb(64, 1, 101)->featureAt(0), 4,
                               model, db, 0, 0, Level::ChannelLevel);
    std::uint64_t b = ds.query(randomDb(64, 1, 102)->featureAt(0), 4,
                               model, db, 0, 0, Level::ChipLevel);
    std::uint64_t c = ds.query(randomDb(64, 1, 103)->featureAt(0), 4,
                               model, db, 0, 0, Level::SsdLevel);
    ds.drain();
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(a), 597632000u);
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(b), 631752000u);
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(c), 740214800u);
    EXPECT_EQ(ds.events().now(), 740214800u);
}

TEST(ArrayPassthrough, ExplicitOneNodeArrayGcActiveGoldenTicks)
{
    // The GC-active golden (FTL churn + appendDB + metadata
    // persists) through an explicit 1-node array: the lifecycle
    // machinery lives inside the node, so the pins must not move.
    ssd::FlashParams tiny;
    tiny.channels = 4;
    tiny.chipsPerChannel = 2;
    tiny.planesPerChip = 2;
    tiny.blocksPerPlane = 8;
    tiny.pagesPerBlock = 4;

    DeepStoreConfig cfg;
    cfg.flash = tiny;
    cfg.array.nodes = {tiny};
    DeepStore ds(cfg);

    auto db1src = randomDb(32, 3000, 42);
    std::uint64_t db1 = ds.writeDB(db1src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    ds.persistMetadata();

    std::uint64_t q1 = ds.query(db1src->featureAt(1), 4, model, db1,
                                0, 1500, Level::ChannelLevel);
    std::uint64_t q2 = ds.query(db1src->featureAt(7), 4, model, db1,
                                1500, 3000, Level::ChipLevel);

    auto db2src = randomDb(32, 2000, 7);
    std::uint64_t db2 = ds.writeDB(db2src);

    for (int pass = 0; pass < 2; ++pass) {
        bool done = false;
        ds.hostWrite(64, 64, [&](Tick) { done = true; });
        while (!done)
            ASSERT_TRUE(ds.step());
    }
    {
        bool done = false;
        ds.hostTrim(64, 64, [&](Tick) { done = true; });
        while (!done)
            ASSERT_TRUE(ds.step());
    }

    ds.appendDB(db2, randomDb(32, 500, 8));
    std::uint64_t q3 = ds.query(db2src->featureAt(3), 4, model, db2,
                                0, 0, Level::SsdLevel);
    ds.persistMetadata();
    ds.drain();

    EXPECT_EQ(ds.getResults(q1).outcome, QueryOutcome::Success);
    EXPECT_EQ(ds.getResults(q2).outcome, QueryOutcome::Success);
    EXPECT_EQ(ds.getResults(q3).outcome, QueryOutcome::Success);
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(q1), 2382739200u);
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(q2), 2363238400u);
    EXPECT_EQ(ds.array().node(0).scheduler().completeTick(q3), 11298489800u);
    EXPECT_EQ(ds.events().now(), 11298489800u);
}

// ---- striping & reassembly ---------------------------------------

TEST(ArrayStriping, WriteDbStripesAndReadDbReassembles)
{
    const std::int64_t dim = 32;
    const std::uint64_t features = 2000; // 16 pages over 4 nodes
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(4);
    DeepStore ds(cfg);
    EXPECT_EQ(ds.array().nodeCount(), 4u);
    EXPECT_EQ(ds.array().aliveCount(), 4u);

    auto src = randomDb(dim, features, 17);
    std::uint64_t db = ds.writeDB(src);
    EXPECT_EQ(ds.array().shardMap().db(db).shards.size(), 4u);

    // Round-trip: every feature comes back bit-exact from whichever
    // node its stripe landed on, in global order.
    auto back = ds.readDB(db, 0, features);
    ASSERT_EQ(back.size(), features);
    for (std::uint64_t i = 0; i < features; i += 97)
        EXPECT_EQ(back[i], src->featureAt(i)) << "feature " << i;

    // A mid-range window crossing shard boundaries.
    auto win = ds.readDB(db, 450, 700);
    ASSERT_EQ(win.size(), 700u);
    EXPECT_EQ(win[0], src->featureAt(450));
    EXPECT_EQ(win[699], src->featureAt(1149));
}

TEST(ArrayStriping, TopKMatchesSingleNodeAnswer)
{
    // Same database, same query, 1-node vs 4-node array: identical
    // top-K ids and scores (sharding changes *where* features live,
    // never the answer).
    const std::int64_t dim = 32;
    const std::uint64_t features = 2000;
    auto run = [&](std::size_t nodes) {
        DeepStoreConfig cfg;
        cfg.array.nodes = homogeneous(nodes);
        DeepStore ds(cfg);
        auto src = randomDb(dim, features, 23);
        std::uint64_t db = ds.writeDB(src);
        std::uint64_t model = ds.loadModel(dotModel(dim));
        std::uint64_t qid =
            ds.querySync(src->featureAt(3), 8, model, db, 0, 0);
        const QueryResult &res = ds.getResults(qid);
        EXPECT_EQ(res.outcome, QueryOutcome::Success);
        EXPECT_DOUBLE_EQ(res.coverageFraction, 1.0);
        return res.topK;
    };
    auto one = run(1);
    auto four = run(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].featureId, four[i].featureId) << i;
        EXPECT_EQ(one[i].score, four[i].score) << i;
    }
}

TEST(ArrayStriping, HeterogeneousGeometriesScanToFullCoverage)
{
    // A big node and a small node in one array: striping, per-node
    // model evaluation, and the merge must all handle asymmetric
    // geometry — with and without a Query Cache, whose probe fans out
    // over the home node's own channel accelerators.
    ssd::FlashParams big;   // default drive
    ssd::FlashParams small; // quarter-size drive
    small.channels = 4;
    auto run = [](std::vector<ssd::FlashParams> nodes, bool qc,
                  std::uint64_t start, std::uint64_t end) {
        DeepStoreConfig cfg;
        cfg.array.nodes = std::move(nodes);
        DeepStore ds(cfg);
        auto src = randomDb(32, 1500, 31);
        std::uint64_t db = ds.writeDB(src);
        std::uint64_t model = ds.loadModel(dotModel(32));
        if (qc)
            ds.setQC(ds.loadModel(dotModel(32)), 0.25, 0.99, 16);
        std::uint64_t qid =
            ds.querySync(src->featureAt(5), 4, model, db, start, end);
        const QueryResult &res = ds.getResults(qid);
        EXPECT_EQ(res.outcome, QueryOutcome::Success);
        EXPECT_DOUBLE_EQ(res.coverageFraction, 1.0);
        return res;
    };
    const QueryResult res = run({big, small}, false, 0, 0);
    EXPECT_EQ(res.nodesParticipating, 2u);
    EXPECT_GT(res.interNodeBytes, 0u);
    // A lone small node, and a range whose home shard sits on the
    // small node of a mixed array.
    run({small}, true, 0, 0);
    EXPECT_EQ(run({big, small}, true, 1200, 1500).nodesParticipating,
              1u);
}

// ---- scale-out ---------------------------------------------------

TEST(ArrayScaleOut, FourNodesBeatOneNodeByOverTwoX)
{
    // The same 2048-feature full-page scan; 4 nodes hold a quarter
    // of the pages each, so the channel-level scan should finish in
    // well under half the 1-node latency (the fabric legs are
    // microseconds against a multi-ms scan).
    const std::int64_t dim = 4096; // one feature per 16 KiB page
    const std::uint64_t features = 2048;
    auto latency = [&](std::size_t nodes) {
        DeepStoreConfig cfg;
        cfg.array.nodes = homogeneous(nodes);
        DeepStore ds(cfg);
        auto src = randomDb(dim, features, 9);
        std::uint64_t db = ds.writeDB(src);
        std::uint64_t model = ds.loadModel(dotModel(dim));
        std::uint64_t qid = ds.querySync(src->featureAt(1), 4, model,
                                         db, 0, 0,
                                         Level::ChannelLevel);
        const QueryResult &res = ds.getResults(qid);
        EXPECT_EQ(res.outcome, QueryOutcome::Success);
        EXPECT_EQ(res.nodesParticipating, nodes);
        return res.latencySeconds;
    };
    const double one = latency(1);
    const double four = latency(4);
    EXPECT_LT(four, one / 2.0);
}

// ---- whole-drive death & re-striping -----------------------------

/** Probe run: submit/complete ticks of the standard 4-node query so
 *  the death tests can schedule a kill strictly mid-scan. */
struct DeathRig
{
    Tick submit = 0;
    Tick complete = 0;
};

DeathRig
probeTicks(std::uint32_t replication, std::uint64_t db_seed)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(4);
    cfg.array.replication = replication;
    DeepStore ds(cfg);
    auto src = randomDb(32, 2000, db_seed);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    std::uint64_t qid =
        ds.query(src->featureAt(1), 4, model, db, 0, 0);
    DeathRig r;
    r.submit = ds.events().now(); // scatter is synchronous
    ds.drain();
    r.complete = ds.events().now();
    // An unfired death schedule must not perturb the timeline, so
    // the probe run IS the baseline run.
    const QueryResult &res = ds.getResults(qid);
    EXPECT_EQ(res.outcome, QueryOutcome::Success);
    EXPECT_LT(r.submit, r.complete);
    return r;
}

struct DeathRun
{
    QueryOutcome outcome = QueryOutcome::Success;
    double coverage = 0.0;
    Tick completeTick = 0;
    std::uint64_t redispatches = 0;
    std::size_t topK = 0;
    std::string stats;
};

DeathRun
runWithDeath(std::uint32_t replication, std::uint32_t victim,
             Tick death_tick, std::uint64_t db_seed)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(4);
    cfg.array.replication = replication;
    cfg.array.nodeDeaths = {{victim, death_tick}};
    DeepStore ds(cfg);
    auto src = randomDb(32, 2000, db_seed);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    std::uint64_t qid =
        ds.querySync(src->featureAt(1), 4, model, db, 0, 0);
    const QueryResult &res = ds.getResults(qid);
    DeathRun r;
    r.outcome = res.outcome;
    r.coverage = res.coverageFraction;
    r.completeTick = ds.events().now();
    r.redispatches = res.redispatches;
    r.topK = res.topK.size();
    std::ostringstream os;
    ds.dumpStats(os);
    r.stats = os.str();
    EXPECT_EQ(ds.array().aliveCount(), 3u);
    return r;
}

TEST(ArrayNodeDeath, ReplicatedShardsRecoverFullCoverage)
{
    // R=2: every shard has a replica on the next node, so killing
    // node 1 mid-scan re-dispatches its shard onto the copy and the
    // query still reaches Success/1.0 — slower, not smaller.
    DeathRig rig = probeTicks(2, 11);
    const Tick mid = rig.submit + (rig.complete - rig.submit) / 2;
    DeathRun r = runWithDeath(2, 1, mid, 11);
    EXPECT_EQ(r.outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(r.coverage, 1.0);
    EXPECT_GE(r.redispatches, 1u);
    EXPECT_GT(r.completeTick, rig.complete);
    EXPECT_NE(r.stats.find("array.nodeDeaths"), std::string::npos);
    EXPECT_NE(r.stats.find("array.redispatches"), std::string::npos);

    // The recovery itself replays bit-identically.
    DeathRun r2 = runWithDeath(2, 1, mid, 11);
    EXPECT_EQ(r.completeTick, r2.completeTick);
    EXPECT_EQ(r.stats, r2.stats);
}

TEST(ArrayNodeDeath, UnreplicatedShardsDegradeDeterministically)
{
    // R=1: node 1's shard has no replica, so its un-scanned
    // remainder is honestly lost — Degraded, 0 < coverage < 1, and
    // exactly reproducible.
    DeathRig rig = probeTicks(1, 11);
    const Tick mid = rig.submit + (rig.complete - rig.submit) / 2;
    DeathRun r = runWithDeath(1, 1, mid, 11);
    EXPECT_EQ(r.outcome, QueryOutcome::Degraded);
    EXPECT_LT(r.coverage, 1.0);
    EXPECT_GT(r.coverage, 0.0);
    EXPECT_GT(r.topK, 0u);
    EXPECT_NE(r.stats.find("array.subQueriesLost"),
              std::string::npos);

    DeathRun r2 = runWithDeath(1, 1, mid, 11);
    EXPECT_DOUBLE_EQ(r.coverage, r2.coverage);
    EXPECT_EQ(r.completeTick, r2.completeTick);
    EXPECT_EQ(r.stats, r2.stats);
}

TEST(ArrayNodeDeath, ManualKillOfIdleNodeLeavesCoverageIntact)
{
    // Killing a node *before* the query is scattered: the coordinator
    // routes around the corpse at scatter time via the replicas.
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(4);
    cfg.array.replication = 2;
    DeepStore ds(cfg);
    auto src = randomDb(32, 2000, 13);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    ds.killNode(2);
    EXPECT_EQ(ds.array().aliveCount(), 3u);
    std::uint64_t qid =
        ds.querySync(src->featureAt(1), 4, model, db, 0, 0);
    const QueryResult &res = ds.getResults(qid);
    EXPECT_EQ(res.outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(res.coverageFraction, 1.0);
}

TEST(ArrayNodeDeath, SixteenSeedDeathSweepIsBitIdentical)
{
    // The acceptance sweep: for 16 database seeds, kill a rotating
    // victim mid-scan on an R=2 array and rebuild+rerun — completion
    // tick, coverage, and the full stats dump must be bit-identical,
    // and every recovery must reach full coverage.
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        DeathRig rig = probeTicks(2, seed);
        const Tick mid =
            rig.submit + (rig.complete - rig.submit) / 2;
        const auto victim = static_cast<std::uint32_t>(seed % 4);
        DeathRun a = runWithDeath(2, victim, mid, seed);
        DeathRun b = runWithDeath(2, victim, mid, seed);
        EXPECT_EQ(a.outcome, QueryOutcome::Success) << "seed " << seed;
        EXPECT_DOUBLE_EQ(a.coverage, 1.0) << "seed " << seed;
        EXPECT_EQ(a.completeTick, b.completeTick) << "seed " << seed;
        EXPECT_DOUBLE_EQ(a.coverage, b.coverage) << "seed " << seed;
        EXPECT_EQ(a.stats, b.stats) << "seed " << seed;
    }
}

// ---- NVMe admin surface ------------------------------------------

TEST(ArrayNvme, ArrayInfoReportsTopologyAndHealth)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(4);
    cfg.array.replication = 2;
    DeepStore ds(cfg);
    ds.killNode(3);
    NvmeFrontEnd nvme(ds, 16);

    NvmeCommand cmd;
    cmd.opcode = NvmeOpcode::ArrayInfo;
    cmd.cid = 1;
    cmd.prp = nvme.buffers().add({});
    ASSERT_TRUE(nvme.submit(cmd));
    nvme.process();
    auto done = nvme.pollCompletion();
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->status, NvmeStatus::Success);
    EXPECT_EQ(done->result & 0xFFFFu, 4u);       // node count
    EXPECT_EQ((done->result >> 16) & 0xFFFFu, 2u); // replication

    const auto *buf = nvme.buffers().find(cmd.prp);
    ASSERT_NE(buf, nullptr);
    ASSERT_EQ(buf->size(), 4u * 7u); // 7 floats per node
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ((*buf)[i * 7 + 0], static_cast<float>(i));
        EXPECT_EQ((*buf)[i * 7 + 1], i == 3 ? 0.0f : 1.0f);
        EXPECT_EQ((*buf)[i * 7 + 2],
                  static_cast<float>(ssd::FlashParams{}.channels));
        // Scrub/repair are disabled here, so the per-node rows
        // report zero activity.
        EXPECT_EQ((*buf)[i * 7 + 5], 0.0f);
        EXPECT_EQ((*buf)[i * 7 + 6], 0.0f);
    }
}

TEST(ArrayNodeDeath, KillNodeIsIdempotentAndRangeChecked)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(3);
    cfg.array.replication = 2;
    DeepStore ds(cfg);
    // Out-of-range indices are a typed error, not UB — and nothing
    // happens to the array.
    EXPECT_EQ(ds.killNode(3), KillNodeResult::InvalidNode);
    EXPECT_EQ(ds.killNode(1000), KillNodeResult::InvalidNode);
    EXPECT_EQ(ds.array().aliveCount(), 3u);
    // First kill lands; repeats are idempotent no-ops.
    EXPECT_EQ(ds.killNode(1), KillNodeResult::Killed);
    EXPECT_EQ(ds.killNode(1), KillNodeResult::AlreadyDead);
    EXPECT_EQ(ds.killNode(1), KillNodeResult::AlreadyDead);
    EXPECT_EQ(ds.array().aliveCount(), 2u);
    EXPECT_STREQ(toString(KillNodeResult::Killed), "Killed");
    EXPECT_STREQ(toString(KillNodeResult::AlreadyDead),
                 "AlreadyDead");
    EXPECT_STREQ(toString(KillNodeResult::InvalidNode),
                 "InvalidNode");
    // The dead-node stat counts the one real death only.
    std::ostringstream os;
    ds.dumpStats(os);
    EXPECT_NE(os.str().find("array.nodeDeaths = 1"),
              std::string::npos);
}

TEST(ArrayNodeDeath, ScheduledDeathAtTickZeroIsRejected)
{
    // atTick defaults to 0, so `{node}` alone would schedule nothing:
    // the coordinator refuses it instead of dropping it silently.
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(2);
    cfg.array.nodeDeaths = {{1, 0}};
    EXPECT_THROW(DeepStore ds(cfg), FatalError);
}

} // namespace
} // namespace deepstore::core
