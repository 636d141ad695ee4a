/**
 * @file
 * Recovery matrix for the self-healing durable array (DESIGN.md §12,
 * ctest labels `repair;fault`):
 *
 *  - superblock codec: torn or bit-flipped images fail the checksum
 *    non-fatally (recovery treats them as "this replica is gone");
 *  - replicated metadata: a whole-array power loss replays the
 *    metadata table *and* the coordinator's shard map from the
 *    superblock replicas, and queries run at full coverage after;
 *  - torn-flush modeling: power dying mid-flush leaves the slow
 *    node's replica torn (mixed-epoch pages, detected by checksum)
 *    while recovery adopts the intact peer — and a loss before any
 *    page commits falls back to the previous epoch entirely;
 *  - node-0 death: the coordinator rebuilds its striping from the
 *    surviving nodes' replicas (node 0 holds nothing unique);
 *  - repair engine: after a drive death the array re-replicates onto
 *    survivors, so a *second* death still yields Success/1.0 — and a
 *    power loss during active repair restarts it under a fresh
 *    generation and still completes;
 *  - scrub engine: a power loss mid-pass restarts the scanner, the
 *    pass budget still terminates the simulation, and latent
 *    partial-page corruption is found and rewritten from replicas.
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/units.h"
#include "core/array_superblock.h"
#include "core/deepstore.h"
#include "support/fixtures.h"

namespace deepstore::core {
namespace {

// ---- superblock codec --------------------------------------------

TEST(Superblock, CodecRoundTripsAndRejectsTornImages)
{
    SuperblockImage image;
    image.epoch = 7;
    image.metadataBlob = {1, 2, 3, 4, 5};
    image.shardMapBlob = {9, 8, 7};
    std::vector<std::uint8_t> bytes = encodeSuperblock(image);

    // The header promises the exact encoded length.
    auto promised = superblockImageBytes(bytes);
    ASSERT_TRUE(promised.has_value());
    EXPECT_EQ(*promised, bytes.size());

    auto back = decodeSuperblock(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->epoch, 7u);
    EXPECT_EQ(back->metadataBlob, image.metadataBlob);
    EXPECT_EQ(back->shardMapBlob, image.shardMapBlob);

    // Truncation (a replica whose tail pages never committed).
    auto torn = bytes;
    torn.resize(torn.size() - 2);
    EXPECT_FALSE(decodeSuperblock(torn).has_value());

    // A stale page mixed into a newer image: flip one payload byte.
    auto mixed = bytes;
    mixed.back() ^= 0x5A;
    EXPECT_FALSE(decodeSuperblock(mixed).has_value());

    // A corrupted header byte breaks the magic.
    auto bad_magic = bytes;
    bad_magic[0] ^= 0xFF;
    EXPECT_FALSE(decodeSuperblock(bad_magic).has_value());
    EXPECT_FALSE(superblockImageBytes(bad_magic).has_value());

    // Header fragments shorter than the header are unreadable.
    std::vector<std::uint8_t> stub(bytes.begin(), bytes.begin() + 8);
    EXPECT_FALSE(superblockImageBytes(stub).has_value());

    // None of the torn shapes may fatal: recovery probes them all.
    EXPECT_FALSE(decodeSuperblock({}).has_value());
}

// ---- replicated metadata across the array ------------------------

TEST(ArrayMetadataDurability, PowerLossRecoversTableAndShardMap)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(3);
    cfg.array.replication = 2;
    DeepStore ds(cfg);

    auto src1 = randomDb(32, 400, 11);
    auto src2 = randomDb(32, 150, 12);
    std::uint64_t db1 = ds.writeDB(src1);
    std::uint64_t db2 = ds.writeDB(src2);
    std::uint64_t model = ds.loadModel(dotModel(32));
    DbMetadata before = ds.databaseInfo(db1);

    ds.persistMetadata();
    EXPECT_EQ(ds.metadataEpoch(), 1u);

    ds.powerLoss();

    // Same epoch back: every replica was intact.
    EXPECT_EQ(ds.metadataEpoch(), 1u);
    EXPECT_EQ(ds.array().tornSuperblocks(), 0u);
    EXPECT_EQ(ds.databaseInfo(db1).numFeatures, before.numFeatures);
    EXPECT_EQ(ds.databaseInfo(db2).numFeatures, 150u);

    // The shard map came back too: striped reads and full-coverage
    // queries run against the restored placements.
    auto rows = ds.readDB(db1, 5, 3);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], src1->featureAt(5));

    std::uint64_t q = ds.querySync(src1->featureAt(2), 4, model, db1,
                                   0, 0);
    EXPECT_EQ(ds.getResults(q).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(q).coverageFraction, 1.0);
}

// ---- torn-flush modeling -----------------------------------------

/** 2-node rig built to tear: tiny pages so the superblock image
 *  spans several flash pages, node 1 with a single plane and a slow
 *  program so its per-page commits land milliseconds apart. */
DeepStoreConfig
tearableConfig()
{
    ssd::FlashParams fast;
    fast.channels = 2;
    fast.chipsPerChannel = 1;
    fast.planesPerChip = 2;
    fast.blocksPerPlane = 16;
    fast.pagesPerBlock = 8;
    fast.pageBytes = 256;

    ssd::FlashParams slow = fast;
    slow.channels = 1;
    slow.planesPerChip = 1;
    slow.blocksPerPlane = 64;
    slow.programLatency = 2e-3; // serialize commits ~2 ms apart

    DeepStoreConfig cfg;
    cfg.flash = fast;
    cfg.array.nodes = {fast, slow};
    cfg.array.replication = 2;
    return cfg;
}

/** Several small databases so the encoded superblock image needs
 *  multiple 256-byte pages per replica. */
std::vector<std::uint64_t>
seedDatabases(DeepStore &ds, std::size_t n)
{
    std::vector<std::uint64_t> dbs;
    for (std::size_t i = 0; i < n; ++i)
        dbs.push_back(ds.writeDB(randomDb(32, 24, 100 + i)));
    return dbs;
}

TEST(ArrayMetadataDurability, LossBeforeAnyCommitFallsBackAnEpoch)
{
    DeepStore ds(tearableConfig());
    auto dbs = seedDatabases(ds, 3);
    ds.persistMetadata();
    ASSERT_EQ(ds.metadataEpoch(), 1u);

    // New state the interrupted epoch-2 flush will try to persist.
    std::uint64_t late_db = ds.writeDB(randomDb(32, 24, 200));

    // Power dies 50 us into the flush — before the first program
    // completes anywhere (fastest commit is ~500 us out), so every
    // replica still holds its intact epoch-1 image.
    ds.events().scheduleAfter(secondsToTicks(50e-6),
                              [&ds] { ds.powerLoss(); });
    ds.persistMetadata();

    EXPECT_EQ(ds.metadataEpoch(), 1u);
    EXPECT_EQ(ds.array().tornSuperblocks(), 0u);
    // Epoch 1 predates late_db: its metadata is honestly gone...
    EXPECT_THROW(ds.databaseInfo(late_db), FatalError);
    // ...while the persisted databases replay exactly.
    for (std::uint64_t db : dbs)
        EXPECT_EQ(ds.databaseInfo(db).numFeatures, 24u);
    auto rows = ds.readDB(dbs[0], 0, 4);
    ASSERT_EQ(rows.size(), 4u);
    drainAll(ds);
}

TEST(ArrayMetadataDurability, TornReplicaIsRecoveredFromPeer)
{
    DeepStore ds(tearableConfig());
    auto dbs = seedDatabases(ds, 3);
    ds.persistMetadata();
    ASSERT_EQ(ds.metadataEpoch(), 1u);

    std::uint64_t late_db = ds.writeDB(randomDb(32, 24, 201));
    auto late_src = randomDb(32, 24, 201);

    // Power dies 3.5 ms into the epoch-2 flush: node 0 committed all
    // of its pages long before (sub-millisecond), node 1's
    // single-plane 2 ms programs have committed only the first page —
    // a mixed-epoch, checksum-failing replica.
    ds.events().scheduleAfter(secondsToTicks(3.5e-3),
                              [&ds] { ds.powerLoss(); });
    ds.persistMetadata();

    // Recovery adopted node 0's intact epoch-2 image and counted the
    // torn peer.
    EXPECT_EQ(ds.metadataEpoch(), 2u);
    EXPECT_GE(ds.array().tornSuperblocks(), 1u);
    EXPECT_EQ(ds.databaseInfo(late_db).numFeatures, 24u);
    auto rows = ds.readDB(late_db, 3, 2);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0], late_src->featureAt(3));

    std::ostringstream os;
    ds.dumpStats(os);
    EXPECT_NE(os.str().find("array.superblock.tornReplicas"),
              std::string::npos);

    // A clean persist re-replicates everywhere; the next loss sees
    // no torn copies beyond the one already counted.
    ds.persistMetadata();
    EXPECT_EQ(ds.metadataEpoch(), 3u);
    ds.powerLoss();
    EXPECT_EQ(ds.metadataEpoch(), 3u);
    EXPECT_EQ(ds.array().tornSuperblocks(), 1u);
    drainAll(ds);
}

// ---- node-0 death ------------------------------------------------

TEST(ArrayRecovery, NodeZeroDeathRebuildsFromSurvivingReplicas)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(3);
    cfg.array.replication = 2;
    DeepStore ds(cfg);

    auto src = randomDb(32, 600, 21);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(32));
    ds.persistMetadata();

    // The admin drive dies. Its superblock replica is unreadable,
    // but nodes 1 and 2 each hold an intact copy.
    ASSERT_EQ(ds.killNode(0), KillNodeResult::Killed);
    ds.reloadMetadata();
    EXPECT_EQ(ds.metadataEpoch(), 1u);
    EXPECT_EQ(ds.databaseInfo(db).numFeatures, 600u);

    // R=2 striping: every shard has a replica off node 0, so the
    // restored map still covers the whole database.
    std::uint64_t q = ds.querySync(src->featureAt(9), 4, model, db,
                                   0, 0);
    EXPECT_EQ(ds.getResults(q).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(q).coverageFraction, 1.0);

    // A full power loss with node 0 still dead recovers the same way.
    ds.powerLoss();
    EXPECT_EQ(ds.metadataEpoch(), 1u);
    EXPECT_EQ(ds.databaseInfo(db).numFeatures, 600u);
}

// ---- repair engine -----------------------------------------------

TEST(ArrayRepair, RepairRestoresReplicationForASecondDeath)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(3);
    cfg.array.replication = 2;
    cfg.array.repair.enabled = true;
    DeepStore ds(cfg);

    auto src = randomDb(64, 1200, 31);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(64));

    ASSERT_EQ(ds.killNode(1), KillNodeResult::Killed);
    drainAll(ds); // background repair runs to completion

    const auto &upkeep = ds.array().maintenance();
    EXPECT_TRUE(upkeep.repairIdle());
    EXPECT_GT(upkeep.stats().repairShardsRepaired, 0u);
    EXPECT_GT(upkeep.stats().repairPagesCopied, 0u);
    EXPECT_GT(upkeep.stats().repairBytesOverFabric, 0u);
    EXPECT_GT(upkeep.stats().lastRepairCompleteTick, 0u);
    // Copies landed only on the survivors.
    EXPECT_EQ(upkeep.stats().repairPagesCopiedTo.at(1), 0u);
    EXPECT_EQ(upkeep.stats().repairPagesCopiedTo.at(0) +
                  upkeep.stats().repairPagesCopiedTo.at(2),
              upkeep.stats().repairPagesCopied);

    // Replication is restored: losing a *second* drive still leaves
    // one alive copy of every shard.
    ASSERT_EQ(ds.killNode(2), KillNodeResult::Killed);
    std::uint64_t q = ds.querySync(src->featureAt(5), 4, model, db,
                                   0, 0);
    EXPECT_EQ(ds.getResults(q).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(q).coverageFraction, 1.0);

    std::ostringstream os;
    ds.dumpStats(os);
    EXPECT_NE(os.str().find("array.repair.shardsRepaired"),
              std::string::npos);
    EXPECT_NE(os.str().find("array.repair.pagesCopied"),
              std::string::npos);
}

TEST(ArrayRepair, AppendAfterRepairRewritesDisplacedShards)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(3);
    cfg.array.replication = 2;
    cfg.array.repair.enabled = true;
    DeepStore ds(cfg);

    auto src = randomDb(64, 1200, 31);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(64));
    ASSERT_EQ(ds.killNode(1), KillNodeResult::Killed);
    drainAll(ds);
    ASSERT_TRUE(ds.array().maintenance().repairIdle());

    // The repair copies now sit above the last shard's runs on both
    // survivors, so the append rewrites that shard on each of them.
    auto more = randomDb(64, 300, 32);
    ds.appendDB(db, more);
    auto back = ds.readDB(db, 1200, 300);
    ASSERT_EQ(back.size(), 300u);
    for (std::uint64_t i = 0; i < 300; ++i)
        EXPECT_EQ(back[i], more->featureAt(i));

    ASSERT_EQ(ds.killNode(2), KillNodeResult::Killed);
    std::uint64_t q = ds.querySync(src->featureAt(5), 4, model, db,
                                   0, 0);
    EXPECT_EQ(ds.getResults(q).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(q).coverageFraction, 1.0);
}

TEST(ArrayRepair, AppendAfterDeathLeavesTheDeadNodeAlone)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(3);
    cfg.array.replication = 2;
    DeepStore ds(cfg);

    auto src = randomDb(64, 1200, 33);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(64));
    ASSERT_EQ(ds.killNode(0), KillNodeResult::Killed);
    const std::uint64_t dead_mark = ds.array().node(0).nextFreeLpn();

    // Node 0 holds a replica of the last shard; only the live
    // primary on node 2 grows.
    ds.appendDB(db, randomDb(64, 3000, 34));
    EXPECT_EQ(ds.array().node(0).nextFreeLpn(), dead_mark);

    std::uint64_t q = ds.querySync(src->featureAt(5), 4, model, db,
                                   0, 0);
    EXPECT_EQ(ds.getResults(q).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(q).coverageFraction, 1.0);
}

TEST(ArrayRepair, AppendDuringRepairReplansTheGrownShard)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(3);
    cfg.array.replication = 2;
    cfg.array.repair.enabled = true;
    cfg.array.repair.bandwidthBytesPerSecond = 100e6; // slow copies
    DeepStore ds(cfg);

    auto src = randomDb(64, 1200, 35);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(64));
    // Node 2 held shard 1 (re-copied to node 0) and the last shard
    // (re-copied to node 1, queued behind shard 1).
    ASSERT_EQ(ds.killNode(2), KillNodeResult::Killed);
    const auto &upkeep = ds.array().maintenance();
    while (upkeep.stats().repairPagesCopied == 0)
        ASSERT_TRUE(ds.step());

    // Growing the last shard makes its queued copy stale: it is
    // dropped and re-planned at the new size.
    ds.appendDB(db, randomDb(64, 300, 36));
    drainAll(ds);
    EXPECT_TRUE(upkeep.repairIdle());
    const ShardMap &map = ds.array().shardMap();
    EXPECT_EQ(upkeep.stats().repairPagesCopiedTo.at(1),
              map.pagesOn(1, 64 * 4, 700));

    ASSERT_EQ(ds.killNode(0), KillNodeResult::Killed);
    std::uint64_t q = ds.querySync(src->featureAt(5), 4, model, db,
                                   0, 0);
    EXPECT_EQ(ds.getResults(q).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(q).coverageFraction, 1.0);
}

TEST(ArrayRepair, PowerLossDuringActiveRepairRestartsAndCompletes)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(3);
    cfg.array.replication = 2;
    cfg.array.repair.enabled = true;
    // Slow cap (~160 us per 16 KiB page) so the loss lands mid-copy.
    cfg.array.repair.bandwidthBytesPerSecond = 100e6;
    DeepStore ds(cfg);

    auto src = randomDb(64, 2000, 41);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(64));
    ds.persistMetadata();

    ASSERT_EQ(ds.killNode(1), KillNodeResult::Killed);
    // Cut the power 1.5 ms into the re-replication: queued copies and
    // in-flight transfers die, recovery replays the shard map and the
    // repair scan re-queues the remaining under-replicated shards.
    ds.events().scheduleAfter(secondsToTicks(1.5e-3),
                              [&ds] { ds.powerLoss(); });
    drainAll(ds);

    const auto &upkeep = ds.array().maintenance();
    EXPECT_TRUE(upkeep.repairIdle());
    EXPECT_GT(upkeep.stats().repairShardsRepaired, 0u);
    EXPECT_GT(upkeep.stats().lastRepairCompleteTick, 0u);

    ASSERT_EQ(ds.killNode(2), KillNodeResult::Killed);
    std::uint64_t q = ds.querySync(src->featureAt(3), 4, model, db,
                                   0, 0);
    EXPECT_EQ(ds.getResults(q).outcome, QueryOutcome::Success);
    EXPECT_DOUBLE_EQ(ds.getResults(q).coverageFraction, 1.0);
}

// ---- scrub engine ------------------------------------------------

TEST(ArrayScrub, PowerLossMidPassRestartsAndStillTerminates)
{
    DeepStoreConfig cfg;
    cfg.array.nodes = homogeneous(2);
    cfg.array.replication = 2;
    cfg.array.scrub.enabled = true; // defaults: 2000 pages/s, 1 pass
    // Start the single budgeted pass only after ingest settles (a
    // pass over a not-yet-bound map would complete vacuously).
    cfg.array.scrub.startDelaySeconds = 20e-3;
    DeepStore ds(cfg);

    auto src = randomDb(64, 4000, 51);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(64));
    ds.persistMetadata();

    // The pass covers ~126 placement pages (~63 ms at the default
    // rate) starting at 20 ms; power dies 5 ms in, mid-pass.
    ds.events().scheduleAfter(secondsToTicks(25e-3),
                              [&ds] { ds.powerLoss(); });
    drainAll(ds);

    const auto &upkeep = ds.array().maintenance();
    // The restarted generation finished its single budgeted pass —
    // the simulation terminated, which is the regression being
    // pinned (a stale-generation wakeup would either stall the pass
    // or scrub forever).
    EXPECT_EQ(upkeep.stats().scrubPassesCompleted, 1u);
    EXPECT_GT(upkeep.stats().scrubPagesScanned, 0u);
    EXPECT_EQ(upkeep.stats().scrubUncorrectableFound, 0u);

    std::uint64_t q = ds.querySync(src->featureAt(7), 4, model, db,
                                   0, 0);
    EXPECT_EQ(ds.getResults(q).outcome, QueryOutcome::Success);

    std::ostringstream os;
    ds.dumpStats(os);
    EXPECT_NE(os.str().find("array.scrub.pagesScanned"),
              std::string::npos);
    EXPECT_NE(os.str().find("array.scrub.passes"),
              std::string::npos);
}

TEST(ArrayScrub, FindsAndRepairsLatentPartialPageCorruption)
{
    ssd::FlashParams flawed0;
    flawed0.faults.seed = 11;
    flawed0.faults.partialPageCorruptionProbability = 0.02;
    flawed0.faults.sectorsPerPage = 8;
    ssd::FlashParams flawed1 = flawed0;
    flawed1.faults.seed = 22; // independent damage per drive

    DeepStoreConfig cfg;
    cfg.array.nodes = {flawed0, flawed1};
    cfg.array.replication = 2;
    cfg.array.scrub.enabled = true;
    cfg.array.scrub.startDelaySeconds = 20e-3; // after ingest
    cfg.array.repair.enabled = true;
    DeepStore ds(cfg);

    // ~31 pages per replica at ~15% per-page damage: the pass must
    // surface several latent uncorrectables.
    ds.writeDB(randomDb(64, 2000, 61));
    drainAll(ds); // scrub pass + page rewrites run to completion

    const auto &upkeep = ds.array().maintenance();
    EXPECT_EQ(upkeep.stats().scrubPassesCompleted, 1u);
    EXPECT_GT(upkeep.stats().scrubPagesScanned, 0u);
    EXPECT_GT(upkeep.stats().scrubUncorrectableFound, 0u);
    // Every found page had an alive replica to rewrite from.
    EXPECT_GT(upkeep.stats().scrubLatentRepaired, 0u);
    EXPECT_LE(upkeep.stats().scrubLatentRepaired,
              upkeep.stats().scrubUncorrectableFound);

    std::ostringstream os;
    ds.dumpStats(os);
    EXPECT_NE(os.str().find("array.scrub.uncorrectableFound"),
              std::string::npos);
    EXPECT_NE(os.str().find("array.scrub.latentRepaired"),
              std::string::npos);
}

} // namespace
} // namespace deepstore::core
