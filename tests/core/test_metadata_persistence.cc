/**
 * @file
 * Tests for metadata persistence to the reserved flash block (§4.4)
 * and the serialization format.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/deepstore.h"

namespace deepstore::core {
namespace {

TEST(MetadataBlob, RoundTrips)
{
    MetadataStore store;
    DbMetadata a;
    a.startPpn = 100;
    a.featureBytes = 2048;
    a.numFeatures = 500;
    a.startLpn = 100;
    DbMetadata b;
    b.startPpn = 163;
    b.featureBytes = 45056;
    b.numFeatures = 7;
    b.startLpn = 163;
    std::uint64_t id_a = store.add(a);
    std::uint64_t id_b = store.add(b);

    MetadataStore restored;
    restored.deserialize(store.serialize());
    EXPECT_EQ(restored.size(), 2u);
    EXPECT_EQ(restored.lookup(id_a).numFeatures, 500u);
    EXPECT_EQ(restored.lookup(id_b).featureBytes, 45056u);
    EXPECT_EQ(restored.lookup(id_b).startPpn, 163u);
    // The id allocator resumes above the restored ids.
    DbMetadata c = a;
    EXPECT_GT(restored.add(c), id_b);
}

TEST(MetadataBlob, CorruptionIsFatal)
{
    MetadataStore store;
    DbMetadata md;
    md.featureBytes = 800;
    md.numFeatures = 10;
    store.add(md);
    auto blob = store.serialize();

    MetadataStore victim;
    auto bad_magic = blob;
    bad_magic[0] ^= 0xFF;
    EXPECT_THROW(victim.deserialize(bad_magic), FatalError);

    auto truncated = blob;
    truncated.resize(truncated.size() - 8);
    EXPECT_THROW(victim.deserialize(truncated), FatalError);

    auto trailing = blob;
    trailing.push_back(0);
    EXPECT_THROW(victim.deserialize(trailing), FatalError);
}

TEST(MetadataBlob, ClearEmptiesAndResets)
{
    MetadataStore store;
    DbMetadata md;
    md.featureBytes = 4;
    md.numFeatures = 1;
    store.add(md);
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.add(md), 1u); // ids restart
}

TEST(MetadataPersistence, SurvivesDramLoss)
{
    DeepStore ds{DeepStoreConfig{}};
    workloads::FeatureGenerator gen(64, 8, 3);
    std::uint64_t db = ds.writeDB(
        std::make_shared<GeneratedFeatureSource>(gen, 200));
    DbMetadata before = ds.databaseInfo(db);

    EXPECT_EQ(ds.persistMetadata(), 1u); // table fits one page
    ds.reloadMetadata();

    const DbMetadata &after = ds.databaseInfo(db);
    EXPECT_EQ(after.startPpn, before.startPpn);
    EXPECT_EQ(after.numFeatures, before.numFeatures);
    EXPECT_EQ(after.featureBytes, before.featureBytes);

    // Queries keep working against the restored table.
    nn::Model m("dot", 64, false);
    m.addLayer(nn::Layer::elementWise("dot", nn::EwOp::DotProduct, 64));
    std::uint64_t model = ds.loadModel(
        nn::ModelBundle{m, nn::ModelWeights::random(m, 1)});
    auto res = ds.getResults(
        ds.querySync(gen.featureAt(5), 3, model, db, 0, 0));
    EXPECT_EQ(res.featuresScanned, 200u);
}

TEST(MetadataPersistence, RepeatedPersistsDoNotLeakBlocks)
{
    DeepStore ds{DeepStoreConfig{}};
    workloads::FeatureGenerator gen(64, 8, 4);
    ds.writeDB(std::make_shared<GeneratedFeatureSource>(gen, 50));
    ssd::Ftl &ftl = ds.array().node(0).device().ftl();
    std::uint32_t free_before = ftl.freeSuperblocks();
    for (int i = 0; i < 5; ++i)
        ds.persistMetadata();
    // The reserved superblock is recycled in place, costing at most
    // one superblock of capacity.
    EXPECT_GE(ftl.freeSuperblocks() + 1, free_before);
}

TEST(MetadataPersistence, ReloadWithoutPersistIsFatal)
{
    DeepStore ds{DeepStoreConfig{}};
    EXPECT_THROW(ds.reloadMetadata(), FatalError);
}

} // namespace
} // namespace deepstore::core
