/** @file Integration tests for the DeepStore runtime and Table 2 API. */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/deepstore.h"
#include "support/fixtures.h"
#include "workloads/apps.h"

namespace deepstore::core {
namespace {

DeepStoreConfig
smallConfig()
{
    DeepStoreConfig cfg;
    cfg.flash = ssd::FlashParams{};
    return cfg;
}

/** Forwards to a source, counting the rows it delivers (through
 *  featureAt or fill) and every other call made on it. */
class CountingSource : public FeatureSource
{
  public:
    explicit CountingSource(std::shared_ptr<FeatureSource> inner)
        : inner_(std::move(inner))
    {
    }

    std::uint64_t
    count() const override
    {
        ++otherCalls;
        return inner_->count();
    }

    std::int64_t
    dim() const override
    {
        ++otherCalls;
        return inner_->dim();
    }

    std::vector<float>
    featureAt(std::uint64_t index) const override
    {
        ++rowsRead;
        return inner_->featureAt(index);
    }

    void
    fill(std::uint64_t start, std::uint64_t n, float *out) const override
    {
        rowsRead += n;
        inner_->fill(start, n, out);
    }

    mutable std::uint64_t rowsRead = 0;
    mutable std::uint64_t otherCalls = 0;

  private:
    std::shared_ptr<FeatureSource> inner_;
};

/** Claims one row of zero floats. */
class ZeroWidthSource : public FeatureSource
{
  public:
    std::uint64_t count() const override { return 1; }
    std::int64_t dim() const override { return 0; }
    std::vector<float> featureAt(std::uint64_t) const override
    {
        return {};
    }
};

TEST(DeepStoreApi, WriteDbAssignsMetadata)
{
    DeepStore ds(smallConfig());
    std::uint64_t db = ds.writeDB(randomDb(64, 100, 1));
    const DbMetadata &md = ds.databaseInfo(db);
    EXPECT_EQ(md.numFeatures, 100u);
    EXPECT_EQ(md.featureBytes, 256u);
    EXPECT_GT(ds.simulatedSeconds(), 0.0);
}

TEST(DeepStoreApi, WriteDbRejectsEmpty)
{
    DeepStore ds(smallConfig());
    EXPECT_THROW(ds.writeDB(nullptr), FatalError);
    EXPECT_THROW(
        ds.writeDB(std::make_shared<VectorFeatureSource>(
            std::vector<std::vector<float>>{}, 4)),
        FatalError);
    // Zero-width rows are rejected before placement sees them.
    EXPECT_THROW(ds.writeDB(std::make_shared<ZeroWidthSource>()),
                 FatalError);
    EXPECT_THROW(
        ds.writeDB(std::make_shared<VectorFeatureSource>(
            std::vector<std::vector<float>>{{}}, 0)),
        FatalError);
    EXPECT_THROW(VectorFeatureSource(std::vector<float>{}, 0),
                 FatalError);
    EXPECT_THROW(VectorFeatureSource(std::vector<float>{1.0f}, -1),
                 FatalError);
    // A flat block must hold whole features.
    EXPECT_THROW(
        VectorFeatureSource(std::vector<float>{1.0f, 2.0f, 3.0f}, 2),
        FatalError);
}

TEST(DeepStoreApi, ReadDbRoundTrips)
{
    DeepStore ds(smallConfig());
    std::vector<std::vector<float>> feats{
        {1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}};
    std::uint64_t db = ds.writeDB(
        std::make_shared<VectorFeatureSource>(feats, 2));
    auto got = ds.readDB(db, 1, 2);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], feats[1]);
    EXPECT_EQ(got[1], feats[2]);
    EXPECT_THROW(ds.readDB(db, 2, 5), FatalError);
}

TEST(FeatureSource, GeneratedFillIsTheGeneratorsFeatures)
{
    // The cached-centroid fill yields the generator's own floats.
    const std::int64_t dim = 24;
    workloads::FeatureGenerator gen(dim, 5, 13);
    GeneratedFeatureSource src(gen, 40);
    std::vector<float> rows(40 * dim);
    src.fill(0, 40, rows.data());
    for (std::uint64_t i = 0; i < 40; ++i) {
        const auto want = gen.featureAt(i);
        EXPECT_EQ(std::memcmp(want.data(), rows.data() + i * dim,
                              dim * sizeof(float)),
                  0);
        EXPECT_EQ(src.featureAt(i), want);
    }
}

TEST(DeepStoreApi, QueryFindsTrueTopK)
{
    DeepStore ds(smallConfig());
    const std::int64_t dim = 32;
    auto db_src = randomDb(dim, 200, 3);
    std::uint64_t db = ds.writeDB(db_src);
    std::uint64_t model = ds.loadModel(dotModel(dim));

    std::vector<float> qfv = db_src->featureAt(17);
    std::uint64_t qid = ds.querySync(qfv, 5, model, db, 0, 0);
    const QueryResult &res = ds.getResults(qid);
    ASSERT_EQ(res.topK.size(), 5u);
    EXPECT_EQ(res.featuresScanned, 200u);
    EXPECT_GT(res.latencySeconds, 0.0);

    // Brute-force oracle on inner products.
    std::vector<std::pair<double, std::uint64_t>> oracle;
    for (std::uint64_t i = 0; i < 200; ++i) {
        auto f = db_src->featureAt(i);
        double dot = 0;
        for (std::int64_t j = 0; j < dim; ++j)
            dot += qfv[static_cast<std::size_t>(j)] *
                   f[static_cast<std::size_t>(j)];
        oracle.emplace_back(-dot, i);
    }
    std::sort(oracle.begin(), oracle.end());
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(res.topK[i].featureId, oracle[i].second) << i;
}

TEST(DeepStoreApi, QueryValidatesArguments)
{
    DeepStore ds(smallConfig());
    std::uint64_t db = ds.writeDB(randomDb(16, 10, 5));
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::vector<float> qfv(16, 0.5f);
    EXPECT_THROW(ds.query(qfv, 3, 999, db, 0, 0), FatalError);
    EXPECT_THROW(ds.query(qfv, 3, model, 999, 0, 0), FatalError);
    EXPECT_THROW(ds.query(qfv, 3, model, db, 5, 3), FatalError);
    EXPECT_THROW(ds.query(qfv, 3, model, db, 0, 11), FatalError);
    std::vector<float> wrong(8, 0.5f);
    EXPECT_THROW(ds.query(wrong, 3, model, db, 0, 0), FatalError);
    EXPECT_THROW(ds.getResults(12345), FatalError);
}

TEST(DeepStoreApi, SubRangeQueriesScanLess)
{
    DeepStore ds(smallConfig());
    auto src = randomDb(16, 100, 7);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::vector<float> qfv = src->featureAt(0);
    std::uint64_t full = ds.querySync(qfv, 3, model, db, 0, 0);
    std::uint64_t half = ds.querySync(qfv, 3, model, db, 0, 50);
    EXPECT_EQ(ds.getResults(full).featuresScanned, 100u);
    EXPECT_EQ(ds.getResults(half).featuresScanned, 50u);
    EXPECT_GT(ds.getResults(full).latencySeconds,
              ds.getResults(half).latencySeconds);
    // Sub-range results only contain ids below 50.
    for (const auto &r : ds.getResults(half).topK)
        EXPECT_LT(r.featureId, 50u);
}

TEST(DeepStoreApi, LevelsDifferInLatencyNotResults)
{
    DeepStore ds(smallConfig());
    auto src = randomDb(16, 80, 11);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    std::vector<float> qfv = src->featureAt(3);
    auto ch = ds.getResults(
        ds.querySync(qfv, 4, model, db, 0, 0, Level::ChannelLevel));
    auto ssd = ds.getResults(
        ds.querySync(qfv, 4, model, db, 0, 0, Level::SsdLevel));
    EXPECT_EQ(ch.topK, ssd.topK);
    EXPECT_LT(ch.latencySeconds, ssd.latencySeconds);
}

TEST(DeepStoreApi, AppendDbGrowsAndInvalidatesQc)
{
    DeepStore ds(smallConfig());
    std::vector<std::vector<float>> first{{1.0f, 0.0f}, {0.0f, 1.0f}};
    std::uint64_t db = ds.writeDB(
        std::make_shared<VectorFeatureSource>(first, 2));
    std::vector<std::vector<float>> more{{2.0f, 2.0f}};
    ds.appendDB(db, std::make_shared<VectorFeatureSource>(more, 2));
    EXPECT_EQ(ds.databaseInfo(db).numFeatures, 3u);
    auto got = ds.readDB(db, 2, 1);
    EXPECT_EQ(got[0], more[0]);
    // A window across three extents comes back in row order.
    std::vector<std::vector<float>> last{{3.0f, 3.0f}};
    ds.appendDB(db, std::make_shared<VectorFeatureSource>(last, 2));
    EXPECT_EQ(ds.readDB(db, 1, 3),
              (std::vector<std::vector<float>>{first[1], more[0],
                                               last[0]}));
    // Dim mismatch rejected.
    std::vector<std::vector<float>> bad{{1.0f}};
    EXPECT_THROW(
        ds.appendDB(db, std::make_shared<VectorFeatureSource>(bad, 1)),
        FatalError);
}

TEST(DeepStoreApi, LookupCostDoesNotGrowWithAppends)
{
    DeepStore ds(smallConfig());
    const std::int64_t dim = 4;
    std::vector<std::shared_ptr<CountingSource>> parts{
        std::make_shared<CountingSource>(randomDb(dim, 4, 21))};
    std::uint64_t db = ds.writeDB(parts.front());
    for (std::uint64_t i = 0; i < 1000; ++i) {
        parts.push_back(
            std::make_shared<CountingSource>(randomDb(dim, 1, 22 + i)));
        ds.appendDB(db, parts.back());
    }
    ASSERT_EQ(ds.databaseInfo(db).numFeatures, 1004u);
    std::uint64_t model = ds.loadModel(dotModel(dim));
    for (auto &p : parts)
        p->rowsRead = p->otherCalls = 0;

    // Each read delivers exactly its rows from the source holding
    // them and makes no call of any kind into any other source.
    auto expectOnly = [&parts](std::size_t holder, std::uint64_t rows) {
        std::uint64_t elsewhere = 0;
        for (std::size_t i = 0; i < parts.size(); ++i) {
            if (i != holder)
                elsewhere += parts[i]->rowsRead + parts[i]->otherCalls;
        }
        EXPECT_EQ(parts[holder]->rowsRead, rows);
        EXPECT_EQ(parts[holder]->otherCalls, 0u);
        EXPECT_EQ(elsewhere, 0u);
        for (auto &p : parts)
            p->rowsRead = p->otherCalls = 0;
    };

    auto first = ds.readDB(db, 0, 1);
    expectOnly(0, 1);
    auto last = ds.readDB(db, 1003, 1);
    expectOnly(1000, 1);
    std::uint64_t qid =
        ds.querySync(std::vector<float>(dim, 0.5f), 2, model, db, 0, 4);
    expectOnly(0, 4);

    EXPECT_EQ(first[0], parts.front()->featureAt(0));
    EXPECT_EQ(last[0], parts.back()->featureAt(0));
    EXPECT_EQ(ds.getResults(qid).featuresScanned, 4u);
}

TEST(DeepStoreApi, QueryCacheHitReturnsCachedTopK)
{
    DeepStore ds(smallConfig());
    const std::int64_t dim = 32;
    auto src = randomDb(dim, 150, 13);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t scn = ds.loadModel(dotModel(dim));
    std::uint64_t qcn = ds.loadModel(dotModel(dim));
    ds.setQC(qcn, /*threshold=*/0.25, /*accuracy=*/0.99,
             /*capacity=*/16);

    std::vector<float> qfv = src->featureAt(42);
    std::uint64_t first = ds.querySync(qfv, 5, scn, db, 0, 0);
    const auto &cold = ds.getResults(first);
    EXPECT_FALSE(cold.cacheHit);

    // The identical query again: must hit and return the same top-K
    // while scanning only the cached entries.
    std::uint64_t second = ds.querySync(qfv, 5, scn, db, 0, 0);
    const auto &warm = ds.getResults(second);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.featuresScanned, 5u);
    ASSERT_EQ(warm.topK.size(), cold.topK.size());
    for (std::size_t i = 0; i < warm.topK.size(); ++i)
        EXPECT_EQ(warm.topK[i].featureId, cold.topK[i].featureId);
    EXPECT_LT(warm.latencySeconds, cold.latencySeconds);
    EXPECT_EQ(ds.queryCache()->hits(), 1u);
}

TEST(DeepStoreApi, ObjectIdsAreValidPpns)
{
    DeepStore ds(smallConfig());
    auto src = randomDb(16, 50, 17);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(16));
    auto res =
        ds.getResults(ds.querySync(src->featureAt(0), 3, model, db, 0, 0));
    const DbMetadata &md = ds.databaseInfo(db);
    for (const auto &r : res.topK) {
        EXPECT_EQ(r.objectId,
                  md.featurePpn(r.featureId,
                                ds.model().flash().pageBytes));
    }
}

TEST(DeepStoreApi, LoadModelChargesUploadTime)
{
    DeepStore ds(smallConfig());
    double before = ds.simulatedSeconds();
    ds.loadModel(dotModel(64));
    // A dot model has no weights, so upload time is ~0; a TIR SCN
    // uploads ~1.6 MB.
    auto tir = workloads::makeApp(workloads::AppId::TIR);
    auto w = nn::ModelWeights::random(tir.scn, 3);
    ds.loadModel(nn::ModelBundle{tir.scn, w});
    EXPECT_GT(ds.simulatedSeconds(), before);
}

TEST(DeepStoreApi, DumpStatsReportsEngineAndSsdCounters)
{
    DeepStore ds(smallConfig());
    auto src = randomDb(16, 30, 21);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t scn = ds.loadModel(dotModel(16));
    std::uint64_t qcn = ds.loadModel(dotModel(16));
    ds.setQC(qcn, 0.2, 0.99, 4);
    ds.getResults(ds.querySync(src->featureAt(1), 2, scn, db, 0, 0));
    std::ostringstream os;
    ds.dumpStats(os);
    std::string s = os.str();
    EXPECT_NE(s.find("engine.databases = 1"), std::string::npos);
    EXPECT_NE(s.find("engine.models = 2"), std::string::npos);
    EXPECT_NE(s.find("engine.queries = 1"), std::string::npos);
    EXPECT_NE(s.find("engine.qc.misses = 1"), std::string::npos);
    EXPECT_NE(s.find("ssd.flash.pagePrograms"), std::string::npos);
}

TEST(DeepStoreApi, SerializedModelRoundTripsThroughApi)
{
    DeepStore ds(smallConfig());
    auto bundle = dotModel(16);
    auto blob = nn::serializeModel(bundle.model, bundle.weights);
    std::uint64_t model = ds.loadModel(blob);
    auto src = randomDb(16, 20, 19);
    std::uint64_t db = ds.writeDB(src);
    EXPECT_NO_THROW(
        ds.getResults(ds.querySync(src->featureAt(1), 2, model, db, 0, 0)));
}

} // namespace
} // namespace deepstore::core
