/**
 * @file
 * Analytic parity for the sharded array (ctest labels `array` +
 * `parity`): a lone steady-state query scattered across a
 * homogeneous 4-node array must match `arrayQuerySeconds` — the
 * closed-form mirror of the coordinator's scatter/scan/merge event
 * path — within the same 2% band the single-SSD parity suite pins.
 *
 * The per-node scan term reuses the per-geometry DeepStoreModel
 * (each node runs its stripe as an independent steady-state scan);
 * the array term adds the FCFS scatter staggering on the host fabric
 * and the serialized merge legs. Nothing array-specific is fitted:
 * if the live path's fabric accounting drifted from the analytic
 * staggering, this test moves.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/deepstore.h"
#include "core/query_model.h"
#include "support/fixtures.h"

namespace deepstore::core {
namespace {

TEST(ArrayAnalyticParity, FourNodeScatterScanMergeWithinTwoPercent)
{
    // 8-channel nodes, full-page features, 2048 pages per node ->
    // 256 pages per channel unit: comfortably steady-state for the
    // closed-form per-node scan term.
    const std::int64_t dim = 4096; // 16 KiB: one feature per page
    const std::uint64_t features = 8192;
    const std::size_t k = 5;

    ssd::FlashParams node_flash;
    node_flash.channels = 8;
    DeepStoreConfig cfg;
    cfg.array.nodes = {node_flash, node_flash, node_flash,
                       node_flash};
    DeepStore ds(cfg);
    auto src = randomDb(dim, features, 3);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(dim));

    DeepStoreModel node_model(node_flash);
    LevelPerf perf = node_model.evaluateModel(
        Level::ChannelLevel, dotModel(dim).model,
        ds.databaseInfo(db).featureBytes);
    ASSERT_TRUE(perf.supported);

    // 8192 full-page features stripe as exactly 2048 per node.
    const double node_scan =
        perf.aggregateSeconds * static_cast<double>(features / 4);
    const std::uint64_t scatter_bytes =
        ds.databaseInfo(db).featureBytes + 64;
    const std::uint64_t merge_bytes = k * sizeof(ScoredResult);
    const double expected = arrayQuerySeconds(
        {node_scan, node_scan, node_scan, node_scan}, scatter_bytes,
        merge_bytes, cfg.array.hostFabricBandwidth);

    std::uint64_t qid = ds.querySync(src->featureAt(1), k, model, db,
                                     0, 0, Level::ChannelLevel);
    const QueryResult &res = ds.getResults(qid);
    EXPECT_EQ(res.outcome, QueryOutcome::Success);
    EXPECT_EQ(res.nodesParticipating, 4u);
    EXPECT_GT(res.interNodeBytes, 0u);
    EXPECT_NEAR(res.latencySeconds, expected, expected * 0.02);
}

TEST(ArrayAnalyticParity, OneNodeArrayCollapsesToPlainScanTerm)
{
    // With a single node the array term must vanish: no scatter
    // staggering, no merge legs — arrayQuerySeconds([s]) == s, and
    // the live path agrees within the usual band.
    const std::int64_t dim = 4096;
    const std::uint64_t features = 2048;

    ssd::FlashParams node_flash;
    node_flash.channels = 8;
    DeepStoreConfig cfg;
    cfg.flash = node_flash;
    cfg.array.nodes = {node_flash};
    DeepStore ds(cfg);
    auto src = randomDb(dim, features, 5);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(dim));

    DeepStoreModel node_model(node_flash);
    LevelPerf perf = node_model.evaluateModel(
        Level::ChannelLevel, dotModel(dim).model,
        ds.databaseInfo(db).featureBytes);
    ASSERT_TRUE(perf.supported);
    const double scan =
        perf.aggregateSeconds * static_cast<double>(features);
    EXPECT_DOUBLE_EQ(
        arrayQuerySeconds({scan}, 16448, 80,
                          cfg.array.hostFabricBandwidth),
        scan);

    std::uint64_t qid = ds.querySync(src->featureAt(1), 5, model, db,
                                     0, 0, Level::ChannelLevel);
    const QueryResult &res = ds.getResults(qid);
    EXPECT_NEAR(res.latencySeconds, scan, scan * 0.02);
    EXPECT_DOUBLE_EQ(res.mergeSeconds, 0.0);
    EXPECT_EQ(res.interNodeBytes, 0u);
}

} // namespace
} // namespace deepstore::core
