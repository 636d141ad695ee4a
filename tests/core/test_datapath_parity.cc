/**
 * @file
 * Cross-validation of the event-native accelerator datapath (ctest
 * label `parity`): the live engine and the closed-form DeepStoreModel
 * must agree on the same machine.
 *
 *  - tick-for-tick: a one-channel live querySync is the same scan the
 *    one-channel pipeline fixture (scanOneChannel) submits to the
 *    node's scheduler — equality, not a tolerance band (the only
 *    difference, the scheduled top-K reduce gather, is subtracted
 *    exactly), with the scan's ticks pinned as a drift guard;
 *  - contention: scans physically share channels with host I/O, and
 *    only the shared channel pays;
 *  - analytic parity: a lone steady-state query matches the analytic
 *    aggregateSeconds within 2% at all three placement levels, in
 *    flash-bound, compute-bound, and weight-bandwidth-bound
 *    geometries — the burst-refill exposure, the bounded-FIFO
 *    backpressure, and the per-slot weight re-streaming must *emerge*
 *    from the event datapath, not be added as formulas;
 *  - pipeline cross-validation: for all five applications the
 *    one-channel scan's per-feature time is within 15% of the
 *    analytic flash/compute bound;
 *  - determinism: the backpressure-coupled datapath is a pure
 *    function of its seeds (16-seed sweep, bit-identical ticks and
 *    contention counters on a rebuilt engine).
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/deepstore.h"
#include "core/query_model.h"
#include "sim/clock.h"
#include "support/fixtures.h"
#include "workloads/apps.h"

namespace deepstore::core {
namespace {

/** One fat FC (dim x out): ~9.8 MiB of weights at 4096x600 —
 *  overflows the channel level's resident window, so the excess
 *  re-streams over the shared DRAM link every lockstep slot. */
nn::ModelBundle
fatModel(std::int64_t dim, std::int64_t out)
{
    nn::Model m("fat-scn", dim, false);
    m.addLayer(nn::Layer::elementWise("fuse", nn::EwOp::Multiply,
                                      dim));
    m.addLayer(nn::Layer::fc("fc", dim, out));
    auto w = nn::ModelWeights::random(m, 1);
    return nn::ModelBundle{std::move(m), std::move(w)};
}

// ---- live query vs the one-channel pipeline fixture --------------

TEST(UnifiedDatapath, LiveQueryMatchesOneChannelScanTickForTick)
{
    // On a one-channel SSD, DeepStore::query lowers a single-resident
    // channel-level scan to exactly the submission scanOneChannel
    // hands the node's scheduler: Table-3 placement and FLASH_DFV
    // depth, the plan resolved through the node's FTL, the model's
    // layer bursts, resident weights. Latency must agree tick for
    // tick — not approximately. The live path's one extra scheduled
    // event, the top-K reduce gather over the DRAM link, is
    // subtracted exactly.
    ssd::FlashParams flash;
    flash.channels = 1;
    DeepStoreConfig cfg;
    cfg.flash = flash;
    DeepStore ds(cfg);

    const std::int64_t dim = 4096; // 16 KiB: one feature per page
    const std::uint64_t features = 96; // 3 full bursts of 32 pages
    auto src = randomDb(dim, features, 11);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(dim));

    LevelPerf perf = ds.model().evaluateModel(
        Level::ChannelLevel, dotModel(dim).model,
        ds.databaseInfo(db).featureBytes);
    ASSERT_TRUE(perf.supported);
    ASSERT_EQ(perf.excessWeightBytesPerSlot, 0u);

    std::uint64_t qid = ds.querySync(src->featureAt(2), 4, model, db,
                                     0, 0, Level::ChannelLevel);
    const QueryScheduler &sched = ds.array().node(0).scheduler();
    const QueryRunStats rs = sched.runStats(qid);
    EXPECT_EQ(rs.reduceTicks, 4'800u);
    const Tick live_ticks = sched.completeTick(qid) -
                            sched.submitTick(qid) - rs.reduceTicks;
    EXPECT_EQ(live_ticks, 2'125'420'000u);

    ChannelScanRun run = scanOneChannel(
        flash, features, ds.databaseInfo(db).featureBytes,
        layerBurstTicks(perf), perf.placement.dfvQueueDepthPages);
    EXPECT_EQ(run.features, features);
    EXPECT_EQ(run.pagesStreamed, features); // full-page features
    EXPECT_EQ(run.ticks, live_ticks);
    EXPECT_DOUBLE_EQ(ds.getResults(qid).latencySeconds -
                         ticksToSeconds(rs.reduceTicks),
                     ticksToSeconds(run.ticks));
}

// ---- physical contention -----------------------------------------

/** Contention rig: a two-channel SSD with a two-page database (LPN 0
 *  on channel 0, LPN 1 on channel 1 under channel-major striping).
 *  Runs a channel-level scan of page 0 submitted at a fixed tick,
 *  optionally behind a host-read storm of `storm_reads` back-to-back
 *  reads of `storm_lpn` issued at tick 0. Returns the query latency
 *  in seconds. */
double
scanLatencyUnderStorm(std::optional<std::uint64_t> storm_lpn,
                      int storm_reads)
{
    ssd::FlashParams flash;
    flash.channels = 2;
    DeepStoreConfig cfg;
    cfg.flash = flash;
    DeepStore ds(cfg);

    const std::int64_t dim = 32; // 128 B: 128 features per page
    const std::uint64_t fpp = flash.pageBytes / (dim * 4);
    auto src = randomDb(dim, 2 * fpp, 12);
    std::uint64_t db = ds.writeDB(src);
    std::uint64_t model = ds.loadModel(dotModel(dim));

    if (storm_lpn) {
        for (int i = 0; i < storm_reads; ++i)
            ds.array().node(0).device().hostRead(*storm_lpn, 1, [](Tick) {});
    }
    // Submit the query a little into the storm so its first flash
    // read queues behind in-flight host reads (if any share its
    // channel) instead of racing them at tick zero.
    std::uint64_t qid = 0;
    ds.events().scheduleAfter(secondsToTicks(10e-6), [&] {
        qid = ds.query(src->featureAt(0), 4, model, db, 0, fpp,
                       Level::ChannelLevel);
    });
    while (ds.step()) {
    }
    EXPECT_NE(qid, 0u);
    EXPECT_EQ(ds.poll(qid), QueryState::Complete);
    return ds.getResults(qid).latencySeconds;
}

TEST(UnifiedDatapath, ScanContendsWithHostReadsOnSharedChannelOnly)
{
    // The scan's pages live on channel 0. A host-read storm on the
    // same channel must strictly delay it (shared planes and channel
    // bus); an equally sized storm on channel 1 must leave its
    // latency tick-identical to an idle SSD.
    const double idle = scanLatencyUnderStorm(std::nullopt, 0);
    const double shared = scanLatencyUnderStorm(0, 12);
    const double disjoint = scanLatencyUnderStorm(1, 12);

    EXPECT_GT(shared, idle);
    EXPECT_DOUBLE_EQ(disjoint, idle);
}

// ---- analytic parity ---------------------------------------------

TEST(AnalyticParity, FlashBoundQueryMatchesModelAtAllLevels)
{
    // A lone steady-state query must reproduce the analytic model's
    // prediction. The live path's flash term is physical (bursts of
    // real page reads against the FlashControllers), so the analytic
    // burst-refill exposure term must *emerge* from the stream's
    // refill barrier rather than being added as a formula. Full-page
    // features and 8 full bursts per channel put the run in steady
    // state; all three levels must agree within 2%. The chip level's
    // closed form charges ceil(wsGroupSize / featuresPerPage) page
    // reads per lockstep slot — the physical floor of one plane read
    // per page that the live path pays; and the refill exposure term
    // credits the one stagger interval the chip path's page-buffer
    // consumption hides. The closed form is steady-state, so each
    // accelerator unit must see enough burst refills that the one
    // refill exposure the live pipeline hides at the tail (a
    // finite-scan effect, ~readLatency per unit) stays inside the
    // band: 256 pages per channel for SSD/channel, and 512 pages per
    // *chip* unit (128 units) for the chip level.
    const std::int64_t dim = 4096; // 16 KiB: 1 feature/page
    for (Level level :
         {Level::SsdLevel, Level::ChannelLevel, Level::ChipLevel}) {
        const std::uint64_t features =
            level == Level::ChipLevel ? 65536 : 8192;
        DeepStore ds{DeepStoreConfig{}};
        auto src = randomDb(dim, features, 3);
        std::uint64_t db = ds.writeDB(src);
        std::uint64_t model = ds.loadModel(dotModel(dim));

        LevelPerf perf = ds.model().evaluateModel(
            level, dotModel(dim).model,
            ds.databaseInfo(db).featureBytes);
        ASSERT_TRUE(perf.supported);
        double expected =
            perf.aggregateSeconds * static_cast<double>(features);

        std::uint64_t qid = ds.querySync(src->featureAt(1), 5, model,
                                         db, 0, 0, level);
        double got = ds.getResults(qid).latencySeconds;
        const double tol = 0.02;
        EXPECT_NEAR(got, expected, expected * tol)
            << "level " << toString(level);
    }
}

TEST(AnalyticParity, ComputeBoundQueryMatchesModelWithBackpressure)
{
    // Three resident 512x512 FC layers make compute ~7x the flash
    // leg at the channel level. The live total must track the
    // analytic compute leg (the burst-refill exposure must NOT
    // surface: the bounded feature FIFO keeps the FLASH_DFV a burst
    // ahead of the array, so refills hide behind compute), and the
    // throttled stream must record real, surfaced backpressure.
    const std::int64_t dim = 512;
    const std::uint64_t features = 16384;
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(dim, features, 5);
    std::uint64_t db = ds.writeDB(src);
    auto bundle = mlpModel(dim, 3);
    std::uint64_t model = ds.loadModel(bundle);

    LevelPerf perf = ds.model().evaluateModel(
        Level::ChannelLevel, bundle.model,
        ds.databaseInfo(db).featureBytes);
    ASSERT_TRUE(perf.supported);
    // The geometry really is compute-bound with resident weights.
    ASSERT_GT(perf.computeSeconds, 3.0 * perf.flashSeconds);
    ASSERT_EQ(perf.excessWeightBytesPerSlot, 0u);
    ASSERT_DOUBLE_EQ(perf.perAccelSeconds, perf.computeSeconds);

    double expected =
        perf.aggregateSeconds * static_cast<double>(features);
    std::uint64_t qid = ds.querySync(src->featureAt(1), 5, model, db,
                                     0, 0, Level::ChannelLevel);
    const QueryResult &res = ds.getResults(qid);
    EXPECT_NEAR(res.latencySeconds, expected, expected * 0.02);
    // Flash waited on compute: the bounded FIFO pushed back.
    EXPECT_GT(res.backpressureSeconds, 0.0);
}

TEST(AnalyticParity, WeightBoundQueryMatchesModelWithWeightStalls)
{
    // A 4096x600 FC (~9.8 MiB) overflows the channel level's
    // resident weight window (shared L2 minus the feature staging
    // reserve), so ~1.8 MiB re-streams over the shared DRAM link
    // every lockstep slot and the weight leg dominates both compute
    // and flash. The live path must reproduce the analytic weight
    // leg through WeightStream reservations on the DRAM
    // BandwidthLink — first requester pays, broadcast co-subscribers
    // ride — and the stalls must surface in the query's contention
    // counters.
    const std::int64_t dim = 4096;
    const std::uint64_t features = 4096;
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(dim, features, 7);
    std::uint64_t db = ds.writeDB(src);
    auto bundle = fatModel(dim, 600);
    std::uint64_t model = ds.loadModel(bundle);

    LevelPerf perf = ds.model().evaluateModel(
        Level::ChannelLevel, bundle.model,
        ds.databaseInfo(db).featureBytes);
    ASSERT_TRUE(perf.supported);
    ASSERT_GT(perf.excessWeightBytesPerSlot, 0u);
    ASSERT_GT(perf.weightStreamSeconds, perf.computeSeconds);
    ASSERT_GT(perf.weightStreamSeconds, perf.flashSeconds);

    double expected =
        perf.aggregateSeconds * static_cast<double>(features);
    std::uint64_t qid = ds.querySync(src->featureAt(1), 5, model, db,
                                     0, 0, Level::ChannelLevel);
    const QueryResult &res = ds.getResults(qid);
    EXPECT_NEAR(res.latencySeconds, expected, expected * 0.02);
    // Compute sat waiting on the slot weight feed.
    EXPECT_GT(res.computeStallSeconds, 0.0);
}

/**
 * Cross-validation: the closed-form channel-level model and the
 * one-channel live scan agree on per-feature time within 15% for all
 * five applications (compute leg fed from the same systolic model,
 * weights held resident to isolate the flash/compute pipeline).
 */
class PipelineXVal : public ::testing::TestWithParam<workloads::AppId>
{
};

TEST_P(PipelineXVal, AnalyticModelMatchesEventModel)
{
    auto app = workloads::makeApp(GetParam());
    ssd::FlashParams params;
    DeepStoreModel model(params);
    auto perf = model.evaluate(Level::ChannelLevel, app);

    const std::uint64_t features = 1000;
    const std::uint32_t depth = perf.placement.dfvQueueDepthPages;
    const Tick burst =
        sim::Clock(perf.placement.array.frequencyHz)
            .cyclesToTicks(perf.modelRun.totalCycles());
    ChannelScanRun run = scanOneChannel(params, features,
                                        app.featureBytes(), {burst},
                                        depth);
    const double per_feature =
        ticksToSeconds(run.ticks) / static_cast<double>(features);

    // Compare against the analytic per-accelerator time without the
    // weight-stream leg (the scan models flash + compute only).
    double analytic =
        std::max(perf.computeSeconds, perf.flashSeconds) +
        params.readLatency *
            (static_cast<double>(app.featureBytes()) /
             static_cast<double>(params.pageBytes)) /
            depth;
    EXPECT_NEAR(per_feature / analytic, 1.0, 0.15)
        << app.name << ": event " << per_feature * 1e6
        << " us vs analytic " << analytic * 1e6 << " us";
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, PipelineXVal,
    ::testing::Values(workloads::AppId::ReId, workloads::AppId::MIR,
                      workloads::AppId::ESTP, workloads::AppId::TIR,
                      workloads::AppId::TextQA),
    [](const auto &info) {
        return std::string(workloads::toString(info.param));
    });

// ---- determinism under backpressure ------------------------------

/** One compute-bound query on a fresh engine; returns the complete
 *  tick and the contention counters. The geometry must actually fill
 *  the bounded station FIFO: at dim 512 a page holds 8 features, so
 *  the 32-page DFV queue stages up to 256 features per accelerator,
 *  and 9216 features (288 per channel unit) push past that while the
 *  3-layer square MLP (3 MiB of weights, resident in L2) keeps the
 *  run compute-bound rather than weight-bound. */
struct SweepRun
{
    Tick completeTick = 0;
    Tick computeStallTicks = 0;
    Tick backpressureTicks = 0;
    Tick reduceTicks = 0;
};

SweepRun
sweepRun(std::uint64_t seed)
{
    const std::int64_t dim = 512;
    const std::uint64_t features = 9216;
    DeepStore ds{DeepStoreConfig{}};
    auto src = randomDb(dim, features, seed);
    std::uint64_t db = ds.writeDB(src);
    auto bundle = mlpModel(dim, 3);
    std::uint64_t model = ds.loadModel(bundle);
    std::uint64_t qid = ds.querySync(src->featureAt(seed % features),
                                     5, model, db, 0, 0,
                                     Level::ChannelLevel);
    const QueryScheduler &sched = ds.array().node(0).scheduler();
    QueryRunStats rs = sched.runStats(qid);
    return {sched.completeTick(qid), rs.computeStallTicks,
            rs.backpressureTicks, rs.reduceTicks};
}

TEST(BackpressureDeterminism, SixteenSeedSweepIsBitIdentical)
{
    // The backpressure-coupled datapath (burst barrier + bounded
    // FIFO + shared DRAM/NoC links) must be a pure function of its
    // seeds: rebuilding the engine and rerunning the same seed gives
    // bit-identical completion ticks and contention counters, for
    // every seed in the sweep.
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        SweepRun a = sweepRun(seed);
        SweepRun b = sweepRun(seed);
        EXPECT_EQ(a.completeTick, b.completeTick) << "seed " << seed;
        EXPECT_EQ(a.computeStallTicks, b.computeStallTicks)
            << "seed " << seed;
        EXPECT_EQ(a.backpressureTicks, b.backpressureTicks)
            << "seed " << seed;
        EXPECT_EQ(a.reduceTicks, b.reduceTicks) << "seed " << seed;
        // The compute-bound geometry exerts real backpressure in
        // every run — the determinism claim covers the interesting
        // (contended) path, not an idle one.
        EXPECT_GT(a.backpressureTicks, 0u) << "seed " << seed;
    }
}

} // namespace
} // namespace deepstore::core
